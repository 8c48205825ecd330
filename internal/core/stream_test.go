package core

import (
	"math"
	"strings"
	"testing"

	"probdedup/internal/dataset"
	"probdedup/internal/decision"
	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/ssr"
	"probdedup/internal/strsim"
	"probdedup/internal/verify"
	"probdedup/internal/xmatch"
)

func streamOptions() Options {
	return Options{
		Compare: []strsim.Func{strsim.Levenshtein, strsim.Levenshtein, strsim.Levenshtein},
		AltModel: decision.SimpleModel{
			Phi: decision.WeightedSum(0.4, 0.3, 0.3),
			T:   decision.Thresholds{Lambda: 0.6, Mu: 0.8},
		},
		Derivation: xmatch.SimilarityBased{Conditioned: true},
		Final:      decision.Thresholds{Lambda: 0.6, Mu: 0.8},
	}
}

// collectStream runs DetectStream and gathers the emitted matches.
func collectStream(t *testing.T, xr *pdb.XRelation, opts Options) (map[verify.Pair]Match, StreamStats) {
	t.Helper()
	got := map[verify.Pair]Match{}
	stats, err := DetectStream(xr, opts, func(m Match) bool {
		if _, dup := got[m.Pair]; dup {
			t.Fatalf("pair %v emitted twice", m.Pair)
		}
		got[m.Pair] = m
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, stats
}

// assertSameResults checks a streamed result set against a
// materialized Detect run: identical pairs, similarities, classes.
func assertSameResults(t *testing.T, res *Result, got map[verify.Pair]Match, stats StreamStats) {
	t.Helper()
	if len(got) != len(res.Compared) {
		t.Fatalf("streamed %d pairs, Detect compared %d", len(got), len(res.Compared))
	}
	if stats.Compared != len(res.Compared) {
		t.Fatalf("stats.Compared %d, want %d", stats.Compared, len(res.Compared))
	}
	if stats.TotalPairs != res.TotalPairs {
		t.Fatalf("stats.TotalPairs %d, want %d", stats.TotalPairs, res.TotalPairs)
	}
	if stats.Matches != len(res.Matches) || stats.Possible != len(res.Possible) {
		t.Fatalf("stats sets M=%d P=%d, want M=%d P=%d",
			stats.Matches, stats.Possible, len(res.Matches), len(res.Possible))
	}
	for p, want := range res.ByPair {
		m, ok := got[p]
		if !ok {
			t.Fatalf("pair %v missing from stream", p)
		}
		if math.Abs(m.Sim-want.Sim) > 1e-12 || m.Class != want.Class {
			t.Fatalf("pair %v differs: stream %v/%v, detect %v/%v",
				p, m.Sim, m.Class, want.Sim, want.Class)
		}
	}
}

// TestDetectStreamMatchesDetect asserts across reductions and worker
// counts that the streaming path classifies exactly like Detect —
// satellite requirement together with TestParallelDetectMatchesSequential,
// exercised under -race in CI.
func TestDetectStreamMatchesDetect(t *testing.T) {
	u := dataset.Generate(dataset.DefaultConfig(50, 23)).Union()
	for name, red := range streamReductions(t, u.Schema) {
		opts := streamOptions()
		opts.Reduction = red
		seq, err := Detect(u, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, workers := range []int{1, 4, 32} {
			opts.Workers = workers
			got, stats := collectStream(t, u, opts)
			assertSameResults(t, seq, got, stats)
			if stats.Stopped {
				t.Fatalf("%s workers=%d: run reported stopped", name, workers)
			}
			// The parallel Detect must also equal the sequential one.
			par, err := Detect(u, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			for i := range seq.Compared {
				if par.Compared[i] != seq.Compared[i] {
					t.Fatalf("%s workers=%d: Compared order diverges at %d", name, workers, i)
				}
			}
		}
	}
}

// streamReductions is the reduction table of the streaming tests
// (nil = cross product).
func streamReductions(t *testing.T, schema []string) map[string]ssr.Method {
	t.Helper()
	def, err := keys.ParseDef("name:3+job:2", schema)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]ssr.Method{
		"cross-product":         nil,
		"snm-ranked":            ssr.SNMRanked{Key: def, Window: 5},
		"snm-alternatives":      ssr.SNMAlternatives{Key: def, Window: 5},
		"blocking-certain":      ssr.BlockingCertain{Key: def},
		"blocking-alternatives": ssr.BlockingAlternatives{Key: def},
		"blocking-cluster":      ssr.BlockingCluster{Key: def, K: 8, Seed: 1},
		"adapter-only":          firstLastMethod{},
	}
}

// TestDetectStreamOrderIndependentOfWorkers pins the emission order:
// for every reduction, DetectStream emits the identical Match sequence
// at Workers 1, 2 and 4 — the reduction's enumeration order — so a
// parallel run is byte-for-byte reproducible.
func TestDetectStreamOrderIndependentOfWorkers(t *testing.T) {
	u := dataset.Generate(dataset.DefaultConfig(50, 23)).Union()
	for name, red := range streamReductions(t, u.Schema) {
		var want []Match
		for _, workers := range []int{1, 2, 4} {
			opts := streamOptions()
			opts.Reduction = red
			opts.Workers = workers
			var got []Match
			if _, err := DetectStream(u, opts, func(m Match) bool {
				got = append(got, m)
				return true
			}); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if workers == 1 {
				want = got
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: emitted %d matches, workers=1 emitted %d", name, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: match %d is %+v, workers=1 emitted %+v", name, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// firstLastMethod is a Method without a Streamer implementation; it
// forces the StreamOf adapter path through the engine.
type firstLastMethod struct{}

func (firstLastMethod) Name() string { return "first-last" }

func (firstLastMethod) Candidates(xr *pdb.XRelation) verify.PairSet {
	s := verify.PairSet{}
	if n := len(xr.Tuples); n > 1 {
		s.Add(xr.Tuples[0].ID, xr.Tuples[n-1].ID)
	}
	return s
}

// TestDetectStreamLargeBlocking is the scale acceptance check: a
// ≥10k-tuple relation streams through a blocking reduction across
// eight workers and classifies exactly like Detect, while the engine
// never builds the global candidate pair set.
func TestDetectStreamLargeBlocking(t *testing.T) {
	if testing.Short() {
		t.Skip("large corpus")
	}
	d := dataset.Generate(dataset.DefaultConfig(6500, 9))
	u := d.Union()
	if len(u.Tuples) < 10_000 {
		t.Fatalf("corpus has %d tuples, want >= 10000", len(u.Tuples))
	}
	def, err := keys.ParseDef("name:5+job:3", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Compare:   []strsim.Func{strsim.NormalizedHamming, strsim.NormalizedHamming, strsim.NormalizedHamming},
		Reduction: ssr.BlockingCertain{Key: def},
		Final:     decision.Thresholds{Lambda: 0.6, Mu: 0.8},
		Workers:   8,
	}
	matches, possible := verify.PairSet{}, verify.PairSet{}
	stats, err := DetectStream(u, opts, func(m Match) bool {
		switch m.Class {
		case decision.M:
			matches[m.Pair] = true
		case decision.P:
			possible[m.Pair] = true
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := ssr.TotalPairs(len(u.Tuples)); stats.TotalPairs != want {
		t.Fatalf("TotalPairs %d, want %d", stats.TotalPairs, want)
	}

	opts.Workers = 4
	res, err := Detect(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != len(res.Matches) || len(possible) != len(res.Possible) {
		t.Fatalf("stream M=%d P=%d, detect M=%d P=%d",
			len(matches), len(possible), len(res.Matches), len(res.Possible))
	}
	for p := range res.Matches {
		if !matches[p] {
			t.Fatalf("match %v missing from stream", p)
		}
	}
	for p := range res.Possible {
		if !possible[p] {
			t.Fatalf("possible %v missing from stream", p)
		}
	}
}

// TestDetectStreamEarlyStop asserts that emit returning false ends the
// run promptly in both the sequential and the parallel engine.
func TestDetectStreamEarlyStop(t *testing.T) {
	d := dataset.Generate(dataset.DefaultConfig(50, 23))
	u := d.Union()
	for _, workers := range []int{1, 4} {
		opts := streamOptions()
		opts.Workers = workers
		emitted := 0
		stats, err := DetectStream(u, opts, func(Match) bool {
			emitted++
			return emitted < 10
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !stats.Stopped {
			t.Fatalf("workers=%d: Stopped not set", workers)
		}
		if emitted != 10 || stats.Compared != 10 {
			t.Fatalf("workers=%d: emitted %d, stats.Compared %d, want 10", workers, emitted, stats.Compared)
		}
	}
}

// TestDetectStreamEarlyStopCountsExact pins the early-stop counters
// with the pre-filter on: pairs verified ahead of the stop point are
// not counted, so Compared, Filtered and Enumerated are identical at
// Workers 1 and 4.
func TestDetectStreamEarlyStopCountsExact(t *testing.T) {
	u := dataset.Generate(dataset.DefaultConfig(50, 23)).Union()
	var want StreamStats
	for _, workers := range []int{1, 4} {
		opts := incrementalOpts(nil)
		opts.PreFilter = true
		opts.Workers = workers
		emitted := 0
		stats, err := DetectStream(u, opts, func(Match) bool {
			emitted++
			return emitted < 25
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !stats.Stopped || !stats.FilterActive || stats.Filtered == 0 {
			t.Fatalf("workers=%d: want a filtered early stop, got %+v", workers, stats)
		}
		if stats.Enumerated != stats.Compared+stats.Filtered {
			t.Fatalf("workers=%d: Enumerated %d != Compared %d + Filtered %d", workers, stats.Enumerated, stats.Compared, stats.Filtered)
		}
		if workers == 1 {
			want = stats
			continue
		}
		if stats.Compared != want.Compared || stats.Filtered != want.Filtered || stats.Enumerated != want.Enumerated {
			t.Fatalf("workers=%d: compared/filtered/enumerated %d/%d/%d, workers=1 %d/%d/%d", workers,
				stats.Compared, stats.Filtered, stats.Enumerated, want.Compared, want.Filtered, want.Enumerated)
		}
	}
}

// bogusMethod emits a candidate pair that references no tuple of the
// relation — the engine must fail cleanly in both modes.
type bogusMethod struct{}

func (bogusMethod) Name() string { return "bogus" }

func (bogusMethod) Candidates(xr *pdb.XRelation) verify.PairSet {
	return verify.NewPairSet(verify.Pair{A: "no-such-a", B: "no-such-b"})
}

func TestDetectStreamErrors(t *testing.T) {
	d := dataset.Generate(dataset.DefaultConfig(20, 23))
	u := d.Union()

	// Invalid thresholds are rejected before any work.
	if _, err := DetectStream(u, Options{Final: decision.Thresholds{Lambda: 1, Mu: 0}}, func(Match) bool { return true }); err == nil {
		t.Fatal("want threshold error")
	}

	for _, workers := range []int{1, 4} {
		opts := streamOptions()
		opts.Workers = workers
		opts.Reduction = bogusMethod{}
		_, err := DetectStream(u, opts, func(Match) bool { return true })
		if err == nil || !strings.Contains(err.Error(), "unknown tuples") {
			t.Fatalf("workers=%d: err = %v, want unknown-tuples error", workers, err)
		}
		if _, err := Detect(u, opts); err == nil {
			t.Fatalf("workers=%d: Detect must propagate the error", workers)
		}
	}
}

// TestDetectStreamTinyRelations guards the degenerate shapes: no
// pairs, fewer pairs than workers — the pipeline must terminate.
func TestDetectStreamTinyRelations(t *testing.T) {
	one := pdb.NewXRelation("one", "a").Append(pdb.NewXTuple("t", pdb.NewAlt(1, "x")))
	for _, workers := range []int{1, 8} {
		opts := Options{Final: decision.Thresholds{Lambda: 0.4, Mu: 0.7}, Workers: workers}
		stats, err := DetectStream(one, opts, func(Match) bool { return true })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats.Compared != 0 || stats.TotalPairs != 0 {
			t.Fatalf("workers=%d: stats %+v", workers, stats)
		}
	}
}
