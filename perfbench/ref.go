package main

// In-process references and the library-side timings every workload
// reports: batch detection, bulk-load, SNMRanked bulk-load and durable
// recovery over a workload's final relation.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"probdedup"
	"probdedup/internal/cliopts"
)

// engineConfig is the detection configuration a workload serves with,
// in pdedupd's flag vocabulary so the daemon and the in-process
// reference are built from the same words.
type engineConfig struct {
	compare    string
	key        string
	lambda, mu float64
	prefilter  bool
}

// daemonArgs renders the configuration as pdedupd flags.
func (ec engineConfig) daemonArgs(schema []string) []string {
	args := []string{
		"-schema", strings.Join(schema, ","), "-key", ec.key, "-compare", ec.compare,
		"-lambda", fmt.Sprint(ec.lambda), "-mu", fmt.Sprint(ec.mu),
	}
	if ec.prefilter {
		args = append(args, "-prefilter")
	}
	return args
}

// options builds the probdedup.Options pdedupd builds from the same
// flags (default alt thresholds 0.4/0.7, similarity derivation, one
// verification worker), with reduction m in place of blocking when m
// is non-nil.
func (ec engineConfig) options(schema []string, m probdedup.ReductionMethod) (probdedup.Options, error) {
	cmp, err := cliopts.Compare(ec.compare)
	if err != nil {
		return probdedup.Options{}, err
	}
	compare := make([]probdedup.CompareFunc, len(schema))
	for i := range compare {
		compare[i] = cmp
	}
	derive, err := cliopts.Derivation("similarity")
	if err != nil {
		return probdedup.Options{}, err
	}
	if m == nil {
		def, err := probdedup.ParseKeyDef(ec.key, schema)
		if err != nil {
			return probdedup.Options{}, err
		}
		m = probdedup.BlockingCertain{Key: def}
	}
	return probdedup.Options{
		Compare: compare,
		AltModel: probdedup.WeightedSumModel{
			Weights: cliopts.EqualWeights(len(schema)),
			T:       probdedup.Thresholds{Lambda: 0.4, Mu: 0.7},
		},
		Final:      probdedup.Thresholds{Lambda: ec.lambda, Mu: ec.mu},
		Derivation: derive,
		Reduction:  m,
		Workers:    1,
		PreFilter:  ec.prefilter,
	}, nil
}

// declared is a classified pair set restricted to M and P: pair key
// "a\x00b" (a < b) → class letter.
type declared map[string]string

func pairKey(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "\x00" + b
}

func declaredOf(res *probdedup.Result) declared {
	d := declared{}
	for p := range res.Matches {
		d[pairKey(p.A, p.B)] = "m"
	}
	for p := range res.Possible {
		d[pairKey(p.A, p.B)] = "p"
	}
	return d
}

// diff describes the first few differences between want and got, or
// returns "" when they are equal.
func (want declared) diff(got declared) string {
	var out []string
	for k, c := range want {
		if got[k] != c {
			out = append(out, fmt.Sprintf("pair %q: want %s, got %q", k, c, got[k]))
		}
	}
	for k, c := range got {
		if _, ok := want[k]; !ok {
			out = append(out, fmt.Sprintf("pair %q: unexpected %s", k, c))
		}
	}
	if len(out) == 0 {
		return ""
	}
	sort.Strings(out)
	if len(out) > 3 {
		out = append(out[:3], fmt.Sprintf("... %d differences", len(out)))
	}
	return fmt.Sprint(out)
}

// streamDeclared runs DetectStream and collects its M/P set. Like every
// timed library call here it starts from a fresh collection, so the
// garbage of earlier phases is not charged to it.
func streamDeclared(xr *probdedup.XRelation, opts probdedup.Options) (declared, probdedup.StreamStats, time.Duration, error) {
	d := declared{}
	runtime.GC()
	t0 := time.Now()
	st, err := probdedup.DetectStream(xr, opts, func(m probdedup.PairMatch) bool {
		if m.Class != probdedup.ClassU {
			d[pairKey(m.Pair.A, m.Pair.B)] = m.Class.String()
		}
		return true
	})
	return d, st, time.Since(t0), err
}

// bulkLoad times NewDetector + AddBatch(all) + Flush and reports the
// bytes allocated and the GC's share of CPU time meanwhile.
type bulkResult struct {
	wall    time.Duration
	allocMB float64
	gcShare float64
	flush   *probdedup.Result
	stats   probdedup.DetectorStats
	det     *probdedup.Detector
}

func bulkLoad(xr *probdedup.XRelation, opts probdedup.Options) (bulkResult, error) {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, all0 := cpuSeconds()
	t0 := time.Now()
	det, err := probdedup.NewDetector(xr.Schema, opts, nil)
	if err != nil {
		return bulkResult{}, err
	}
	if err := det.AddBatch(xr.Tuples); err != nil {
		return bulkResult{}, err
	}
	flush := det.Flush()
	wall := time.Since(t0)
	gc1, all1 := cpuSeconds()
	runtime.ReadMemStats(&ms1)
	return bulkResult{
		wall:    wall,
		allocMB: float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
		gcShare: ratio(gc1-gc0, all1-all0),
		flush:   flush,
		stats:   det.Stats(),
		det:     det,
	}, nil
}

// cpuSeconds reads the runtime's cumulative GC and total CPU time.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// reopenReps is how often durableRecover reopens the same state; a
// reopen is short, so the median needs more of them than a bulk-load.
const reopenReps = 7

// durableRecover writes xr into a fresh durable state dir, closes it
// (a checkpoint), then reopens it reopenReps times and returns the median
// time until every resident is back.
func durableRecover(dir string, xr *probdedup.XRelation, opts probdedup.Options) (time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	d, err := probdedup.OpenDurable(dir, xr.Schema, opts, nil)
	if err != nil {
		return 0, err
	}
	if err := d.AddBatch(xr.Tuples); err != nil {
		d.Close()
		return 0, err
	}
	if err := d.Close(); err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < reopenReps; i++ {
		runtime.GC()
		t0 := time.Now()
		d, err := probdedup.OpenDurable(dir, xr.Schema, opts, nil)
		if err != nil {
			return 0, err
		}
		n := d.Len()
		times = append(times, time.Since(t0).Seconds())
		if err := d.Close(); err != nil {
			return 0, err
		}
		if n != len(xr.Tuples) {
			return 0, fmt.Errorf("durable reopen recovered %d residents, want %d", n, len(xr.Tuples))
		}
	}
	return time.Duration(median(times) * float64(time.Second)), nil
}

// rankedPrefix is how many tuples the SNMRanked (ExpectedRank)
// bulk-load runs on: its bulk-load is quadratic, so it is timed on a
// prefix and reported on its own.
const rankedPrefix = 1250

// rankedBulkLoad times the SNMRanked bulk-load and DetectStream on the
// first rankedPrefix tuples of xr and checks Flush ≡ DetectStream.
func (r *run) rankedBulkLoad(xr *probdedup.XRelation, ec engineConfig) (bulk, stream time.Duration, err error) {
	opts, err := methodOptions(ec, xr.Schema, "snm-ranked")
	if err != nil {
		return 0, 0, err
	}
	prefix := probdedup.NewXRelation("prefix", xr.Schema...)
	for _, x := range xr.Tuples[:min(rankedPrefix, len(xr.Tuples))] {
		prefix.Append(x)
	}
	want, _, st, err := streamDeclared(prefix, opts)
	if err != nil {
		return 0, 0, err
	}
	b, err := bulkLoad(prefix, opts)
	if err != nil {
		return 0, 0, err
	}
	if d := want.diff(declaredOf(b.flush)); d != "" {
		r.fail("snm-ranked Flush differs from DetectStream: %s", d)
	}
	return b.wall, st, nil
}

// ---- small statistics helpers ----

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func stateDir(r *run, name string) string {
	return filepath.Join(r.workdir, "state", fmt.Sprintf("%s-%d-%s", r.workload, os.Getpid(), name))
}
