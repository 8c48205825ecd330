package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"probdedup/internal/decision"
	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/ssr"
	"probdedup/internal/strsim"
	"probdedup/internal/verify"
)

// foldDeltas returns an emit callback folding the delta stream into
// set, plus the set. The callback deliberately uses no synchronization
// of its own: the detector guarantees sequential invocation, and the
// race detector verifies that guarantee in the concurrent tests.
func foldDeltas() (func(MatchDelta) bool, map[verify.Pair]Match) {
	folded := map[verify.Pair]Match{}
	return func(md MatchDelta) bool {
		if md.Kind == DeltaDrop {
			delete(folded, md.Pair)
		} else {
			folded[md.Pair] = md.Match
		}
		return true
	}, folded
}

// TestDetectorAddBatchParallelEquivalence is the tentpole determinism
// proof: for every incremental-capable reduction, parallel AddBatch
// (Workers=4, whole relation and chunked) ≡ a sequential Add loop
// (Workers=1) ≡ batch Detect on the same shuffled relation — and the
// net delta stream emitted by the batched path folds to the flushed
// state.
func TestDetectorAddBatchParallelEquivalence(t *testing.T) {
	u := shuffledUnion(t, 40, 13)
	for name, reduction := range incrementalReductions(t, u.Schema) {
		t.Run(name, func(t *testing.T) {
			opts := incrementalOpts(reduction)
			batch, err := Detect(u, opts)
			if err != nil {
				t.Fatal(err)
			}

			seqOpts := opts
			seqOpts.Workers = 1
			seq, err := NewDetector(u.Schema, seqOpts, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range u.Tuples {
				if err := seq.Add(x); err != nil {
					t.Fatal(err)
				}
			}
			sameResult(t, seq.Flush(), batch)

			for _, chunk := range []int{len(u.Tuples), 7} {
				emit, folded := foldDeltas()
				par, err := NewDetector(u.Schema, opts, emit)
				if err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo < len(u.Tuples); lo += chunk {
					hi := min(lo+chunk, len(u.Tuples))
					if err := par.AddBatch(u.Tuples[lo:hi]); err != nil {
						t.Fatal(err)
					}
				}
				res := par.Flush()
				sameResult(t, res, batch)
				if len(folded) != len(res.ByPair) {
					t.Fatalf("chunk %d: folded deltas hold %d pairs, flush %d", chunk, len(folded), len(res.ByPair))
				}
				for p, m := range folded {
					if rm := res.ByPair[p]; rm != m {
						t.Fatalf("chunk %d: folded pair %v = %+v, flush %+v", chunk, p, m, rm)
					}
				}
			}
		})
	}
}

// TestDetectorEmitReentrancy is the deadlock regression test for the
// emit-outside-lock contract: a callback that re-enters the detector
// — Stats, Len, Flush, and a follow-up Add — must complete instead of
// deadlocking on the state lock. The whole scenario runs under a
// timeout guard so a regression fails fast instead of hanging the
// suite.
func TestDetectorEmitReentrancy(t *testing.T) {
	schema := []string{"name", "job", "age"}
	opts := incrementalOpts(nil)
	done := make(chan error, 1)
	go func() {
		var det *Detector
		var reentered atomic.Bool
		var deltas atomic.Int64
		emit := func(md MatchDelta) bool {
			deltas.Add(1)
			// Re-enter through every read path on every delta…
			st := det.Stats()
			if st.Residents != det.Len() {
				done <- fmt.Errorf("re-entrant Stats/Len disagree: %d vs %d", st.Residents, det.Len())
				return false
			}
			det.Flush()
			// …and through the mutating paths exactly once.
			if reentered.CompareAndSwap(false, true) {
				if err := det.Add(pdb.NewXTuple("reentrant", pdb.NewAlt(1, "Johnson", "pilot", "44"))); err != nil {
					done <- fmt.Errorf("re-entrant Add: %w", err)
					return false
				}
			}
			return true
		}
		var err error
		det, err = NewDetector(schema, opts, emit)
		if err != nil {
			done <- err
			return
		}
		if err := det.AddBatch([]*pdb.XTuple{
			pdb.NewXTuple("a", pdb.NewAlt(1, "Johnson", "pilot", "44")),
			pdb.NewXTuple("b", pdb.NewAlt(1, "Johnson", "pilot", "44")),
			pdb.NewXTuple("c", pdb.NewAlt(1, "Jonson", "pilot", "44")),
		}); err != nil {
			done <- err
			return
		}
		if n := deltas.Load(); n == 0 {
			done <- errors.New("no deltas delivered")
			return
		}
		// The re-entrant tuple became resident and its deltas (pairs
		// with a, b, c) were delivered by the active drainer.
		if det.Len() != 4 {
			done <- fmt.Errorf("residents = %d, want 4 (re-entrant Add lost)", det.Len())
			return
		}
		if live := det.Stats().Live; live != 6 {
			done <- fmt.Errorf("live pairs = %d, want 6 (cross product over 4 tuples)", live)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: re-entrant emit callback did not complete within 30s")
	}
}

// TestDetectorAddBatchPartialApply pins the BatchError contract down:
// AddBatch stops at the first invalid tuple, reports its batch
// position through a typed *BatchError, and leaves exactly the
// successful prefix resident — equivalent to having added the prefix
// alone.
func TestDetectorAddBatchPartialApply(t *testing.T) {
	schema := []string{"name", "job", "age"}
	mk := func(id, name string) *pdb.XTuple {
		return pdb.NewXTuple(id, pdb.NewAlt(1, name, "pilot", "44"))
	}
	for _, tc := range []struct {
		name  string
		batch []*pdb.XTuple
		index int
		cause string
	}{
		{
			name: "arity",
			batch: []*pdb.XTuple{
				mk("a", "Johnson"), mk("b", "Jonson"),
				pdb.NewXTuple("short", pdb.NewAlt(1, "only-one-attr")),
				mk("d", "Johnsen"),
			},
			index: 2,
			cause: "attributes",
		},
		{
			name: "nil tuple",
			batch: []*pdb.XTuple{
				mk("a", "Johnson"), nil, mk("c", "Jonson"),
			},
			index: 1,
			cause: "nil",
		},
		{
			name: "intra-batch duplicate ID",
			batch: []*pdb.XTuple{
				mk("a", "Johnson"), mk("b", "Jonson"), mk("a", "Miller"), mk("d", "Johnsen"),
			},
			index: 2,
			cause: "duplicate",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := incrementalOpts(nil)
			det, err := NewDetector(schema, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			err = det.AddBatch(tc.batch)
			var be *BatchError
			if !errors.As(err, &be) {
				t.Fatalf("error %v (%T) is not a *BatchError", err, err)
			}
			if be.Index != tc.index {
				t.Fatalf("BatchError.Index = %d, want %d", be.Index, tc.index)
			}
			if !strings.Contains(be.Err.Error(), tc.cause) {
				t.Fatalf("cause %q does not mention %q", be.Err, tc.cause)
			}
			if det.Len() != tc.index {
				t.Fatalf("residents = %d, want the successful prefix %d", det.Len(), tc.index)
			}

			// The flushed state equals a detector fed the prefix alone.
			want, err := NewDetector(schema, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := want.AddBatch(tc.batch[:tc.index]); err != nil {
				t.Fatal(err)
			}
			sameResult(t, det.Flush(), want.Flush())

			// The detector stays usable after the failure.
			if err := det.Add(mk("later", "Johnson")); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDetectorRemoveUnknownID makes the not-found behavior explicit:
// remove-before-add and remove-twice both fail with ErrUnknownID and
// change nothing.
func TestDetectorRemoveUnknownID(t *testing.T) {
	schema := []string{"name", "job", "age"}
	det, err := NewDetector(schema, incrementalOpts(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Remove("never-added"); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("remove-before-add: error %v does not wrap ErrUnknownID", err)
	}
	x := pdb.NewXTuple("a", pdb.NewAlt(1, "Johnson", "pilot", "44"))
	if err := det.Add(x); err != nil {
		t.Fatal(err)
	}
	if err := det.Add(pdb.NewXTuple("b", pdb.NewAlt(1, "Jonson", "pilot", "44"))); err != nil {
		t.Fatal(err)
	}
	if err := det.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := det.Remove("a"); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("remove-twice: error %v does not wrap ErrUnknownID", err)
	}
	if st := det.Stats(); st.Residents != 1 || st.Live != 0 {
		t.Fatalf("failed removals changed state: %+v", st)
	}
}

// TestDetectorConcurrentCallers races Add, AddBatch, Remove, Flush,
// Stats and Len on one detector from several goroutines under the
// race detector, with an emit callback that folds the delta stream
// WITHOUT synchronization of its own — validating the sequential
// emit-invocation guarantee. Each goroutine owns a disjoint ID
// partition so the surviving resident set is deterministic; the final
// Flush must equal batch Detect over the survivors. Reductions whose
// candidate set is insertion-order independent (blocking, cross
// product) keep the oracle exact under arbitrary interleavings.
func TestDetectorConcurrentCallers(t *testing.T) {
	u := shuffledUnion(t, 36, 19)
	def, err := keys.ParseDef("name:3+job:2", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	for name, reduction := range map[string]ssr.Method{
		"cross-product":    nil,
		"blocking-certain": ssr.BlockingCertain{Key: def},
	} {
		t.Run(name, func(t *testing.T) {
			opts := incrementalOpts(reduction)
			emit, folded := foldDeltas()
			var inCallback atomic.Bool
			guarded := func(md MatchDelta) bool {
				if !inCallback.CompareAndSwap(false, true) {
					t.Error("emit callback invoked concurrently with itself")
				}
				defer inCallback.Store(false)
				return emit(md)
			}
			det, err := NewDetector(u.Schema, opts, guarded)
			if err != nil {
				t.Fatal(err)
			}

			const workers = 4
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var mine []*pdb.XTuple
					for i := g; i < len(u.Tuples); i += workers {
						mine = append(mine, u.Tuples[i])
					}
					// Half arrives one at a time, half as one batch;
					// every third of the singles is retired again.
					half := len(mine) / 2
					for j, x := range mine[:half] {
						if err := det.Add(x); err != nil {
							t.Error(err)
							return
						}
						if j%3 == 0 {
							if err := det.Remove(x.ID); err != nil {
								t.Error(err)
								return
							}
						}
						det.Stats()
						det.Len()
					}
					if err := det.AddBatch(mine[half:]); err != nil {
						t.Error(err)
						return
					}
					det.Flush()
				}(g)
			}
			wg.Wait()

			// Deterministic survivor set: per goroutine, the first
			// half loses every third tuple.
			rest := pdb.NewXRelation(u.Name, u.Schema...)
			for g := 0; g < workers; g++ {
				var mine []*pdb.XTuple
				for i := g; i < len(u.Tuples); i += workers {
					mine = append(mine, u.Tuples[i])
				}
				half := len(mine) / 2
				for j, x := range mine[:half] {
					if j%3 != 0 {
						rest.Append(x)
					}
				}
				rest.Append(mine[half:]...)
			}
			batch, err := Detect(rest, opts)
			if err != nil {
				t.Fatal(err)
			}
			res := det.Flush()
			sameResult(t, res, batch)
			if len(folded) != len(res.ByPair) {
				t.Fatalf("folded deltas hold %d pairs, flush %d", len(folded), len(res.ByPair))
			}
			for p, m := range folded {
				if rm := res.ByPair[p]; rm != m {
					t.Fatalf("folded pair %v = %+v, flush %+v", p, m, rm)
				}
			}
		})
	}
}

// churnyIndex wraps the cross-product index and, once a first pair
// exists, prefixes every later insertion's deltas with a
// drop-then-re-add of that pair. That sequence is legal under the
// IncrementalIndex contract (the maintained set ends up identical —
// deltas per pair alternate) and is exactly the shape the chunked
// verification must not mishandle: the re-add needs a comparison
// because the pair is retracted by the time it applies, even though
// it is live when the chunk is collected. With split set, the churn
// is stretched (one inner delta, then drop/re-add rounds) so that the
// final drop is the last delta of the first verification chunk and
// the re-add the first delta of the second.
type churnyIndex struct {
	inner ssr.IncrementalIndex
	first *verify.Pair
	split bool
	// splitSeen records that a split insertion put the drop and the
	// re-add on either side of a chunk boundary.
	splitSeen bool
}

func (c *churnyIndex) Insert(x *pdb.XTuple, yield func(ssr.PairDelta) bool) bool {
	first := c.first
	var inner, out []ssr.PairDelta
	c.inner.Insert(x, func(pd ssr.PairDelta) bool {
		if c.first == nil && !pd.Dropped {
			p := pd.Pair
			c.first = &p
		}
		inner = append(inner, pd)
		return true
	})
	if first != nil {
		churn := []ssr.PairDelta{{Pair: *first, Dropped: true}, {Pair: *first}}
		if c.split && len(inner) > 0 {
			out, inner = append(out, inner[0]), inner[1:]
			for len(out) < verifyChunk-1 {
				out = append(out, churn...)
			}
			c.splitSeen = c.splitSeen || len(out) == verifyChunk-1
		}
		out = append(out, churn...)
	}
	for _, pd := range append(out, inner...) {
		if !yield(pd) {
			return false
		}
	}
	return true
}

func (c *churnyIndex) Remove(id string, yield func(ssr.PairDelta) bool) bool {
	return c.inner.Remove(id, yield)
}

func (c *churnyIndex) Len() int { return c.inner.Len() }

// churnyMethod is a user-defined IncrementalMethod built on the cross
// product.
type churnyMethod struct {
	ssr.CrossProduct
	split bool
}

func (m churnyMethod) Incremental() (ssr.IncrementalIndex, error) {
	inner, err := ssr.CrossProduct{}.Incremental()
	if err != nil {
		return nil, err
	}
	return &churnyIndex{inner: inner, split: m.split}, nil
}

// TestDetectorParallelDropReAddDelta is the regression test for the
// chunked verification against a user-defined index that drops and
// re-adds one pair within a single delta sequence — inside one apply
// chunk, and (split) across a chunk boundary: the classified state
// must be identical at Workers 1 and 4 (the re-added pair is
// re-compared either way), and the churned pair must survive.
func TestDetectorParallelDropReAddDelta(t *testing.T) {
	u := shuffledUnion(t, 25, 31)
	var want *Result
	for _, split := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			opts := incrementalOpts(churnyMethod{split: split})
			opts.Workers = workers
			det, err := NewDetector(u.Schema, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Single Adds: later insertions each yield enough cross-product
			// deltas (plus the churn prefix) to cross the inline threshold,
			// so the Workers=4 run exercises the parallel path.
			for _, x := range u.Tuples {
				if err := det.Add(x); err != nil {
					t.Fatal(err)
				}
			}
			if split && !det.idx.(*churnyIndex).splitSeen {
				t.Fatalf("workers=%d: no insertion split the drop and the re-add across chunks", workers)
			}
			got := det.Flush()
			if want == nil {
				want = got
				if len(want.Compared) != ssr.TotalPairs(len(u.Tuples)) {
					t.Fatalf("sequential run holds %d pairs, want the full cross product %d",
						len(want.Compared), ssr.TotalPairs(len(u.Tuples)))
				}
				continue
			}
			sameResult(t, got, want)
		}
	}
}

// TestDetectorWorkersDoNotChangeDeltaStream checks the documented
// contract that Workers only changes throughput: the same AddBatch
// sequence emits the identical net delta stream (same pairs, same
// payloads) at Workers 1 and 4 — order included, because state
// updates are applied sequentially in delta order either way.
func TestDetectorWorkersDoNotChangeDeltaStream(t *testing.T) {
	u := shuffledUnion(t, 30, 23)
	def, err := keys.ParseDef("name:3+job:2", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	streams := map[int][]MatchDelta{}
	for _, workers := range []int{1, 4} {
		opts := Options{
			Compare:   []strsim.Func{strsim.Levenshtein, strsim.Levenshtein, strsim.Levenshtein},
			Reduction: ssr.SNMCertain{Key: def, Window: 4},
			Final:     decision.Thresholds{Lambda: 0.6, Mu: 0.8},
			Workers:   workers,
		}
		var got []MatchDelta
		det, err := NewDetector(u.Schema, opts, func(md MatchDelta) bool {
			got = append(got, md)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := det.AddBatch(u.Tuples); err != nil {
			t.Fatal(err)
		}
		streams[workers] = got
	}
	if len(streams[1]) != len(streams[4]) {
		t.Fatalf("delta stream lengths differ: %d (workers=1) vs %d (workers=4)", len(streams[1]), len(streams[4]))
	}
	for i := range streams[1] {
		if streams[1][i] != streams[4][i] {
			t.Fatalf("delta %d differs: %+v (workers=1) vs %+v (workers=4)", i, streams[1][i], streams[4][i])
		}
	}
}
