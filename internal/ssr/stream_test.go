package ssr

import (
	"testing"

	"probdedup/internal/dataset"
	"probdedup/internal/keys"
	"probdedup/internal/paperdata"
	"probdedup/internal/pdb"
	"probdedup/internal/verify"
)

// streamMethods returns every reduction method of the package,
// configured against the given schema.
func streamMethods(def keys.Def) []Method {
	prune := Pruning{MaxDiff: map[int]int{0: 4}}
	return []Method{
		CrossProduct{},
		SNMMultiPass{Key: def, Window: 3, Select: TopWorlds, K: 4},
		SNMCertain{Key: def, Window: 3},
		SNMAlternatives{Key: def, Window: 3},
		SNMRanked{Key: def, Window: 3},
		SNMRanked{Key: def, Window: 3, Strategy: MedianKey},
		BlockingCertain{Key: def},
		BlockingAlternatives{Key: def},
		BlockingCluster{Key: def, K: 8, Seed: 1},
		prune,
		NewFilter(SNMAlternatives{Key: def, Window: 3}, prune),
	}
}

func streamCorpus(t *testing.T) (*pdb.XRelation, keys.Def) {
	t.Helper()
	d := dataset.Generate(dataset.DefaultConfig(40, 7))
	u := d.Union()
	def, err := keys.ParseDef("name:3+job:2", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	return u, def
}

// TestStreamMatchesCandidates asserts for every method that the
// streamed pairs equal the materialized set, with no pair yielded
// twice.
func TestStreamMatchesCandidates(t *testing.T) {
	u, def := streamCorpus(t)
	for _, m := range streamMethods(def) {
		s, ok := m.(Streamer)
		if !ok {
			t.Fatalf("%s does not stream", m.Name())
		}
		want := m.Candidates(u)
		got := verify.PairSet{}
		completed := s.EnumeratePairs(u, func(p verify.Pair) bool {
			if got[p] {
				t.Fatalf("%s: pair %v yielded twice", m.Name(), p)
			}
			if p != verify.NewPair(p.A, p.B) {
				t.Fatalf("%s: pair %v not canonical", m.Name(), p)
			}
			got[p] = true
			return true
		})
		if !completed {
			t.Fatalf("%s: enumeration reported an early stop", m.Name())
		}
		if len(got) != len(want) {
			t.Fatalf("%s: streamed %d pairs, candidates %d", m.Name(), len(got), len(want))
		}
		for p := range want {
			if !got[p] {
				t.Fatalf("%s: pair %v missing from stream", m.Name(), p)
			}
		}
	}
}

// TestStreamEarlyStop asserts that yield returning false stops the
// enumeration immediately and is reported by the return value.
func TestStreamEarlyStop(t *testing.T) {
	u, def := streamCorpus(t)
	for _, m := range streamMethods(def) {
		s := m.(Streamer)
		if len(m.Candidates(u)) < 2 {
			continue
		}
		seen := 0
		completed := s.EnumeratePairs(u, func(verify.Pair) bool {
			seen++
			return seen < 2
		})
		if completed {
			t.Fatalf("%s: early stop not reported", m.Name())
		}
		if seen != 2 {
			t.Fatalf("%s: %d pairs yielded after stop at 2", m.Name(), seen)
		}
	}
}

// TestBlockingEnumeratesEachPairOnce asserts for every blocking
// variant that the block-by-block enumeration yields no pair twice —
// the invariant that lets it skip a global executed set — and covers
// Candidates.
func TestBlockingEnumeratesEachPairOnce(t *testing.T) {
	u, def := streamCorpus(t)
	for _, m := range []Streamer{
		BlockingCertain{Key: def},
		BlockingAlternatives{Key: def},
		BlockingCluster{Key: def, K: 8, Seed: 1},
	} {
		want := m.Candidates(u)
		got := verify.PairSet{}
		m.EnumeratePairs(u, func(p verify.Pair) bool {
			if got[p] {
				t.Fatalf("%s: pair %v yielded twice", m.Name(), p)
			}
			got[p] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("%s: enumerated %d pairs, candidates %d", m.Name(), len(got), len(want))
		}
		for p := range want {
			if !got[p] {
				t.Fatalf("%s: pair %v missing from the enumeration", m.Name(), p)
			}
		}
	}
}

// TestBlockingAlternativesSharedBlocks pins the canonical-block rule
// on a handcrafted relation where two tuples share two blocks: the
// pair must surface exactly once.
func TestBlockingAlternativesSharedBlocks(t *testing.T) {
	xr := pdb.NewXRelation("shared", "name")
	xr.Append(pdb.NewXTuple("t1", pdb.NewAlt(0.5, "anna"), pdb.NewAlt(0.5, "berta")))
	xr.Append(pdb.NewXTuple("t2", pdb.NewAlt(0.5, "anna"), pdb.NewAlt(0.5, "berta")))
	def := keys.NewDef(keys.Part{Attr: 0, Prefix: 3})
	m := BlockingAlternatives{Key: def}

	if blocks := m.Blocks(xr); len(blocks["ann"]) != 2 || len(blocks["ber"]) != 2 {
		t.Fatalf("blocks %v, want both tuples in 'ann' and 'ber'", blocks)
	}
	var yielded []verify.Pair
	m.EnumeratePairs(xr, func(p verify.Pair) bool {
		yielded = append(yielded, p)
		return true
	})
	if len(yielded) != 1 || yielded[0] != verify.NewPair("t1", "t2") {
		t.Fatalf("yielded %v, want the pair exactly once", yielded)
	}
}

// TestStreamOfAdapter wraps a plain Method (no Streamer) and asserts
// the adapter replays the candidate set.
func TestStreamOfAdapter(t *testing.T) {
	u := paperdata.R34()
	m := plainMethod{}
	if _, ok := Method(m).(Streamer); ok {
		t.Fatal("plainMethod must not implement Streamer for this test")
	}
	s := StreamOf(m)
	got := verify.PairSet{}
	s.EnumeratePairs(u, func(p verify.Pair) bool {
		got[p] = true
		return true
	})
	want := m.Candidates(u)
	if len(got) != len(want) {
		t.Fatalf("adapter streamed %d pairs, want %d", len(got), len(want))
	}
	// Early stop through the adapter.
	n := 0
	if s.EnumeratePairs(u, func(verify.Pair) bool { n++; return false }) {
		t.Fatal("adapter must report early stop")
	}
	if n != 1 {
		t.Fatalf("adapter yielded %d pairs after stop", n)
	}
	// A Streamer passes through unchanged.
	if _, adapted := StreamOf(CrossProduct{}).(adaptedStreamer); adapted {
		t.Fatal("StreamOf must not wrap a native Streamer")
	}
	// A nil method streams the cross product, like the engine's nil
	// Options.Reduction default.
	nilPairs := 0
	StreamOf(nil).EnumeratePairs(u, func(verify.Pair) bool { nilPairs++; return true })
	if want := TotalPairs(len(u.Tuples)); nilPairs != want {
		t.Fatalf("StreamOf(nil) yielded %d pairs, want cross product %d", nilPairs, want)
	}
}

// plainMethod is a Method without streaming support: the first and
// last tuple form the only candidate pair.
type plainMethod struct{}

func (plainMethod) Name() string { return "plain" }

func (plainMethod) Candidates(xr *pdb.XRelation) verify.PairSet {
	s := verify.PairSet{}
	if n := len(xr.Tuples); n > 1 {
		s.Add(xr.Tuples[0].ID, xr.Tuples[n-1].ID)
	}
	return s
}

// TestFilterDropsForeignPairs pins the Filter's set-intersection
// semantics: a wrapped method emitting pairs with IDs outside the
// relation has them dropped silently, as in the materialized path.
func TestFilterDropsForeignPairs(t *testing.T) {
	u, _ := streamCorpus(t)
	f := NewFilter(foreignPairMethod{}, Pruning{MaxDiff: map[int]int{0: 100}})
	if c := f.Candidates(u); len(c) != 0 {
		t.Fatalf("foreign pairs survived the filter: %v", c.Sorted())
	}
	n := 0
	f.EnumeratePairs(u, func(verify.Pair) bool { n++; return true })
	if n != 0 {
		t.Fatalf("stream yielded %d foreign pairs", n)
	}
}

// foreignPairMethod emits a pair referencing IDs outside the relation.
type foreignPairMethod struct{}

func (foreignPairMethod) Name() string { return "foreign" }

func (foreignPairMethod) Candidates(*pdb.XRelation) verify.PairSet {
	return verify.NewPairSet(verify.Pair{A: "ghost-a", B: "ghost-b"})
}

// TestTotalPairs checks the arithmetic pair count against AllPairs.
func TestTotalPairs(t *testing.T) {
	u, _ := streamCorpus(t)
	if got, want := TotalPairs(len(u.Tuples)), len(AllPairs(u)); got != want {
		t.Fatalf("TotalPairs(%d) = %d, want %d", len(u.Tuples), got, want)
	}
	for n, want := range map[int]int{0: 0, 1: 0, 2: 1, 5: 10, 6: 15} {
		if got := TotalPairs(n); got != want {
			t.Fatalf("TotalPairs(%d) = %d, want %d", n, got, want)
		}
	}
}
