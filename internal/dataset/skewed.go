package dataset

import (
	"fmt"
	"math/rand"

	"probdedup/internal/pdb"
)

// SkewedCorpus is the deterministic skewed-key corpus of the pre-filter
// scale measurements: half the residents land in hot blocks of ~192
// members, the rest in cold blocks of 16, under the blocking key
// "block:8", so every arrival is enumerated against hundreds of
// candidates of which almost none can reach the decision threshold.
// Arrivals target hot blocks only — the skew is the point.
type SkewedCorpus struct {
	Schema    []string
	Residents []*pdb.XTuple
	Arrivals  []*pdb.XTuple
}

const (
	skewedHotBlock  = 192
	skewedColdBlock = 16
	skewedDupFrac   = 0.02
	skewedAltFrac   = 0.3
)

// Skewed builds a SkewedCorpus of n residents plus the given number of
// arrivals. Names and jobs are long random strings (36–60 chars, think
// titles or street addresses) with essentially no shared q-grams across
// distinct entities: verification cost per pair is quadratic, while a
// non-duplicate pair is provably below the threshold from precomputed
// symbol statistics alone. A small duplicate fraction (near-identical
// name, same job and block) keeps real matches flowing, and 30% of the
// other tuples carry two alternatives with distinct names.
func Skewed(n, arrivals int, seed int64) SkewedCorpus {
	rng := rand.New(rand.NewSource(seed))
	hotBlocks := max(n/2/skewedHotBlock, 1)
	randWord := func() string {
		b := make([]byte, 36+rng.Intn(25))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	var prevName, prevJob, prevBlock string
	mk := func(id int, block string) *pdb.XTuple {
		xid := fmt.Sprintf("t%07d", id)
		// A duplicate repeats its predecessor's values with one edit in
		// the name — same block, so a blocking reduction enumerates the
		// pair and a sound filter must let it through.
		if prevName != "" && rng.Float64() < skewedDupFrac && prevBlock == block {
			prevName += "x"
			return pdb.NewXTuple(xid, pdb.NewAlt(1, prevName, prevJob, block))
		}
		prevName, prevJob, prevBlock = randWord(), randWord(), block
		if rng.Float64() < skewedAltFrac {
			return pdb.NewXTuple(xid,
				pdb.NewAlt(0.7, prevName, prevJob, block),
				pdb.NewAlt(0.3, randWord(), prevJob, block))
		}
		return pdb.NewXTuple(xid, pdb.NewAlt(1, prevName, prevJob, block))
	}
	c := SkewedCorpus{Schema: []string{"name", "job", "block"}}
	for i := 0; i < n; i++ {
		block := fmt.Sprintf("c%07d", (i-n/2)/skewedColdBlock)
		if i < n/2 {
			block = fmt.Sprintf("h%07d", i/skewedHotBlock)
		}
		c.Residents = append(c.Residents, mk(i, block))
	}
	for i := 0; i < arrivals; i++ {
		c.Arrivals = append(c.Arrivals, mk(n+i, fmt.Sprintf("h%07d", rng.Intn(hotBlocks))))
	}
	return c
}
