package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"probdedup/internal/avm"
	"probdedup/internal/decision"
	"probdedup/internal/pdb"
	"probdedup/internal/prepare"
	"probdedup/internal/ssr"
	"probdedup/internal/strsim"
	"probdedup/internal/sym"
	"probdedup/internal/verify"
	"probdedup/internal/xmatch"
)

// StreamStats summarizes a DetectStream run.
type StreamStats struct {
	// Compared counts the candidate pairs emitted.
	Compared int
	// Matches and Possible count the pairs classified M and P.
	Matches, Possible int
	// TotalPairs is the unreduced search-space size n(n-1)/2, computed
	// arithmetically — the full cross product is never materialized.
	TotalPairs int
	// Stopped reports that the emit callback ended the run early.
	Stopped bool
	// Cache holds the end-of-run counters of the shared similarity
	// cache — entries, capacity, hits, misses, evictions (zero value
	// when memoization was disabled via Options.CacheCapacity < 0).
	Cache avm.CacheStats
	// Enumerated counts the candidate pairs the reduction produced:
	// Compared plus Filtered. Pairs past an early stop or an error are
	// not counted, even when they were verified ahead in their chunk,
	// so the counters are identical at every worker count.
	Enumerated int
	// Filtered counts the enumerated pairs the pre-filter rejected as
	// provable non-matches (0 when the filter is off or inert).
	Filtered int
	// FilterActive reports whether the candidate pre-filter was
	// constructed and consulted (Options.PreFilter set and the
	// configuration boundable).
	FilterActive bool
}

// engine is the validated, defaulted configuration shared by the
// streaming and the materializing entry points.
type engine struct {
	xr          *pdb.XRelation
	byID        map[string]*pdb.XTuple
	reduction   ssr.Method
	newComparer func() *xmatch.Comparer
	workers     int
	// comparers is the lazily grown per-worker comparer pool of
	// verifyAll; comparers[0] serves the inline path.
	comparers []*xmatch.Comparer
	// cache is the run's shared similarity memo (nil when disabled);
	// every worker's matcher writes into and reads from it.
	cache *avm.Cache
	// symtab is the run's symbol plane (nil when neither the cache nor
	// the pre-filter wants interned values): every standardized value
	// is interned once and annotated with its dense symbol.
	symtab *sym.Table
	// filter is the sound candidate pre-filter (nil when off or when
	// the configuration cannot be bounded).
	filter *ssr.PreFilter
}

// newEngine validates the options and applies the defaults documented
// on Options (steps A and the step-C prerequisites of the pipeline).
func newEngine(xr *pdb.XRelation, opts Options) (*engine, error) {
	if err := xr.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := opts.Final.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Step A: data preparation.
	if opts.Standardizer != nil {
		xr = opts.Standardizer.XRelation(xr)
	}

	// The run-wide symbol plane: intern every standardized value so the
	// similarity cache keys value pairs by symbol and the pre-filter
	// reads precomputed stats. Gram statistics are only computed when
	// the pre-filter consumes them. Without a Standardizer the relation
	// is still the caller's — clone before the interning pass replaces
	// value annotations. A detector's relation starts empty; its
	// arrivals are interned in prepareTuple.
	var symtab *sym.Table
	if opts.PreFilter || opts.CacheCapacity >= 0 {
		q := 0
		if opts.PreFilter {
			q = opts.FilterQ
			if q <= 0 {
				q = 2
			}
		}
		symtab = sym.NewTable(q)
		if opts.Standardizer == nil {
			xr = xr.Clone()
		}
		prepare.InternXRelation(symtab, xr)
	}

	// Step C prerequisites: comparison functions.
	compare := opts.Compare
	if len(compare) == 0 {
		compare = make([]strsim.Func, len(xr.Schema))
		for i := range compare {
			compare[i] = strsim.NormalizedHamming
		}
	}
	if len(compare) != len(xr.Schema) {
		return nil, fmt.Errorf("core: %d comparison functions for %d attributes", len(compare), len(xr.Schema))
	}

	altModel := opts.AltModel
	if altModel == nil {
		// The explicit weighted-sum model is bit-identical to
		// SimpleModel{Phi: WeightedSum(equal weights)} and, unlike the
		// closure, exposes its structure to the pre-filter's bounds.
		altModel = decision.WeightedSumModel{
			Weights: decision.EqualWeights(len(xr.Schema)),
			T:       opts.Final,
		}
	}
	// Reject weight/schema arity mismatches here instead of letting them
	// skew (or panic in) every comparison.
	if err := decision.ValidateArity(altModel, len(xr.Schema)); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	derive := opts.Derivation
	if derive == nil {
		derive = xmatch.SimilarityBased{Conditioned: true}
	}

	byID := make(map[string]*pdb.XTuple, len(xr.Tuples))
	for _, x := range xr.Tuples {
		byID[x.ID] = x
	}

	var reduction ssr.Method = opts.Reduction
	if reduction == nil {
		reduction = ssr.CrossProduct{}
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}

	// One bounded similarity cache per run, shared by every worker's
	// matcher: total memo memory is capped by CacheCapacity no matter
	// how many workers run, and a value pair computed by one worker is
	// a hit for all others.
	var cache *avm.Cache
	if opts.CacheCapacity >= 0 {
		cache = avm.NewCache(opts.CacheCapacity)
	}

	// The candidate pre-filter: constructed only when the configuration
	// is provably boundable (explicit model, boundable derivation,
	// ⊥ similarities in [0,1]); otherwise the run proceeds unfiltered
	// and the stats report FilterActive=false.
	var filter *ssr.PreFilter
	if opts.PreFilter {
		nulls := avm.PaperNulls
		if opts.Nulls != nil {
			nulls = *opts.Nulls
		}
		filter, _ = ssr.NewPreFilter(ssr.PreFilterConfig{
			Table:  symtab,
			Funcs:  compare,
			Model:  altModel,
			Derive: derive,
			Lambda: opts.Final.Lambda,
			Nulls:  nulls,
		})
		if filter != nil {
			for _, x := range xr.Tuples {
				filter.Insert(x)
			}
		}
	}

	eng := &engine{
		xr:        xr,
		byID:      byID,
		reduction: reduction,
		workers:   workers,
		cache:     cache,
		symtab:    symtab,
		filter:    filter,
		newComparer: func() *xmatch.Comparer {
			m := avm.NewMatcherWithCache(cache, compare...)
			m.Nulls = opts.Nulls
			return &xmatch.Comparer{
				Matcher:  m,
				AltModel: altModel,
				Derive:   derive,
				Final:    opts.Final,
			}
		},
	}
	eng.comparers = []*xmatch.Comparer{eng.newComparer()}
	return eng, nil
}

// verifyChunk bounds the candidate pairs (DetectStream) and the index
// deltas (Detector) verified as one unit: large enough to amortize the
// worker fan-out, small enough that the per-chunk verdicts stay a
// fixed, modest buffer.
const verifyChunk = 1024

// minParallelCompares is the chunk size below which verifyAll stays on
// the caller's goroutine: per-arrival candidate sets (a window, a
// small block) are cheaper to verify inline than to fan out.
const minParallelCompares = 32

// verdict is the verification outcome of one candidate pair: filtered
// out as a provable non-match, compared into a Match, or failed.
type verdict struct {
	m        Match
	err      error
	filtered bool
}

// verifyOne runs the verification step on one candidate pair: the
// pre-filter, then attribute value matching, x-tuple derivation and
// the decision. It fails when the pair references tuples outside the
// relation.
func (e *engine) verifyOne(c *xmatch.Comparer, p verify.Pair) verdict {
	if e.filter != nil && !e.filter.Admit(p) {
		return verdict{filtered: true} // provably class U
	}
	x1, ok1 := e.byID[p.A]
	x2, ok2 := e.byID[p.B]
	if !ok1 || !ok2 {
		return verdict{err: fmt.Errorf("core: candidate pair %v references unknown tuples", p)}
	}
	r := c.Compare(x1, x2)
	return verdict{m: Match{Pair: p, Sim: r.Sim, Class: r.Class}}
}

// verifyAll computes out[i] for pairs[i] — the one verification step
// of batch and online detection. Chunks of at least
// minParallelCompares pairs fan out across the engine's workers,
// handed out pair by pair via an atomic cursor so uneven comparison
// costs still balance; smaller chunks run on the caller's goroutine.
// Each worker owns a pooled comparer (the fold scratch is not
// shareable) while every matcher memoizes into the shared bounded
// cache; comparison functions are deterministic, so the verdicts are
// identical at any worker count. Callers serialize their verifyAll
// calls, and the relation and the pre-filter stay unchanged while one
// runs.
func (e *engine) verifyAll(pairs []verify.Pair, out []verdict) {
	workers := min(e.workers, len(pairs))
	if workers <= 1 || len(pairs) < minParallelCompares {
		c := e.comparers[0]
		for i, p := range pairs {
			out[i] = e.verifyOne(c, p)
		}
		return
	}
	for len(e.comparers) < workers {
		e.comparers = append(e.comparers, e.newComparer())
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range e.comparers[:workers] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pairs) {
					return
				}
				out[i] = e.verifyOne(c, pairs[i])
			}
		}()
	}
	wg.Wait()
}

// DetectStream runs the pipeline over an x-relation and emits each
// compared pair's Match through the callback, without retaining the
// candidate set or the results: candidate pairs are enumerated
// incrementally (see ssr.Streamer) into a bounded chunk, the chunk is
// verified across the worker pool, and its matches are emitted and
// discarded. The engine itself holds no per-pair state, so with the
// blocking variants, cross product, SNMCertain, SNMRanked and
// pruning, memory stays proportional to the relation; SNMMultiPass
// and SNMAlternatives additionally keep their executed-matching set
// while enumerating, and reduction methods without streaming support
// are adapted by materializing their candidate set once.
//
// emit is always called sequentially from the caller's goroutine, in
// the reduction method's enumeration order at any Options.Workers
// setting; it returns false to stop the run early (Stopped is then
// set in the stats). Classifications are identical to Detect.
//
// On error the already-emitted matches stand, the stats cover the work
// done so far, and the error is returned.
func DetectStream(xr *pdb.XRelation, opts Options, emit func(Match) bool) (StreamStats, error) {
	eng, err := newEngine(xr, opts)
	if err != nil {
		return StreamStats{}, err
	}
	return eng.run(emit)
}

// run streams the engine's candidate pairs through verifyAll chunk by
// chunk and emits each chunk in enumeration order. The counters are
// taken from the emitted verdicts, so pairs verified ahead of an early
// stop or an error are not counted.
func (e *engine) run(emit func(Match) bool) (StreamStats, error) {
	stats := StreamStats{
		TotalPairs:   ssr.TotalPairs(len(e.xr.Tuples)),
		FilterActive: e.filter != nil,
	}
	pairs := make([]verify.Pair, 0, verifyChunk)
	verdicts := make([]verdict, verifyChunk)
	var err error
	// flush verifies and emits the buffered chunk; false ends the run.
	flush := func() bool {
		out := verdicts[:len(pairs)]
		e.verifyAll(pairs, out)
		pairs = pairs[:0]
		for _, v := range out {
			switch {
			case v.err != nil:
				err = v.err
				return false
			case v.filtered:
				stats.Filtered++
				continue
			}
			stats.count(v.m)
			if !emit(v.m) {
				stats.Stopped = true
				return false
			}
		}
		return true
	}
	if ssr.StreamOf(e.reduction).EnumeratePairs(e.xr, func(p verify.Pair) bool {
		pairs = append(pairs, p)
		return len(pairs) < verifyChunk || flush()
	}) {
		flush()
	}
	stats.Enumerated = stats.Compared + stats.Filtered
	if e.cache != nil {
		stats.Cache = e.cache.Stats()
	}
	return stats, err
}

// count tallies one emitted match into the stats.
func (s *StreamStats) count(m Match) {
	s.Compared++
	switch m.Class {
	case decision.M:
		s.Matches++
	case decision.P:
		s.Possible++
	}
}
