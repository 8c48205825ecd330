package core

import (
	"fmt"
	"sort"

	"probdedup/internal/avm"
	"probdedup/internal/decision"
	"probdedup/internal/pdb"
	"probdedup/internal/prepare"
	"probdedup/internal/ssr"
	"probdedup/internal/strsim"
	"probdedup/internal/verify"
	"probdedup/internal/xmatch"
)

// Options configures a detection run. Zero-value fields fall back to
// sensible defaults (see Detect).
type Options struct {
	// Standardizer is the optional data-preparation step.
	Standardizer *prepare.Standardizer
	// Compare holds one comparison function per attribute; defaults to
	// normalized Hamming (the paper's running choice) on every attribute.
	Compare []strsim.Func
	// Reduction is the search-space reduction method; nil compares all
	// pairs.
	Reduction ssr.Method
	// AltModel is the decision model applied per alternative-tuple pair;
	// defaults to the equal-weight SimpleModel with the Final thresholds.
	AltModel decision.Model
	// Derivation is the x-tuple derivation function ϑ; defaults to the
	// similarity-based conditional expectation (Eq. 6).
	Derivation xmatch.Derivation
	// Final classifies the derived x-tuple similarity into {M,P,U}.
	Final decision.Thresholds
	// Workers parallelizes the verification step (pre-filter, matching
	// and decision) across goroutines (0 or 1 means sequential).
	// Candidate pairs are verified in bounded chunks; small chunks stay
	// on the caller's goroutine. All workers share one bounded
	// similarity cache (see CacheCapacity), so they hit each other's
	// memoized value pairs; comparison functions are deterministic, so
	// results and emission order are identical to a sequential run.
	Workers int
	// CacheCapacity bounds the run's shared similarity cache (memoized
	// value pairs across all workers): 0 means
	// avm.DefaultCacheCapacity, a negative value disables memoization.
	// The bound holds regardless of the worker count; when it is
	// exceeded, least-recently-inserted-ish entries are evicted and
	// simply recomputed on demand.
	CacheCapacity int
	// Nulls overrides the ⊥ semantics of attribute value matching; nil
	// means the paper's sim(⊥,⊥)=1, sim(a,⊥)=0 (ablation hook, DESIGN.md
	// §5).
	Nulls *avm.NullSemantics
	// PreFilter enables the symbol-plane candidate pre-filter: between
	// candidate enumeration and verification, pairs whose derived
	// similarity provably cannot reach Final.Lambda are skipped
	// (ssr.PreFilter). The filter is sound by construction — the M and
	// P sets are bit-identical with it on or off; only the number of
	// verified pairs shrinks. When the configuration cannot be bounded
	// (an opaque AltModel, an unboundable Derivation, ⊥ similarities
	// outside [0,1]) the filter is silently inert; StreamStats and
	// DetectorStats report FilterActive.
	PreFilter bool
	// FilterQ is the gram size of the precomputed symbol statistics
	// the pre-filter's q-gram count filters use; 0 means 2. Larger
	// sizes reject less on short values; sizes above sym.MaxExactQ
	// fall back to hashed grams (still sound).
	FilterQ int
	// Durability configures the durable online engines (wal.OpenDurable
	// and the probdedup façade); the batch pipeline and the plain
	// in-memory Detector/Integrator ignore it.
	Durability Durability
}

// Durability configures the durable online engines: state lives in a
// write-ahead-logged, snapshot-rotated directory, and recovery replays
// the log tail through the ordinary fold paths so a recovered engine
// is bit-identical to one that never crashed.
type Durability struct {
	// Dir is the state directory; used when the open call does not name
	// one explicitly.
	Dir string
	// FsyncEvery is the group-commit grain: one fsync per this many
	// logged operations (0 or 1 syncs every operation). Operations
	// since the last sync may be lost in a crash — recovery still
	// yields a consistent prefix of the operation history.
	FsyncEvery int
	// SnapshotEveryOps rotates the log automatically: after this many
	// operations since the last snapshot, the next operation triggers a
	// checkpoint (0 disables automatic checkpoints; Checkpoint and
	// Close still snapshot on demand).
	SnapshotEveryOps int
}

// Match is one compared pair with its derived similarity and class.
type Match struct {
	Pair  verify.Pair
	Sim   float64
	Class decision.Class
}

// Result is the outcome of a detection run.
type Result struct {
	// Matches and Possible are the declared sets M and P.
	Matches, Possible verify.PairSet
	// Compared lists every candidate pair in deterministic order.
	Compared []verify.Pair
	// ByPair gives similarity and class per compared pair.
	ByPair map[verify.Pair]Match
	// TotalPairs is the unreduced search-space size.
	TotalPairs int
}

// Detect runs the pipeline over an x-relation (typically the union of the
// sources to integrate). It is layered on the streaming engine (see
// DetectStream) and materializes the exact result: every compared pair
// in deterministic order, with similarity and class per pair. Use
// DetectStream directly when the result sets need not be retained.
func Detect(xr *pdb.XRelation, opts Options) (*Result, error) {
	res, _, err := DetectWithStats(xr, opts)
	return res, err
}

// DetectWithStats is Detect additionally returning the run's
// StreamStats — cache counters, pre-filter effectiveness — without
// changing the materialized Result.
func DetectWithStats(xr *pdb.XRelation, opts Options) (*Result, StreamStats, error) {
	res := &Result{
		Matches:  verify.PairSet{},
		Possible: verify.PairSet{},
		ByPair:   map[verify.Pair]Match{},
	}
	stats, err := DetectStream(xr, opts, func(m Match) bool {
		res.Compared = append(res.Compared, m.Pair)
		res.ByPair[m.Pair] = m
		switch m.Class {
		case decision.M:
			res.Matches[m.Pair] = true
		case decision.P:
			res.Possible[m.Pair] = true
		}
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	res.TotalPairs = stats.TotalPairs
	sort.Slice(res.Compared, func(i, j int) bool {
		if res.Compared[i].A != res.Compared[j].A {
			return res.Compared[i].A < res.Compared[j].A
		}
		return res.Compared[i].B < res.Compared[j].B
	})
	return res, stats, nil
}

// DetectRelations lifts two dependency-free relations, unions them, and
// runs Detect — the common "integrate two probabilistic sources" entry
// point (the paper's ℛ1/ℛ2 scenario).
func DetectRelations(r1, r2 *pdb.Relation, opts Options) (*Result, error) {
	x1 := r1.ToXRelation()
	x2 := r2.ToXRelation()
	u, err := x1.Union(r1.Name+"+"+r2.Name, x2)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return Detect(u, opts)
}

// Verify executes the verification step (Sec. III-E) against ground truth.
// The effectiveness is measured over the compared pairs; duplicates pruned
// by the reduction step count as false negatives, which Evaluate sees via
// the full universe.
func (r *Result) Verify(truth verify.PairSet, universe []verify.Pair) verify.Report {
	if universe == nil {
		universe = r.Compared
	}
	return verify.Evaluate(r.Matches, r.Possible, truth, universe)
}

// Reduction reports the search-space reduction achieved by the run.
func (r *Result) Reduction(truth verify.PairSet) verify.Reduction {
	trueIn := 0
	for _, p := range r.Compared {
		if truth[p] {
			trueIn++
		}
	}
	return verify.Reduction{
		CandidatePairs:   len(r.Compared),
		TotalPairs:       r.TotalPairs,
		TrueInCandidates: trueIn,
		TrueTotal:        len(truth),
	}
}
