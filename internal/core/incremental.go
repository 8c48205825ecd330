package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"probdedup/internal/avm"
	"probdedup/internal/decision"
	"probdedup/internal/pdb"
	"probdedup/internal/prepare"
	"probdedup/internal/ssr"
	"probdedup/internal/verify"
)

// ErrUnknownID reports a Remove whose tuple ID is not resident.
// Removing is intentionally not idempotent: a remove-twice or a
// remove-before-add is a caller bug the detector surfaces instead of
// swallowing. Test with errors.Is.
var ErrUnknownID = errors.New("unknown tuple ID")

// BatchError reports the tuple that made an AddBatch call fail and
// documents the partial-apply boundary. Index is the batch position
// (0-based) of the failing tuple. For validation failures — nil
// tuple, arity mismatch, duplicate ID; the only errors the built-in
// reductions can produce — tuples before Index are fully applied and
// resident, and tuples at and after Index are not. A comparison
// failure (possible only with a misbehaving user-defined
// IncrementalMethod yielding pairs of unregistered tuples) leaves
// every batch tuple resident with the pair decisions up to the
// failing delta applied; Index then names the tuple whose insertion
// settled the failing pair. BatchError wraps the underlying cause.
type BatchError struct {
	Index int
	Err   error
}

// Error implements the error interface.
func (e *BatchError) Error() string {
	return fmt.Sprintf("batch tuple %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *BatchError) Unwrap() error { return e.Err }

// DeltaKind distinguishes the two changes an online detection run can
// make to its classified pair set.
type DeltaKind int

const (
	// DeltaAdd reports a pair that entered the compared set, with its
	// freshly computed similarity and class.
	DeltaAdd DeltaKind = iota
	// DeltaDrop reports a pair that left the compared set — because a
	// tuple was removed, or because a later insertion pushed the pair
	// out of a sorted-neighborhood window. Match holds the pair's last
	// decision.
	DeltaDrop
)

// String names the kind.
func (k DeltaKind) String() string {
	if k == DeltaDrop {
		return "drop"
	}
	return "add"
}

// MatchDelta is one change to the detector's classified pair set,
// emitted through the callback as it happens.
type MatchDelta struct {
	Kind DeltaKind
	Match
}

// DetectorStats summarizes the state and cumulative work of a
// Detector.
type DetectorStats struct {
	// Residents is the current number of resident tuples.
	Residents int
	// Compared counts the pair comparisons performed since
	// construction (re-entering pairs are re-compared).
	Compared int
	// Dropped counts the pairs retracted since construction.
	Dropped int
	// Live, Matches and Possible are the current classified set sizes.
	Live, Matches, Possible int
	// TotalPairs is the unreduced search-space size of the resident
	// relation, n(n-1)/2.
	TotalPairs int
	// Stopped reports that the emit callback ended delta delivery.
	Stopped bool
	// Staleness reports the epoch drift of a bounded-staleness
	// reduction index (ssr.EpochIndex, e.g. BlockingCluster); nil for
	// exact-tier reductions.
	Staleness *ssr.Staleness
	// Cache holds the shared similarity cache counters (zero value
	// when memoization is disabled).
	Cache avm.CacheStats
	// Enumerated counts the candidate pairs the pre-filter inspected
	// since construction: the comparisons that would have run without
	// it are Enumerated − (pairs found already live); Compared plus
	// Filtered in steady state.
	Enumerated int
	// Filtered counts the inspected pairs rejected as provable
	// non-matches.
	Filtered int
	// FilterActive reports whether the candidate pre-filter is
	// constructed and consulted.
	FilterActive bool
}

// Detector is the long-lived online detection engine: tuples arrive
// (and leave) one at a time or in batches, and each arrival is
// compared only against the candidates produced by incremental index
// maintenance (ssr.IncrementalIndex) instead of re-running the batch
// pipeline. Every built-in reduction method is supported. For the
// exact tier — cross product, SNMCertain, SNMRanked (all strategies),
// SNMAlternatives, SNMMultiPass, BlockingCertain,
// BlockingAlternatives, and pruned compositions — ingestion is
// equivalent to batch Detect: after any sequence of Add, AddBatch and
// Remove calls, Flush returns exactly the Result Detect would produce
// on the resident relation, at any Options.Workers setting.
// BlockingCluster runs on the bounded-staleness tier (ssr.EpochIndex):
// between epoch reseals arrivals join the block of their nearest
// centroid, and Flush matches batch Detect right after a reseal —
// automatic when the configured drift bound is crossed, or forced with
// Reseal. Stats reports the current drift.
//
// The detector reuses the batch engine's machinery: one bounded
// similarity cache (Options.CacheCapacity) shared across the
// detector's lifetime and all workers, the fold-based comparison
// kernel, and the configured decision model. Index deltas pass the
// same verification step as DetectStream's candidates: small
// per-arrival candidate sets are compared inline on the calling
// goroutine, large delta batches (AddBatch, big blocks) fan out across
// Options.Workers goroutines — state updates and delta emission remain
// sequential and deterministic either way.
//
// Unlike DetectStream, the detector retains per-pair state (the
// current classified set) so it can retract decisions on Remove and
// answer Flush exactly; memory grows with the live candidate pair
// count. All methods are safe for concurrent use. The emit callback
// is invoked sequentially (never concurrently with itself), in
// state-change order, strictly outside the detector's internal lock:
// it may call back into the detector (Stats, Len, Flush, a follow-up
// Add or Remove) without deadlocking. Deltas caused by a re-entrant
// mutation are delivered after the deltas already queued.
type Detector struct {
	mu   sync.Mutex
	eng  *engine
	idx  ssr.IncrementalIndex
	std  *prepare.Standardizer
	live map[verify.Pair]Match
	// pairsOf indexes the live pairs by member tuple, so Remove
	// retracts in O(degree) instead of sweeping the whole live set.
	pairsOf map[string]map[verify.Pair]struct{}
	// posOf locates a resident tuple in eng.xr.Tuples for O(1)
	// swap-removal; nothing in the detector depends on tuple order.
	posOf map[string]int
	// seqOf records each resident's arrival number (arrivalSeq is the
	// running counter). eng.xr.Tuples loses insertion order to
	// swap-removal, but the incremental-index contract ties candidate
	// tie-breaking to it — so a durable snapshot must list residents in
	// arrival order to restore the indexes bit-identically
	// (SnapshotState sorts by seqOf).
	seqOf      map[string]uint64
	arrivalSeq uint64
	compared   int
	dropped    int

	// deltaBuf, pairBuf and verdictBuf are reusable scratch for one
	// operation's index deltas and their verification. Guarded by mu.
	deltaBuf   []ssr.PairDelta
	pairBuf    []verify.Pair
	verdictBuf []verdict

	// emits buffers deltas in state-change order while mu is held and
	// delivers them strictly outside it, so the callback can re-enter
	// the detector (see EmitQueue).
	emits *EmitQueue[MatchDelta]
}

// NewDetector builds an empty online detection engine over the given
// schema. Options are validated exactly as in Detect (thresholds,
// comparison function arity, decision model arity); additionally the
// reduction method must support incremental maintenance (see
// ssr.IncrementalOf). Options.Workers bounds the goroutines the
// verification phase fans out across when a single Add or AddBatch
// produces enough candidate pairs; it never changes classifications
// or the emitted delta stream, only throughput. emit receives every
// change to the classified pair set as it happens and may be nil when
// only Flush snapshots are needed; a false return permanently stops
// delta delivery (state maintenance continues).
func NewDetector(schema []string, opts Options, emit func(MatchDelta) bool) (*Detector, error) {
	xr := pdb.NewXRelation("detector", schema...)
	eng, err := newEngine(xr, opts)
	if err != nil {
		return nil, err
	}
	idx, err := ssr.IncrementalOf(opts.Reduction)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Detector{
		eng:     eng,
		idx:     idx,
		std:     opts.Standardizer,
		live:    map[verify.Pair]Match{},
		pairsOf: map[string]map[verify.Pair]struct{}{},
		posOf:   map[string]int{},
		seqOf:   map[string]uint64{},
		emits:   NewEmitQueue(emit),
	}, nil
}

// Add inserts one tuple: it is standardized (when a Standardizer is
// configured), validated, registered with the incremental index, and
// compared against each candidate pair the index yields. Deltas are
// emitted after the state update, outside the detector's lock. The
// tuple is deep-copied, so the caller may keep mutating its own
// instance.
func (d *Detector) Add(x *pdb.XTuple) error {
	d.mu.Lock()
	err := d.addLocked(x)
	d.mu.Unlock()
	d.drainEmits()
	return err
}

// AddBatch inserts the tuples in order, as one unit of work: the
// whole batch is validated and registered first, the incremental
// index enumerates the batch's net candidate-pair deltas (intra-batch
// window churn cancels out, see ssr.InsertBatch), the expensive
// verification of net-new pairs fans out across Options.Workers, and
// state updates plus delta emission follow sequentially in a
// deterministic order. The emitted delta stream is the batch's net
// effect — a pair that enters and leaves the candidate set within the
// same batch is not reported.
//
// On failure AddBatch returns a *BatchError naming the failing batch
// position and the partial-apply boundary: the tuples before it are
// resident with their pair decisions applied, exactly as if they had
// been added alone.
func (d *Detector) AddBatch(xs []*pdb.XTuple) error {
	d.mu.Lock()
	err := d.addBatchLocked(xs)
	d.mu.Unlock()
	d.drainEmits()
	return err
}

func (d *Detector) addBatchLocked(xs []*pdb.XTuple) error {
	prepared := make([]*pdb.XTuple, 0, len(xs))
	var prepErr *BatchError
	for i, x := range xs {
		y, err := d.prepareTuple(x)
		if err != nil {
			prepErr = &BatchError{Index: i, Err: err}
			break
		}
		d.register(y)
		prepared = append(prepared, y)
	}
	batch := ssr.InsertBatch(d.idx, prepared)
	deltas := d.deltaBuf[:0]
	for _, bd := range batch {
		deltas = append(deltas, bd.PairDelta)
	}
	d.deltaBuf = deltas
	if k, err := d.applyDeltas(deltas); err != nil {
		return &BatchError{Index: batch[k].Source, Err: err}
	}
	if prepErr != nil {
		return prepErr
	}
	return nil
}

func (d *Detector) addLocked(x *pdb.XTuple) error {
	y, err := d.prepareTuple(x)
	if err != nil {
		return err
	}
	d.register(y)
	deltas := d.deltaBuf[:0]
	d.idx.Insert(y, func(pd ssr.PairDelta) bool {
		deltas = append(deltas, pd)
		return true
	})
	d.deltaBuf = deltas
	_, err = d.applyDeltas(deltas)
	return err
}

// prepareTuple standardizes, deep-copies and validates one arriving
// tuple without touching detector state.
func (d *Detector) prepareTuple(x *pdb.XTuple) (*pdb.XTuple, error) {
	if x == nil {
		return nil, fmt.Errorf("core: Add of nil x-tuple")
	}
	if d.std != nil {
		x = d.std.XTuple(x)
	} else {
		x = x.Clone()
	}
	if err := x.Validate(len(d.eng.xr.Schema)); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if _, dup := d.eng.byID[x.ID]; dup {
		return nil, fmt.Errorf("core: duplicate tuple ID %q", x.ID)
	}
	if d.eng.symtab != nil {
		// Populate the symbol plane at arrival time: the tuple is the
		// detector's private copy, so interning (which replaces value
		// annotations) never touches the caller's instance.
		prepare.InternXTuple(d.eng.symtab, x)
	}
	return x, nil
}

// register appends a prepared tuple to the resident relation and
// summarizes it for the pre-filter.
func (d *Detector) register(x *pdb.XTuple) {
	d.eng.byID[x.ID] = x
	d.posOf[x.ID] = len(d.eng.xr.Tuples)
	d.seqOf[x.ID] = d.arrivalSeq
	d.arrivalSeq++
	d.eng.xr.Append(x)
	if d.eng.filter != nil {
		d.eng.filter.Insert(x)
	}
}

// Reseal forces a bounded-staleness reduction index (ssr.EpochIndex,
// e.g. BlockingCluster) to seal its epoch now: the index recomputes
// its placement decisions batch-identically over the residents, and
// the resulting pair churn flows through the ordinary delta path —
// re-blocked pairs are compared, vanished ones retracted, and the
// emit callback sees plain add/drop deltas. Right after Reseal, Flush
// equals batch Detect on the resident relation. For exact-tier
// reductions (every other built-in method) Reseal is a no-op: their
// maintained set already equals the batch set after every operation.
func (d *Detector) Reseal() error {
	d.mu.Lock()
	err := d.resealLocked()
	d.mu.Unlock()
	d.drainEmits()
	return err
}

func (d *Detector) resealLocked() error {
	ei, ok := d.idx.(ssr.EpochIndex)
	if !ok {
		return nil
	}
	deltas := d.deltaBuf[:0]
	ei.Reseal(func(pd ssr.PairDelta) bool {
		deltas = append(deltas, pd)
		return true
	})
	d.deltaBuf = deltas
	_, err := d.applyDeltas(deltas)
	return err
}

// Remove drops the tuple from the resident relation: the index yields
// a retraction for every candidate pair involving it (plus, for
// windowed reductions, re-entrant neighbor pairs, which are
// re-compared), and a defensive sweep guarantees that no pair decision
// involving the removed tuple survives in the detector's state — so a
// later re-Add with the same ID is classified from scratch, never from
// a stale pair decision. The shared avm.Cache needs no invalidation:
// its entries are keyed by attribute and value content, not tuple
// identity, and similarities of values are immutable. Removing an ID
// that is not resident — never added, or already removed — fails with
// an error wrapping ErrUnknownID and changes nothing.
func (d *Detector) Remove(id string) error {
	d.mu.Lock()
	err := d.removeLocked(id)
	d.mu.Unlock()
	d.drainEmits()
	return err
}

func (d *Detector) removeLocked(id string) error {
	if _, ok := d.eng.byID[id]; !ok {
		return fmt.Errorf("core: Remove: %w %q", ErrUnknownID, id)
	}

	deltas := d.deltaBuf[:0]
	d.idx.Remove(id, func(pd ssr.PairDelta) bool {
		deltas = append(deltas, pd)
		return true
	})
	d.deltaBuf = deltas
	_, firstErr := d.applyDeltas(deltas)

	// Defensive sweep: the index contract already retracts every pair
	// of id, but a buggy user-defined IncrementalMethod must not be
	// able to leave stale decisions behind. The per-tuple pair index
	// makes this O(degree), not O(live set).
	if rest := d.pairsOf[id]; len(rest) > 0 {
		pairs := make([]verify.Pair, 0, len(rest))
		for p := range rest {
			pairs = append(pairs, p)
		}
		for _, p := range pairs {
			d.retractPair(p)
		}
	}
	delete(d.pairsOf, id)

	delete(d.eng.byID, id)
	// Swap-remove from the resident slice: O(1), order is irrelevant
	// (Flush sorts pairs, the indexes keep their own order).
	ts := d.eng.xr.Tuples
	i, last := d.posOf[id], len(ts)-1
	ts[i] = ts[last]
	d.posOf[ts[i].ID] = i
	d.eng.xr.Tuples = ts[:last]
	ts[last] = nil
	delete(d.posOf, id)
	delete(d.seqOf, id)
	if d.eng.filter != nil {
		d.eng.filter.Remove(id)
	}
	return firstErr
}

// applyDeltas folds index deltas into the classified set: dropped
// pairs are retracted, net-new pairs are verified and recorded, and
// every resulting MatchDelta is enqueued for emission — all in delta
// order, so the delivered stream is deterministic for a given delta
// sequence. Each bounded chunk of deltas first verifies its additions
// that are not live (verifyAll, across the engine's workers when the
// chunk is large); state updates then apply sequentially on the
// caller's goroutine. Per pair, deltas alternate add/drop (the
// IncrementalIndex contract), so an addition not live at the chunk
// start is still not live at its apply point, and an addition live
// at the chunk start needs no comparison unless an earlier drop in
// the chunk retracted it — that re-add is verified inline when
// reached. On a comparison error the deltas preceding the failing one
// stay applied and its position in deltas is returned.
func (d *Detector) applyDeltas(deltas []ssr.PairDelta) (int, error) {
	for lo := 0; lo < len(deltas); lo += verifyChunk {
		chunk := deltas[lo:min(lo+verifyChunk, len(deltas))]
		pairs := d.pairBuf[:0]
		for _, pd := range chunk {
			if pd.Dropped {
				continue
			}
			if _, live := d.live[pd.Pair]; !live {
				pairs = append(pairs, pd.Pair)
			}
		}
		d.pairBuf = pairs
		if cap(d.verdictBuf) < len(pairs) {
			d.verdictBuf = make([]verdict, len(pairs))
		}
		verdicts := d.verdictBuf[:len(pairs)]
		d.eng.verifyAll(pairs, verdicts)

		next := 0
		for i, pd := range chunk {
			var v verdict
			switch {
			case pd.Dropped:
				d.retractPair(pd.Pair)
				continue
			case next < len(pairs) && pairs[next] == pd.Pair:
				v = verdicts[next]
				next++
			default:
				if _, live := d.live[pd.Pair]; live {
					continue // values are immutable while resident
				}
				v = d.eng.verifyOne(d.eng.comparers[0], pd.Pair)
			}
			if v.err != nil {
				return lo + i, v.err
			}
			if !v.filtered {
				d.recordMatch(pd.Pair, v.m)
			}
		}
	}
	return 0, nil
}

// recordMatch applies one freshly compared pair to the live state and
// enqueues its add delta.
func (d *Detector) recordMatch(p verify.Pair, m Match) {
	d.compared++
	d.live[p] = m
	d.indexPair(p.A, p)
	d.indexPair(p.B, p)
	d.enqueueDelta(MatchDelta{Kind: DeltaAdd, Match: m})
}

// indexPair records a live pair under one member tuple.
func (d *Detector) indexPair(id string, p verify.Pair) {
	set := d.pairsOf[id]
	if set == nil {
		set = map[verify.Pair]struct{}{}
		d.pairsOf[id] = set
	}
	set[p] = struct{}{}
}

// retractPair removes a live pair from both indexes and enqueues the
// drop; unknown pairs are ignored.
func (d *Detector) retractPair(p verify.Pair) {
	m, ok := d.live[p]
	if !ok {
		return
	}
	delete(d.live, p)
	for _, id := range []string{p.A, p.B} {
		if set := d.pairsOf[id]; set != nil {
			delete(set, p)
			if len(set) == 0 {
				delete(d.pairsOf, id)
			}
		}
	}
	d.dropped++
	d.enqueueDelta(MatchDelta{Kind: DeltaDrop, Match: m})
}

// enqueueDelta buffers one delta for delivery outside the state lock
// (callers hold d.mu); drainEmits delivers after the lock is
// released. Both delegate to the shared EmitQueue.
func (d *Detector) enqueueDelta(md MatchDelta) { d.emits.Enqueue(md) }

func (d *Detector) drainEmits() { d.emits.Drain() }

// Flush materializes the current classified state as an exact Result —
// the same Result Detect would produce on the resident relation:
// every live pair in deterministic order with similarity and class,
// the declared M and P sets, and the arithmetic search-space size.
func (d *Detector) Flush() *Result {
	d.mu.Lock()
	defer d.mu.Unlock()
	res := &Result{
		Matches:    verify.PairSet{},
		Possible:   verify.PairSet{},
		Compared:   make([]verify.Pair, 0, len(d.live)),
		ByPair:     make(map[verify.Pair]Match, len(d.live)),
		TotalPairs: ssr.TotalPairs(len(d.eng.xr.Tuples)),
	}
	for p, m := range d.live {
		res.Compared = append(res.Compared, p)
		res.ByPair[p] = m
		switch m.Class {
		case decision.M:
			res.Matches[p] = true
		case decision.P:
			res.Possible[p] = true
		}
	}
	sort.Slice(res.Compared, func(i, j int) bool {
		if res.Compared[i].A != res.Compared[j].A {
			return res.Compared[i].A < res.Compared[j].A
		}
		return res.Compared[i].B < res.Compared[j].B
	})
	return res
}

// Resident returns the resident tuple stored for id — the
// standardized deep copy the detector compares, not the instance the
// caller passed to Add. Downstream consumers (the resolve.Integrator)
// fuse these exact tuples so that incremental fusion is bit-identical
// to the batch pipeline's. The returned tuple is shared with the
// detector and must be treated as read-only; resident values are
// immutable, so the pointer stays valid until the tuple is removed.
func (d *Detector) Resident(id string) (*pdb.XTuple, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	x, ok := d.eng.byID[id]
	return x, ok
}

// ResidentIDs returns the IDs of all resident tuples in sorted order.
// Shard routers use it after durable recovery to rebuild their
// ID-to-shard admission map from the engines themselves.
func (d *Detector) ResidentIDs() []string {
	d.mu.Lock()
	ids := make([]string, 0, len(d.eng.byID))
	for id := range d.eng.byID {
		ids = append(ids, id)
	}
	d.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// Len returns the resident tuple count.
func (d *Detector) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.eng.xr.Tuples)
}

// Stats summarizes the detector's state and cumulative work.
func (d *Detector) Stats() DetectorStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := DetectorStats{
		Residents:  len(d.eng.xr.Tuples),
		Compared:   d.compared,
		Dropped:    d.dropped,
		Live:       len(d.live),
		TotalPairs: ssr.TotalPairs(len(d.eng.xr.Tuples)),
		Stopped:    d.emits.Stopped(),
	}
	for _, m := range d.live {
		switch m.Class {
		case decision.M:
			st.Matches++
		case decision.P:
			st.Possible++
		}
	}
	if ei, ok := d.idx.(ssr.EpochIndex); ok {
		stale := ei.Staleness()
		st.Staleness = &stale
	}
	if d.eng.cache != nil {
		st.Cache = d.eng.cache.Stats()
	}
	if d.eng.filter != nil {
		fs := d.eng.filter.Stats()
		st.FilterActive = true
		st.Enumerated = int(fs.Enumerated)
		st.Filtered = int(fs.Filtered)
	}
	return st
}
