package ssr

import (
	"math"

	"probdedup/internal/cluster"
	"probdedup/internal/pdb"
	"probdedup/internal/verify"
)

// defaultMaxDrift is the drift fraction an incremental BlockingCluster
// tolerates before resealing its epoch (see BlockingCluster.MaxDrift).
const defaultMaxDrift = 0.25

// blockingClusterIndex maintains the BlockingCluster candidate set on
// the bounded-staleness tier (EpochIndex).
//
// UK-means clustering depends globally on the whole relation — the key
// universe, the embedding and the centroids all move with every tuple —
// so exact maintenance would re-cluster from scratch per arrival. The
// epoch scheme bounds that cost: a reseal runs the batch clustering
// (bitwise: same items in insertion order, fresh rng from Seed) and
// freezes its embedding and centroids. Between reseals an arriving
// tuple is embedded in the frozen space and joins the block of its
// nearest centroid — an O(k) decision — and a departing tuple just
// leaves its block. Each such stale placement counts toward drift;
// when drift exceeds MaxDrift·residents, the index reseals inside the
// same operation, so the epoch flip reaches consumers as ordinary pair
// deltas (re-blocked pairs net out via coalescePairDeltas).
type blockingClusterIndex struct {
	method   BlockingCluster
	maxDrift float64

	arrivals []string
	items    map[string]cluster.Item

	epoch     int
	k         int
	emb       *cluster.Embedding
	centroids []float64
	labelOf   map[string]int
	blocks    map[int][]string
	drifted   int

	deltas []PairDelta
}

// Incremental implements IncrementalMethod.
func (m BlockingCluster) Incremental() (IncrementalIndex, error) {
	maxDrift := m.MaxDrift
	if maxDrift <= 0 {
		maxDrift = defaultMaxDrift
	}
	return &blockingClusterIndex{
		method:   m,
		maxDrift: maxDrift,
		items:    map[string]cluster.Item{},
		labelOf:  map[string]int{},
		blocks:   map[int][]string{},
	}, nil
}

func (b *blockingClusterIndex) Len() int { return len(b.arrivals) }

// Epoch implements EpochIndex.
func (b *blockingClusterIndex) Epoch() int { return b.epoch }

// Staleness implements EpochIndex.
func (b *blockingClusterIndex) Staleness() Staleness {
	return Staleness{
		Epoch:     b.epoch,
		Residents: len(b.arrivals),
		Drifted:   b.drifted,
		Bound:     b.maxDrift,
	}
}

// nearestCentroid picks the closest centroid by squared distance, ties
// to the lowest index — the same rule as the UK-means assignment loop.
func nearestCentroid(centroids []float64, p float64) int {
	best, bestD := 0, math.Inf(1)
	for c, ct := range centroids {
		if d := (p - ct) * (p - ct); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// reseal runs the batch clustering over the residents in insertion
// order and rebuilds the blocks, recording the pair churn as deltas
// (unchanged pairs cancel in coalescePairDeltas). It freezes the new
// epoch's embedding and centroids and resets the drift counter.
func (b *blockingClusterIndex) reseal() {
	// Withdraw the old blocks' pairs.
	for c := 0; c < b.k; c++ {
		members := b.blocks[c]
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				b.deltas = append(b.deltas, PairDelta{Pair: verify.NewPair(members[i], members[j]), Dropped: true})
			}
		}
	}
	// Re-cluster through the batch enumeration's own clustering call.
	items := make([]cluster.Item, len(b.arrivals))
	for i, id := range b.arrivals {
		items[i] = b.items[id]
	}
	c := b.method.cluster(items)
	b.k = c.K
	b.centroids = c.Centroids
	b.emb = cluster.NewEmbedding(items)
	b.labelOf = make(map[string]int, len(items))
	b.blocks = map[int][]string{}
	for i, a := range c.Assign {
		id := items[i].ID
		for _, other := range b.blocks[a] {
			b.deltas = append(b.deltas, PairDelta{Pair: verify.NewPair(other, id)})
		}
		b.blocks[a] = append(b.blocks[a], id)
		b.labelOf[id] = a
	}
	b.drifted = 0
	b.epoch++
}

// maybeReseal reseals in-band once the drift bound is crossed.
func (b *blockingClusterIndex) maybeReseal() {
	if float64(b.drifted) > b.maxDrift*float64(len(b.arrivals)) {
		b.reseal()
	}
}

// flushDeltas coalesces and delivers the op-local deltas.
func (b *blockingClusterIndex) flushDeltas(yield func(PairDelta) bool) bool {
	deltas := coalescePairDeltas(b.deltas)
	b.deltas = b.deltas[:0]
	for _, d := range deltas {
		if !yield(d) {
			return false
		}
	}
	return true
}

func (b *blockingClusterIndex) Insert(x *pdb.XTuple, yield func(PairDelta) bool) bool {
	it := cluster.Item{ID: x.ID, Keys: b.method.Key.XTupleKeyDist(x, true)}
	b.items[x.ID] = it
	b.arrivals = append(b.arrivals, x.ID)
	if b.emb == nil {
		b.reseal()
	} else {
		c := nearestCentroid(b.centroids, b.emb.Pos(it.Keys))
		for _, other := range b.blocks[c] {
			b.deltas = append(b.deltas, PairDelta{Pair: verify.NewPair(other, x.ID)})
		}
		b.blocks[c] = append(b.blocks[c], x.ID)
		b.labelOf[x.ID] = c
		b.drifted++
		b.maybeReseal()
	}
	return b.flushDeltas(yield)
}

func (b *blockingClusterIndex) Remove(id string, yield func(PairDelta) bool) bool {
	if _, ok := b.items[id]; !ok {
		return true
	}
	delete(b.items, id)
	b.arrivals = removeID(b.arrivals, id)
	c := b.labelOf[id]
	delete(b.labelOf, id)
	b.blocks[c] = removeID(b.blocks[c], id)
	for _, other := range b.blocks[c] {
		b.deltas = append(b.deltas, PairDelta{Pair: verify.NewPair(other, id), Dropped: true})
	}
	if len(b.arrivals) == 0 {
		// Empty index: clear the epoch state so the next insertion
		// seals a fresh epoch.
		b.k = 0
		b.emb = nil
		b.centroids = nil
		b.blocks = map[int][]string{}
		b.drifted = 0
	} else {
		b.drifted++
		b.maybeReseal()
	}
	return b.flushDeltas(yield)
}

// Reseal implements EpochIndex.
func (b *blockingClusterIndex) Reseal(yield func(PairDelta) bool) bool {
	if len(b.arrivals) == 0 {
		return true
	}
	b.reseal()
	return b.flushDeltas(yield)
}

// Interface conformance checks.
var (
	_ IncrementalMethod = BlockingCluster{}
	_ EpochIndex        = (*blockingClusterIndex)(nil)
)
