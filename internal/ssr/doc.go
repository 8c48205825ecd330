// Package ssr implements the search-space reduction methods of Sec. V,
// adapted to probabilistic data. Every method consumes an x-relation (a
// dependency-free relation is lifted first) and emits the set of candidate
// tuple pairs that the decision model should compare.
//
// Sorted neighborhood (Sec. V-A):
//
//  1. SNMMultiPass    — one pass per possible world (all, top-k probable, or
//     greedily dissimilar worlds), union of the per-world matchings.
//  2. SNMCertain      — certain key values via a conflict resolution
//     strategy (most probable alternative ≡ most probable world).
//  3. SNMAlternatives — one key value per tuple alternative; neighboring
//     same-tuple keys are omitted; an executed-matching matrix prevents
//     duplicate matchings (Figs. 11–12).
//  4. SNMRanked       — uncertain key values ranked with an expected-rank
//     function in O(n log n) (Fig. 13).
//
// Blocking (Sec. V-B):
//
//  5. BlockingCertain      — conflict-resolved certain keys, classical
//     blocking.
//  6. BlockingAlternatives — an x-tuple joins the block of every
//     alternative key value (Fig. 14).
//  7. BlockingCluster      — clustering of uncertain key values (UK-means).
//
// CrossProduct is the no-reduction baseline, and Pruning/Filter add the
// length-filter heuristic Sec. III-B lists alongside SNM and blocking.
//
// Beyond batch Candidates, every method implements Streamer: candidate
// pairs one at a time, in a deterministic enumeration order, nothing
// materialized (the blocking variants walk their blocks in sorted-key
// order). StreamOf adapts any other Method by replaying its candidate
// set in sorted pair order.
//
// For continuous arrivals, IncrementalIndex maintains a method's
// candidate set online: inserting a tuple yields exactly the pairs it
// forms (and, for windowed methods, the straddling pairs pushed out of
// the window), removing one retracts its pairs (and re-admits window
// neighbors). Every built-in method is incremental, on one of two
// tiers. On the exact tier — every method except BlockingCluster —
// the maintained set equals the batch candidate set over the resident
// tuples after every operation: insert-one-at-a-time ≡ Candidates.
// BlockingCluster is on the bounded-staleness tier (EpochIndex):
// between epoch reseals arrivals are placed by a cheap stale rule
// (nearest sealed centroid) and equality with Candidates is
// guaranteed only at epoch boundaries, while Staleness bounds how
// many residents a stale decision placed — crossing the bound
// triggers an in-band reseal whose net deltas ride the ordinary
// Insert/Remove yield stream. Methods that implement neither
// IncrementalMethod tier fail IncrementalOf with an error wrapping
// ErrNotIncremental.
package ssr
