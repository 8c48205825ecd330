// Package core orchestrates the complete duplicate detection pipeline for
// probabilistic data (Sec. III's five steps, adapted per Secs. IV and V):
//
//	data preparation → search space reduction → attribute value matching
//	→ decision model (with x-tuple derivation) → verification
//
// The pipeline operates on x-relations; dependency-free probabilistic
// relations are lifted losslessly (each tuple becomes a one-alternative
// x-tuple whose attribute values stay uncertain).
//
// The engine is streaming at its core: candidate pairs are enumerated
// incrementally by the reduction method (ssr.Streamer) into bounded
// chunks, each chunk passes the one verification step (verifyAll: the
// pre-filter, then matching and decision, fanned out across the
// workers for large chunks), and the verdicts are either emitted in
// enumeration order through a callback (DetectStream, memory
// proportional to the relation) or collected into an exact,
// deterministically ordered Result (Detect).
//
// Three entry points share the engine machinery:
//
//   - Detect / DetectRelations materialize the exact batch Result;
//   - DetectStream emits matches through a callback and retains no
//     per-pair state;
//   - Detector is the long-lived online engine: tuples arrive (Add,
//     AddBatch) and leave (Remove), each arrival is compared only
//     against the candidates produced by incremental index maintenance
//     (ssr.IncrementalIndex) — its deltas pass the same verification
//     step as DetectStream's candidates, and deltas are emitted
//     outside the internal lock so the callback can re-enter — and
//     Flush materializes exactly the Result Detect would produce on
//     the resident relation: the continuous-arrival workload of the
//     paper's Sec. III pipeline, without re-running it per tuple.
//
// All entry points validate options identically (thresholds, the
// comparison-function arity against the schema, the decision model's
// arity per decision.ValidateArity) and share one bounded similarity
// cache per run (avm.Cache, Options.CacheCapacity) so workers — or
// successive online arrivals — hit each other's memoized value pairs.
package core
