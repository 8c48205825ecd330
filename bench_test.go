// Benchmarks regenerating every experiment of EXPERIMENTS.md (one bench per
// paper figure/table, E01–E10, plus the synthetic evaluation S01–S04) and
// micro-benchmarks of the hot paths.
//
// Run with:
//
//	go test -bench=. -benchmem
package probdedup_test

import (
	"fmt"
	"os"
	"testing"

	"probdedup"
	"probdedup/internal/dataset"
	"probdedup/internal/experiments"
	"probdedup/internal/paperdata"
	"probdedup/internal/ssr"
)

// ---- Paper experiments E01–E10 ----

func BenchmarkE01AttrMatching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E01()
	}
}

func BenchmarkE02Worlds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E02()
	}
}

func BenchmarkE03SimDerivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = experiments.E03()
	}
}

func BenchmarkE04DecDerivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, _, _ = experiments.E04()
	}
}

func BenchmarkE05MultiPass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E05()
	}
}

func BenchmarkE06CertainKeys(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E06()
	}
}

func BenchmarkE07SortAlternatives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E07()
	}
}

func BenchmarkE08UncertainKeys(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E08()
	}
}

func BenchmarkE09Blocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E09()
	}
}

func BenchmarkE10Rules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E10()
	}
}

// ---- Synthetic evaluation S01–S04 ----

func BenchmarkS01Effectiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = experiments.S01(40, 11)
	}
}

func BenchmarkS02Reduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = experiments.S02(40, 11)
	}
}

func BenchmarkS03WorldSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = experiments.S03(30, 13)
	}
}

func BenchmarkS04Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = experiments.S04([]int{50, 100}, 5)
	}
}

func BenchmarkS05WindowSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = experiments.S05(40, 11)
	}
}

func BenchmarkA01Conditioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = experiments.A01(40, 11)
	}
}

func BenchmarkA02NullSemantics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = experiments.A02(40, 11)
	}
}

// ---- Streaming vs. materialized pipeline ----

// blockingBenchSetup builds a corpus large enough that the seed path's
// O(n²) cross-product allocation (TotalPairs via ssr.AllPairs) and the
// materialized result maps dominate: 1000 entities ≈ 2100 tuples ≈
// 2.2M universe pairs.
func blockingBenchSetup(b *testing.B) (*probdedup.XRelation, probdedup.Options) {
	b.Helper()
	d := probdedup.GenerateDataset(probdedup.DefaultDatasetConfig(1000, 17))
	u := d.Union()
	def, err := probdedup.ParseKeyDef("name:4+job:2", u.Schema)
	if err != nil {
		b.Fatal(err)
	}
	return u, probdedup.Options{
		Compare:   []probdedup.CompareFunc{probdedup.Levenshtein, probdedup.Levenshtein, probdedup.Levenshtein},
		Reduction: probdedup.BlockingCertain{Key: def},
		Final:     probdedup.Thresholds{Lambda: 0.6, Mu: 0.8},
		Workers:   4,
	}
}

// BenchmarkDetectBlocking1000 materializes the full Result (sorted
// Compared slice, ByPair map) — the exact-result entry point.
func BenchmarkDetectBlocking1000(b *testing.B) {
	u, opts := blockingBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := probdedup.Detect(u, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectStreamBlocking1000 runs the same detection through
// the streaming engine, retaining nothing. The custom metrics expose
// the shared similarity cache: hit rate and final entry count (bounded
// by Options.CacheCapacity regardless of the worker count).
func BenchmarkDetectStreamBlocking1000(b *testing.B) {
	u, opts := blockingBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	var stats probdedup.StreamStats
	for i := 0; i < b.N; i++ {
		matches := 0
		var err error
		if stats, err = probdedup.DetectStream(u, opts, func(m probdedup.PairMatch) bool {
			if m.Class == probdedup.ClassM {
				matches++
			}
			return true
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(stats.Cache.HitRate(), "cache-hit-rate")
	b.ReportMetric(float64(stats.Cache.Entries), "cache-entries")
}

// BenchmarkDetectStreamWorkers sweeps the worker count over the same
// blocking run: throughput should scale while the shared cache keeps
// total memo memory constant.
func BenchmarkDetectStreamWorkers(b *testing.B) {
	u, opts := blockingBenchSetup(b)
	for _, workers := range []int{1, 2, 4, 8} {
		opts := opts
		opts.Workers = workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var stats probdedup.StreamStats
			for i := 0; i < b.N; i++ {
				var err error
				if stats, err = probdedup.DetectStream(u, opts, func(probdedup.PairMatch) bool { return true }); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(stats.Cache.Entries), "cache-entries")
		})
	}
}

// BenchmarkStreamCandidatesBlocking1000 isolates search-space
// enumeration: streaming the candidates versus materializing the
// PairSet.
func BenchmarkStreamCandidatesBlocking1000(b *testing.B) {
	u, opts := blockingBenchSetup(b)
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			probdedup.StreamCandidates(opts.Reduction, u, func(probdedup.Pair) bool {
				n++
				return true
			})
		}
	})
	b.Run("materialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = opts.Reduction.Candidates(u)
		}
	})
}

// ---- Micro-benchmarks of the hot paths ----

func BenchmarkAttrSimUncertain(b *testing.B) {
	a1 := probdedup.MustDist(
		probdedup.Alternative{Value: probdedup.V("machinist"), P: 0.7},
		probdedup.Alternative{Value: probdedup.V("mechanic"), P: 0.2})
	a2 := probdedup.MustDist(
		probdedup.Alternative{Value: probdedup.V("mechanist"), P: 0.8},
		probdedup.Alternative{Value: probdedup.V("engineer"), P: 0.2})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = probdedup.AttrSim(probdedup.Levenshtein, a1, a2)
	}
}

func BenchmarkLevenshtein(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = probdedup.Levenshtein("machinist", "mechanist")
	}
}

func BenchmarkJaroWinkler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = probdedup.JaroWinkler("machinist", "mechanist")
	}
}

func BenchmarkTopKWorldsR34(b *testing.B) {
	xr := paperdata.R34()
	for i := 0; i < b.N; i++ {
		_ = probdedup.TopKWorlds(xr, true, 16)
	}
}

func BenchmarkDetectPaperR34(b *testing.B) {
	xr := paperdata.R34()
	opts := probdedup.Options{
		AltModel: probdedup.SimpleModel{
			Phi: probdedup.WeightedSum(0.8, 0.2),
			T:   probdedup.Thresholds{Lambda: 0.4, Mu: 0.7},
		},
		Final: probdedup.Thresholds{Lambda: 0.4, Mu: 0.7},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := probdedup.Detect(xr, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectSynthetic(b *testing.B) {
	d := probdedup.GenerateDataset(probdedup.DefaultDatasetConfig(60, 17))
	u := d.Union()
	def, _ := probdedup.ParseKeyDef("name:3+job:2", u.Schema)
	opts := probdedup.Options{
		Compare:   []probdedup.CompareFunc{probdedup.Levenshtein, probdedup.Levenshtein, probdedup.Levenshtein},
		Reduction: probdedup.SNMRanked{Key: def, Window: 7},
		Final:     probdedup.Thresholds{Lambda: 0.6, Mu: 0.8},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := probdedup.Detect(u, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReductionMethods(b *testing.B) {
	d := probdedup.GenerateDataset(probdedup.DefaultDatasetConfig(100, 17))
	u := d.Union()
	def, _ := probdedup.ParseKeyDef("name:3+job:2", u.Schema)
	methods := []probdedup.ReductionMethod{
		ssr.CrossProduct{},
		ssr.SNMCertain{Key: def, Window: 7},
		ssr.SNMAlternatives{Key: def, Window: 7},
		ssr.SNMRanked{Key: def, Window: 7},
		ssr.BlockingCertain{Key: def},
		ssr.BlockingAlternatives{Key: def},
		ssr.BlockingCluster{Key: def, K: 16, Seed: 1},
	}
	for _, m := range methods {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = m.Candidates(u)
			}
		})
	}
}

func BenchmarkExpectedRanking(b *testing.B) {
	d := probdedup.GenerateDataset(probdedup.DefaultDatasetConfig(200, 17))
	u := d.Union()
	def, _ := probdedup.ParseKeyDef("name:3+job:2", u.Schema)
	m := ssr.SNMRanked{Key: def, Window: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.RankedIDs(u)
	}
}

// ---- Incremental online engine ----

// detectorBenchOpts configures the online engine over the synthetic
// schema. Blocking pairs an arrival with its whole block (block sizes
// grow with the corpus under a fixed key); the sorted-neighborhood
// window bounds the candidates per arrival to 2(w−1), so its Add cost
// stays flat as the resident relation grows.
func detectorBenchOpts(b *testing.B, schema []string, reduction string) probdedup.Options {
	b.Helper()
	def, err := probdedup.ParseKeyDef("name:4+job:2", schema)
	if err != nil {
		b.Fatal(err)
	}
	opts := probdedup.Options{
		Compare: []probdedup.CompareFunc{probdedup.Levenshtein, probdedup.Levenshtein, probdedup.Levenshtein},
		Final:   probdedup.Thresholds{Lambda: 0.6, Mu: 0.8},
	}
	switch reduction {
	case "blocking":
		opts.Reduction = probdedup.BlockingCertain{Key: def}
	case "snm":
		opts.Reduction = probdedup.SNMCertain{Key: def, Window: 4}
	case "snm-alternatives":
		opts.Reduction = probdedup.SNMAlternatives{Key: def, Window: 4}
	case "snm-ranked":
		opts.Reduction = probdedup.SNMRanked{Key: def, Window: 4}
	case "snm-multipass":
		opts.Reduction = probdedup.SNMMultiPass{Key: def, Window: 4, Select: probdedup.TopWorlds, K: 3}
	case "blocking-cluster":
		opts.Reduction = probdedup.BlockingCluster{Key: def, K: 16, Seed: 1}
	default:
		b.Fatalf("unknown reduction %q", reduction)
	}
	return opts
}

// detectorBenchCorpus returns n resident tuples plus a pool of fresh
// arrivals with the same value distribution.
func detectorBenchCorpus(b *testing.B, n int) (resident, pool []*probdedup.XTuple, schema []string) {
	b.Helper()
	d := probdedup.GenerateDataset(probdedup.DefaultDatasetConfig(n, 29))
	u := d.Union()
	if len(u.Tuples) <= n {
		b.Fatalf("corpus too small: %d tuples for %d residents", len(u.Tuples), n)
	}
	return u.Tuples[:n], u.Tuples[n:], u.Schema
}

// BenchmarkDetectorAdd measures the per-tuple cost of one online
// arrival at fixed resident relation sizes: the point of the
// incremental engine is that this stays roughly flat from 1k to 10k
// residents, while re-running the batch pipeline from scratch
// (BenchmarkDetectStreamFromScratch, same sizes) grows with the
// relation. Each iteration adds one arrival and retires it again so
// the resident size genuinely stays at n regardless of b.N; ns/op
// therefore covers one Add plus one Remove (the Remove share is the
// pair retraction, plus the window re-entry comparisons for SNM).
//
// Every incremental reduction is in the sweep. The per-alternative
// sorted neighborhood and the epoch-based cluster blocking run at the
// same sizes as the certain-key methods — their per-arrival cost must
// stay roughly flat too (the cluster reseal is amortized over
// MaxDrift·n arrivals). The ranked sorted neighborhood avoids any
// from-scratch re-rank, but its order re-check is Θ(movers) per
// arrival — residents whose key span overlaps the arrival's, a
// data-dependent fraction that the synthetic corpus's fuzzy keys push
// toward Θ(n) — so it sweeps smaller sizes, as does the multi-pass
// method, which re-selects its possible-world sample per arrival
// (linear in the residents by construction).
func BenchmarkDetectorAdd(b *testing.B) {
	sweep := []struct {
		reduction string
		sizes     []int
	}{
		{"blocking", []int{1000, 5000, 10000}},
		{"snm", []int{1000, 5000, 10000}},
		{"snm-alternatives", []int{1000, 5000, 10000}},
		{"snm-ranked", []int{500, 1000, 2000}},
		{"blocking-cluster", []int{1000, 5000, 10000}},
		{"snm-multipass", []int{100, 250}},
	}
	for _, sw := range sweep {
		reduction := sw.reduction
		for _, n := range sw.sizes {
			b.Run(fmt.Sprintf("%s/resident=%d", reduction, n), func(b *testing.B) {
				resident, pool, schema := detectorBenchCorpus(b, n)
				det, err := probdedup.NewDetector(schema, detectorBenchOpts(b, schema, reduction), nil)
				if err != nil {
					b.Fatal(err)
				}
				if err := det.AddBatch(resident); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					x := pool[i%len(pool)].Clone()
					x.ID = fmt.Sprintf("arrival-%d", i)
					if err := det.Add(x); err != nil {
						b.Fatal(err)
					}
					if err := det.Remove(x.ID); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDetectorAddBatch measures online ingestion throughput at a
// fixed resident size: each iteration feeds one 256-tuple batch of
// fresh arrivals through AddBatch — the unit the -follow read-ahead
// loop produces under sustained traffic — and retires it again outside
// the timer. The workers sweep documents the parallel verification
// phase: at 4 workers the comparisons of a batch's net-new pairs fan
// out while state updates and delta emission stay sequential, so
// tuples/s scales with the cores actually available (GOMAXPROCS; on a
// single-core machine the sweep documents that the fan-out costs
// nothing) and classifications stay identical
// (TestDetectorWorkersDoNotChangeDeltaStream). Memoization is disabled
// so every pair pays its real comparison cost, as it would with
// genuinely new user data; with the default shared cache enabled,
// repeated values make ingestion faster but mask the scaling.
func BenchmarkDetectorAddBatch(b *testing.B) {
	const batchSize = 256
	for _, reduction := range []string{"blocking", "snm"} {
		for _, n := range []int{1000, 10000} {
			for _, workers := range []int{1, 4} {
				b.Run(fmt.Sprintf("%s/resident=%d/workers=%d", reduction, n, workers), func(b *testing.B) {
					resident, pool, schema := detectorBenchCorpus(b, n)
					opts := detectorBenchOpts(b, schema, reduction)
					opts.Workers = workers
					opts.CacheCapacity = -1
					det, err := probdedup.NewDetector(schema, opts, nil)
					if err != nil {
						b.Fatal(err)
					}
					if err := det.AddBatch(resident); err != nil {
						b.Fatal(err)
					}
					batch := make([]*probdedup.XTuple, batchSize)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for j := range batch {
							x := pool[(i*batchSize+j)%len(pool)].Clone()
							x.ID = fmt.Sprintf("arrival-%d-%d", i, j)
							batch[j] = x
						}
						if err := det.AddBatch(batch); err != nil {
							b.Fatal(err)
						}
						b.StopTimer()
						for j := range batch {
							if err := det.Remove(batch[j].ID); err != nil {
								b.Fatal(err)
							}
						}
						b.StartTimer()
					}
					b.ReportMetric(float64(batchSize)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
				})
			}
		}
	}
}

// BenchmarkIntegratorAdd measures the per-arrival cost of the full
// online integration stack — Detector classification plus
// component-local entity maintenance (re-group, re-fuse, re-derive
// uncertain context of touched components only). Each iteration adds
// one arrival and retires it again, so ns/op covers one Add plus one
// Remove at a genuinely fixed resident size. The point is that this
// is O(touched component), not O(residents): compare against
// BenchmarkBatchReResolve at the same size, which is what one arrival
// would cost if integration still required a batch Detect + Resolve
// over the whole relation (the acceptance target is ≥10× at 10k
// residents; measured gaps are 3–5 orders of magnitude).
func BenchmarkIntegratorAdd(b *testing.B) {
	for _, reduction := range []string{"blocking", "snm"} {
		for _, n := range []int{1000, 10000} {
			b.Run(fmt.Sprintf("%s/resident=%d", reduction, n), func(b *testing.B) {
				resident, pool, schema := detectorBenchCorpus(b, n)
				ig, err := probdedup.NewIntegrator(schema, detectorBenchOpts(b, schema, reduction), nil)
				if err != nil {
					b.Fatal(err)
				}
				if err := ig.AddBatch(resident); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					x := pool[i%len(pool)].Clone()
					x.ID = fmt.Sprintf("arrival-%d", i)
					if err := ig.Add(x); err != nil {
						b.Fatal(err)
					}
					if err := ig.Remove(x.ID); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBatchReResolve is the per-arrival integration cost without
// the incremental engine: re-running batch Detect plus Resolve over
// the whole resident relation, as required before the Integrator
// existed. Compare ns/op against BenchmarkIntegratorAdd.
func BenchmarkBatchReResolve(b *testing.B) {
	for _, reduction := range []string{"blocking", "snm"} {
		for _, n := range []int{1000, 10000} {
			b.Run(fmt.Sprintf("%s/resident=%d", reduction, n), func(b *testing.B) {
				resident, _, schema := detectorBenchCorpus(b, n)
				xr := probdedup.NewXRelation("bench", schema...).Append(resident...)
				opts := detectorBenchOpts(b, schema, reduction)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := probdedup.Detect(xr, opts)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := probdedup.Resolve(xr, res, opts.Final, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDetectStreamFromScratch is the cost one arrival would pay
// without the incremental engine: re-running the batch streaming
// pipeline over the whole resident relation. Compare ns/op against
// BenchmarkDetectorAdd at the same reduction and size.
func BenchmarkDetectStreamFromScratch(b *testing.B) {
	for _, reduction := range []string{"blocking", "snm"} {
		for _, n := range []int{1000, 5000, 10000} {
			b.Run(fmt.Sprintf("%s/resident=%d", reduction, n), func(b *testing.B) {
				resident, _, schema := detectorBenchCorpus(b, n)
				xr := probdedup.NewXRelation("bench", schema...).Append(resident...)
				opts := detectorBenchOpts(b, schema, reduction)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := probdedup.DetectStream(xr, opts, func(probdedup.PairMatch) bool { return true }); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// skewedBenchOpts is the scale-suite configuration: blocking on the
// skewed key, Levenshtein everywhere, thresholds wide enough for the
// q-gram count filter to prove non-duplicates out. The default shared
// similarity cache stays on — the symbol-keyed fast path is part of
// what the prefilter dimension measures.
func skewedBenchOpts(b *testing.B, schema []string, workers int, filtered bool) probdedup.Options {
	b.Helper()
	def, err := probdedup.ParseKeyDef("block:8", schema)
	if err != nil {
		b.Fatal(err)
	}
	return probdedup.Options{
		Compare:   []probdedup.CompareFunc{probdedup.Levenshtein, probdedup.Levenshtein, probdedup.Levenshtein},
		Reduction: probdedup.BlockingCertain{Key: def},
		Final:     probdedup.Thresholds{Lambda: 0.75, Mu: 0.9},
		Workers:   workers,
		PreFilter: filtered,
	}
}

// BenchmarkDetectorAddBatchSkewed is BenchmarkDetectorAddBatch on the
// skewed corpus the scale suite shares (dataset.Skewed) with the candidate pre-filter as a sweep dimension:
// the prefilter=true/false pairs at equal size and workers measure
// what constant-time rejection from precomputed symbol statistics buys
// when verification cost dominates (the committed evidence at 10k/100k
// residents lives in BENCH_scale.json; classifications are identical
// by the filter's soundness contract, enforced by
// TestPreFilterEquivalence). The 1000-resident size keeps the CI
// smoke affordable; set PDBENCH_LARGE=1 to sweep 10k and 100k too.
func BenchmarkDetectorAddBatchSkewed(b *testing.B) {
	const batchSize = 256
	sizes := []int{1000}
	if os.Getenv("PDBENCH_LARGE") != "" {
		sizes = append(sizes, 10000, 100000)
	}
	for _, n := range sizes {
		for _, filtered := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				b.Run(fmt.Sprintf("resident=%d/prefilter=%t/workers=%d", n, filtered, workers), func(b *testing.B) {
					c := dataset.Skewed(n, batchSize, 42)
					resident, pool, schema := c.Residents, c.Arrivals, c.Schema
					det, err := probdedup.NewDetector(schema, skewedBenchOpts(b, schema, workers, filtered), nil)
					if err != nil {
						b.Fatal(err)
					}
					if err := det.AddBatch(resident); err != nil {
						b.Fatal(err)
					}
					batch := make([]*probdedup.XTuple, batchSize)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for j := range batch {
							x := pool[j].Clone()
							x.ID = fmt.Sprintf("arrival-%d-%d", i, j)
							batch[j] = x
						}
						if err := det.AddBatch(batch); err != nil {
							b.Fatal(err)
						}
						b.StopTimer()
						for j := range batch {
							if err := det.Remove(batch[j].ID); err != nil {
								b.Fatal(err)
							}
						}
						b.StartTimer()
					}
					b.ReportMetric(float64(batchSize)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
				})
			}
		}
	}
}
