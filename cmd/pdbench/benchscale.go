package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"probdedup"
	"probdedup/internal/dataset"
)

// The scale suite measures what the symbol-plane candidate pre-filter
// buys on skewed data: residents whose blocking keys concentrate in a
// few hot blocks, so every arrival is enumerated against hundreds of
// candidates of which almost none can reach the decision threshold.
// Each configuration is run with the filter off and on; the report
// records the per-batch ingestion cost of both, the resulting speedup,
// and whether the declared match/possible sets were identical (the
// filter's soundness contract, checked on every run, not assumed).

// scaleEntry is one measured configuration of the scale suite.
type scaleEntry struct {
	Residents    int     `json:"residents"`
	Workers      int     `json:"workers"`
	PreFilter    bool    `json:"prefilter"`
	SeedNs       int64   `json:"seed_ns"`
	Batches      int     `json:"batches"`
	BatchSize    int     `json:"batch_size"`
	NsPerBatch   int64   `json:"ns_per_batch"`
	TuplesPerSec float64 `json:"tuples_per_sec"`
	Enumerated   int     `json:"enumerated"`
	Filtered     int     `json:"filtered"`
	Compared     int     `json:"compared"`
	Matches      int     `json:"matches"`
	Possible     int     `json:"possible"`
}

// scaleSpeedup pairs the off/on runs of one configuration: the
// ingestion speedup and the result-identity verdict.
type scaleSpeedup struct {
	Residents int     `json:"residents"`
	Workers   int     `json:"workers"`
	Speedup   float64 `json:"speedup"`
	Identical bool    `json:"identical"`
}

// scaleReport is the BENCH_scale.json payload.
type scaleReport struct {
	Suite    string         `json:"suite"`
	Seed     int64          `json:"seed"`
	Env      benchEnv       `json:"env"`
	Entries  []scaleEntry   `json:"entries"`
	Speedups []scaleSpeedup `json:"speedups"`
}

// scaleBatchSize is the arrival batch unit, matching the -follow
// read-ahead cap so the measured cost is the cost of the unit the CLI
// actually ingests.
const scaleBatchSize = 256

// scaleOpts is the measured configuration: blocking on the skewed key,
// Levenshtein on every attribute, thresholds wide enough that the
// q-gram count filter can prove non-duplicates out.
func scaleOpts(schema []string, workers int, filtered bool) (probdedup.Options, error) {
	def, err := probdedup.ParseKeyDef("block:8", schema)
	if err != nil {
		return probdedup.Options{}, err
	}
	return probdedup.Options{
		Compare:   []probdedup.CompareFunc{probdedup.Levenshtein, probdedup.Levenshtein, probdedup.Levenshtein},
		Reduction: probdedup.BlockingCertain{Key: def},
		Final:     probdedup.Thresholds{Lambda: 0.75, Mu: 0.9},
		Workers:   workers,
		PreFilter: filtered,
	}, nil
}

// seedChunk bounds one seeding AddBatch so the delta scratch buffer
// stays moderate at 100k residents.
const seedChunk = 4096

// runScaleOnce seeds the detector and ingests every arrival batch,
// returning the measurements and the declared M/P pair set of the
// final state (the identity witness).
func runScaleOnce(c dataset.SkewedCorpus, workers int, filtered bool) (scaleEntry, map[string]probdedup.Class, error) {
	opts, err := scaleOpts(c.Schema, workers, filtered)
	if err != nil {
		return scaleEntry{}, nil, err
	}
	det, err := probdedup.NewDetector(c.Schema, opts, nil)
	if err != nil {
		return scaleEntry{}, nil, err
	}
	start := time.Now() //pdlint:allow nowallclock -- benchmark stopwatch; measures the harness, not engine state
	for lo := 0; lo < len(c.Residents); lo += seedChunk {
		hi := lo + seedChunk
		if hi > len(c.Residents) {
			hi = len(c.Residents)
		}
		if err := det.AddBatch(c.Residents[lo:hi]); err != nil {
			return scaleEntry{}, nil, fmt.Errorf("seed: %w", err)
		}
	}
	seedNs := time.Since(start).Nanoseconds()

	batches := 0
	start = time.Now() //pdlint:allow nowallclock -- benchmark stopwatch; measures the harness, not engine state
	for lo := 0; lo+scaleBatchSize <= len(c.Arrivals); lo += scaleBatchSize {
		if err := det.AddBatch(c.Arrivals[lo : lo+scaleBatchSize]); err != nil {
			return scaleEntry{}, nil, fmt.Errorf("ingest: %w", err)
		}
		batches++
	}
	ingestNs := time.Since(start).Nanoseconds()

	declared := map[string]probdedup.Class{}
	r := det.Flush()
	for p := range r.Matches {
		declared[p.A+"\x00"+p.B] = probdedup.ClassM
	}
	for p := range r.Possible {
		declared[p.A+"\x00"+p.B] = probdedup.ClassP
	}

	st := det.Stats()
	ingested := batches * scaleBatchSize
	entry := scaleEntry{
		Residents:    len(c.Residents),
		Workers:      workers,
		PreFilter:    filtered,
		SeedNs:       seedNs,
		Batches:      batches,
		BatchSize:    scaleBatchSize,
		NsPerBatch:   ingestNs / int64(batches),
		TuplesPerSec: float64(ingested) / (float64(ingestNs) / 1e9),
		Enumerated:   st.Enumerated,
		Filtered:     st.Filtered,
		Compared:     st.Compared,
		Matches:      st.Matches,
		Possible:     st.Possible,
	}
	return entry, declared, nil
}

// sameDeclared reports whether two declared pair→class maps are
// identical.
func sameDeclared(a, b map[string]probdedup.Class) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// runBenchScale measures filtered-vs-unfiltered online ingestion over
// the skewed corpus for every residents × workers configuration and
// writes BENCH_scale.json. batches ≤ 0 picks the default per size:
// 8 per run, scaled down to 4 at 100k so those configurations stay
// affordable.
func runBenchScale(path string, sizes []int, workerSweep []int, seed int64, batches int) error {
	report := scaleReport{Suite: "scale-prefilter", Seed: seed, Env: captureEnv()}
	sort.Ints(sizes)
	for _, n := range sizes {
		batches := batches
		if batches <= 0 {
			batches = 8
			if n >= 100000 {
				batches = 4
			}
		}
		c := dataset.Skewed(n, batches*scaleBatchSize, seed)
		for _, w := range workerSweep {
			var (
				perBatch [2]int64
				declared [2]map[string]probdedup.Class
			)
			for i, filtered := range []bool{false, true} {
				entry, decl, err := runScaleOnce(c, w, filtered)
				if err != nil {
					return fmt.Errorf("residents=%d workers=%d prefilter=%t: %w", n, w, filtered, err)
				}
				report.Entries = append(report.Entries, entry)
				perBatch[i] = entry.NsPerBatch
				declared[i] = decl
				fmt.Fprintf(os.Stderr, "pdbench: residents=%d workers=%d prefilter=%t ns/batch=%d filtered=%d/%d\n",
					n, w, filtered, entry.NsPerBatch, entry.Filtered, entry.Enumerated)
			}
			report.Speedups = append(report.Speedups, scaleSpeedup{
				Residents: n,
				Workers:   w,
				Speedup:   float64(perBatch[0]) / float64(perBatch[1]),
				Identical: sameDeclared(declared[0], declared[1]),
			})
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
