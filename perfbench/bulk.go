package main

// bulk_load: the paper's batch job and the seeding/recovery fold path,
// in process, without the daemon.

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"probdedup"
	"probdedup/internal/cliopts"
)

const (
	bulkTuples   = 3000
	bulkArrivals = 300 // single-tuple arrivals timed per round
	latWindows   = 6   // slices they are timed in (two per full method)
	// bulkStreamed further arrivals are added to the bulk-loaded
	// detector of each exact-tier method in bulkChunk-tuple AddBatch
	// calls (ingest_tps). BlockingCluster is left out: its arrivals
	// reseal the clustering every few batches, which would dominate.
	bulkStreamed = 1920
	bulkChunk    = 64
)

// bulkMethods are the reductions bulk_load times in full; SNMRanked
// runs on a prefix (see rankedPrefix). exact marks the methods whose
// Flush must equal DetectStream after a bulk-load.
var bulkMethods = []struct {
	name  string
	exact bool
}{
	{"snm-certain", true},
	{"blocking-certain", true},
	{"blocking-cluster", false},
}

// methodOptions builds the options for a named reduction with
// pdedup's default shape parameters (window 3, seed 1).
func methodOptions(ec engineConfig, schema []string, name string) (probdedup.Options, error) {
	def, err := probdedup.ParseKeyDef(ec.key, schema)
	if err != nil {
		return probdedup.Options{}, err
	}
	m, err := cliopts.Reduction(name, def, 3, 8, 0, 1)
	if err != nil {
		return probdedup.Options{}, err
	}
	return ec.options(schema, m)
}

func runBulkLoad(r *run) error {
	ec := engineConfig{compare: "levenshtein", key: "name:3+job:2", lambda: 0.6, mu: 0.8}
	c := genPersons(r.seed, bulkTuples, 0, bulkArrivals+bulkStreamed, 0)

	// Set-up: load the corpus from its text encoding. It is timed
	// again once per latency slice below, so that the median of these
	// 10 ms decodes spans the whole run.
	var text bytes.Buffer
	xr := probdedup.NewXRelation("corpus", c.schema...)
	for _, x := range c.residents {
		xr.Append(x)
	}
	if err := probdedup.EncodeXRelation(&text, xr); err != nil {
		return err
	}
	var setups []float64
	decode := func() (*probdedup.XRelation, error) {
		t0 := time.Now()
		loaded, err := probdedup.DecodeXRelation(bytes.NewReader(text.Bytes()))
		setups = append(setups, time.Since(t0).Seconds())
		return loaded, err
	}
	xr, err := decode()
	if err != nil {
		return err
	}

	opts := make([]probdedup.Options, len(bulkMethods))
	for i, m := range bulkMethods {
		if opts[i], err = methodOptions(ec, c.schema, m.name); err != nil {
			return err
		}
	}

	// Rounds until the run's time is up; every timing is a median over
	// rounds.
	var (
		batchS, bulkS, rankedS, allocMB, gcShare []float64
		perStream                                = make([][]float64, len(bulkMethods))
		perBulk                                  = make([][]float64, len(bulkMethods))
		rankedStreamS, latMs, streamTPS          []float64
		lastStats                                = make([]probdedup.DetectorStats, len(bulkMethods))
		streamStats                              probdedup.StreamStats
		rounds, streamedOps                      int
	)
	start := time.Now()
	for rounds == 0 || time.Since(start).Seconds() < r.seconds {
		rounds++
		var batch, bulk, stream, alloc, gc float64
		streamed := 0
		// The latency arrivals go into a bulk-loaded BlockingCertain
		// detector in latWindows slices between the round's other
		// timings, each slice followed by a timed corpus decode: a short
		// call follows the host's second-to-second speed, so samples
		// from one moment of the round vary by ±25%.
		latDet, err := bulkLoad(xr, opts[1])
		if err != nil {
			return err
		}
		nextLat := 0
		latWindow := func() error {
			hi := min(nextLat+bulkArrivals/latWindows, bulkArrivals)
			lat, err := arrivalLatencies(latDet.det, c.arrivals[nextLat:hi])
			if err != nil {
				return err
			}
			latMs = append(latMs, lat...)
			nextLat = hi
			_, err = decode()
			return err
		}
		for i, m := range bulkMethods {
			want, st, took, err := streamDeclared(xr, opts[i])
			if err != nil {
				return fmt.Errorf("%s DetectStream: %w", m.name, err)
			}
			if err := latWindow(); err != nil {
				return err
			}
			b, err := bulkLoad(xr, opts[i])
			if err != nil {
				return fmt.Errorf("%s bulk-load: %w", m.name, err)
			}
			if err := latWindow(); err != nil {
				return err
			}
			if d := want.diff(declaredOf(b.flush)); m.exact && d != "" {
				r.fail("%s: bulk-load Flush differs from DetectStream: %s", m.name, d)
			}
			if m.name == "blocking-certain" {
				streamStats = st
			}
			if m.exact {
				streamTook, err := streamArrivals(b.det, c.arrivals[bulkArrivals:])
				if err != nil {
					return fmt.Errorf("%s streamed AddBatch: %w", m.name, err)
				}
				stream += streamTook.Seconds()
				streamed += bulkStreamed
			}
			perStream[i] = append(perStream[i], took.Seconds())
			perBulk[i] = append(perBulk[i], b.wall.Seconds())
			lastStats[i] = b.stats
			batch += took.Seconds()
			bulk += b.wall.Seconds()
			alloc += b.allocMB
			gc += b.gcShare / float64(len(bulkMethods))
		}
		ranked, rankedStream, err := r.rankedBulkLoad(xr, ec)
		if err != nil {
			return err
		}
		batchS = append(batchS, batch+rankedStream.Seconds())
		streamTPS = append(streamTPS, float64(streamed)/stream)
		streamedOps += streamed
		bulkS = append(bulkS, bulk)
		allocMB = append(allocMB, alloc)
		gcShare = append(gcShare, gc)
		rankedS = append(rankedS, ranked.Seconds())
		rankedStreamS = append(rankedStreamS, rankedStream.Seconds())
	}

	rec, err := durableRecover(stateDir(r, "recover"), xr, opts[1])
	if err != nil {
		return err
	}

	attempted := len(bulkMethods)*len(xr.Tuples)*rounds + streamedOps + len(latMs)
	r.res.Attempted = attempted
	r.setE2E("ingest_tps", median(streamTPS), rounds)
	r.setE2E("lat_p50_ms", quantile(latMs, 0.5), len(latMs))
	r.setInfo("lat_p99_ms", "ms", quantile(latMs, 0.99), len(latMs))
	r.setE2E("setup_s", median(setups), len(setups))
	r.setE2E("peak_rss_mb", vmHWM(os.Getpid()), 1)
	r.setE2E("recover_s", rec.Seconds(), reopenReps)
	r.setE2E("batch_s", median(batchS), rounds)
	r.setE2E("bulkload_s", median(bulkS), rounds)
	r.setE2E("bulkload_ranked_s", median(rankedS), rounds)
	r.setE2E("alloc_mb", median(allocMB), rounds)

	if !r.trace {
		return nil
	}
	for i, m := range bulkMethods {
		key := "ssr." + strings.ReplaceAll(m.name, "-", "_")
		r.setLayer(key+".stream_s", median(perStream[i]))
		r.setLayer(key+".bulkload_s", median(perBulk[i]))
	}
	r.setLayer("ssr.snm_ranked.stream_s", median(rankedStreamS))
	r.setLayer("ssr.snm_ranked.bulkload_s", median(rankedS))
	bc := lastStats[1]
	n := float64(len(xr.Tuples))
	r.setLayer("core.compared_per_op", float64(bc.Compared)/n)
	r.setLayer("ssr.enumerated_per_op", float64(bc.Enumerated)/n)
	r.setLayer("ssr.filtered_ratio", ratio(float64(bc.Filtered), float64(bc.Enumerated)))
	r.setLayer("avm.cache_hit_ratio", ratio(float64(streamStats.Cache.Hits), float64(streamStats.Cache.Hits+streamStats.Cache.Misses)))
	reseals := 0.0
	if st := lastStats[2].Staleness; st != nil {
		reseals = float64(st.Epoch)
	}
	r.setLayer("cluster.reseals", reseals)
	r.setLayer("go.gc_cpu_share", median(gcShare))

	// Traced replay: one bulk-load request per method, repeated on
	// fresh engines so that single-call timing noise averages out.
	lines, err := encodeOps(insertsOf(xr.Tuples))
	if err != nil {
		return err
	}
	var all replayResult
	for rep := 0; rep < refReps; rep++ {
		for i := range bulkMethods {
			res, err := r.runReplay(replayPlan{
				schema: c.schema, opts: opts[i], shards: 1, requests: [][][]byte{lines},
			}, time.Duration(r.seconds*float64(time.Second)))
			if err != nil {
				return err
			}
			all = all.merge(res)
		}
	}
	return r.reportReplay(all)
}

// arrivalLatencies adds each arrival to a bulk-loaded detector as its
// own AddBatch and returns the per-call times in ms; the call returns
// once the arrival's deltas are emitted.
func arrivalLatencies(det *probdedup.Detector, arrivals []op) ([]float64, error) {
	lat := make([]float64, 0, len(arrivals))
	runtime.GC()
	for _, o := range arrivals {
		t0 := time.Now()
		if err := det.AddBatch([]*probdedup.XTuple{o.x}); err != nil {
			return nil, err
		}
		lat = append(lat, time.Since(t0).Seconds()*1000)
	}
	return lat, nil
}

// streamArrivals adds the arrivals to a loaded detector in
// bulkChunk-tuple AddBatch calls and returns the time they took.
func streamArrivals(det *probdedup.Detector, arrivals []op) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	for lo := 0; lo < len(arrivals); lo += bulkChunk {
		chunk := make([]*probdedup.XTuple, 0, bulkChunk)
		for _, o := range arrivals[lo:min(lo+bulkChunk, len(arrivals))] {
			chunk = append(chunk, o.x)
		}
		if err := det.AddBatch(chunk); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// merge appends another replay's spans (re-indexing parents) and sums
// its counters.
func (a replayResult) merge(b replayResult) replayResult {
	base, ops := len(a.spans), 0
	if len(a.spans) > 0 {
		ops = a.spans[len(a.spans)-1].Op + 1
	}
	for _, s := range b.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		s.Op += ops
		a.spans = append(a.spans, s)
	}
	a.tracedWall += b.tracedWall
	a.plainWall += b.plainWall
	a.tuples += b.tuples
	a.ops += b.ops
	a.compared += b.compared
	a.requests += b.requests
	return a
}
