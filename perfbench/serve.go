package main

// The serving workloads: pdedupd as a subprocess on loopback, one
// ingest connection and one SSE connection.

import (
	"bytes"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"probdedup"
)

// serveSpec describes one serving workload.
type serveSpec struct {
	c         corpus
	ec        engineConfig
	integrate bool // -integrate: entity deltas on /v1/entities
	durable   bool // -state on a disk-backed directory
	// rate is the open-loop rate and capacity the closed-loop rate
	// (ops/s) the baseline commit sustains; together they size both
	// load phases (see phaseSizes), so every commit does the same work
	// on the same inputs.
	rate, capacity float64
	openReq        int // ops per open-loop request
	closedReq      int // ops per closed-loop request
	// setupRounds is how often set-up runs; setup_s is their median.
	setupRounds int
	// timingReps repeats the library timings; the shorter they are
	// (0.15 s for batch_s on serve_churn, 2 s on serve_hot), the more
	// repetitions their median needs.
	timingReps int
	// expectDelta reports whether an open-loop insert must produce a
	// delta naming it (a latency sample).
	expectDelta func(o op) bool
	// sentinel builds the k-th barrier insert(s): tuples in a block of
	// their own whose delta proves every earlier delta of its shard
	// was delivered.
	sentinel func(k int) []*probdedup.XTuple
}

// daemonArgs renders the workload as pdedupd flags, with -state dir
// when dir is set.
func (spec serveSpec) daemonArgs(dir string) []string {
	args := append([]string{"-shards", fmt.Sprint(shards)}, spec.ec.daemonArgs(spec.c.schema)...)
	if spec.integrate {
		args = append(args, "-integrate")
	}
	if dir != "" {
		args = append(args, "-state", dir)
	}
	return args
}

// phaseSizes returns the open-loop and closed-loop operation counts
// for a run: the open loop offers rate for two thirds of it, the
// closed loop sends what the baseline applies in the last third.
func phaseSizes(rate, capacity, seconds float64) (openOps, closedOps int) {
	return int(rate * seconds * 2 / 3), int(capacity * seconds / 3)
}

// Closed-loop capacities (ops/s) of the commit the benchmark was
// defined on, measured on a 2-vCPU machine; they size the closed loops.
const (
	hotCapacity   = 1200
	churnCapacity = 5000
)

const (
	shards      = 2
	seedReq     = 256
	setupRounds = 3
	refReps     = 3 // traced bulk replays
	// crashRestarts times recovery of the same crashed state; each
	// restart replays the whole WAL (about 6 s on 2 vCPUs).
	crashRestarts = 2
	// closedSegments splits the closed loop; warmupFrac: latency
	// samples are taken after the first 1/warmupFrac of the open loop.
	closedSegments = 4
	warmupFrac     = 10
)

// restart starts pdedupd on a crashed state dir, times until every
// resident is back, and SIGKILLs it again so the state stays the one
// the crash left.
func (r *run) restart(spec serveSpec, dir string, expected int) (time.Duration, error) {
	t := time.Now()
	d, err := startDaemon(r.pdedupd, spec.daemonArgs(dir))
	if err != nil {
		return 0, fmt.Errorf("restart: %w", err)
	}
	defer d.kill()
	if err := newClient(d.base).waitApplied(expected, 120*time.Second); err != nil {
		r.fail("after SIGKILL and restart: %v", err)
	}
	return time.Since(t), nil
}

func runServeHot(r *run) error {
	const residents = 16000
	openOps, closedOps := phaseSizes(r.hotRate, hotCapacity, r.seconds)
	c := genSkewed(r.seed, residents, openOps+closedOps)
	spec := serveSpec{
		c:           c,
		ec:          engineConfig{compare: "levenshtein", key: "block:8", lambda: 0.75, mu: 0.9, prefilter: true},
		rate:        r.hotRate,
		capacity:    hotCapacity,
		openReq:     1,
		closedReq:   256,
		setupRounds: setupRounds,
		timingReps:  3,
		expectDelta: func(o op) bool { return o.dupOf != "" },
		sentinel: func(k int) []*probdedup.XTuple {
			block := fmt.Sprintf("s%07d", k)
			name := strings.Repeat("sentinel", 5)
			return []*probdedup.XTuple{
				probdedup.NewXTuple(fmt.Sprintf("s%03da", k), probdedup.NewAlt(1, name, name, block)),
				probdedup.NewXTuple(fmt.Sprintf("s%03db", k), probdedup.NewAlt(1, name, name, block)),
			}
		},
	}
	return r.serve(spec)
}

func runServeChurn(r *run) error {
	// Removals churn the open loop only: each one flushes its shard's
	// batch and costs an fsync of its own, and with them in the closed
	// loop its rate followed the host's disk (ten-seed spread 0.30).
	const residents = 8000
	openOps, closedOps := phaseSizes(r.churnRate, churnCapacity, r.seconds)
	c := genPersons(r.seed, residents, openOps, closedOps, 0.2)
	spec := serveSpec{
		c:         c,
		ec:        engineConfig{compare: "levenshtein", key: "name:3+job:2", lambda: 0.6, mu: 0.8},
		integrate: true,
		durable:   true,
		rate:      r.churnRate,
		capacity:  churnCapacity,
		openReq:   2,
		closedReq: 64,
		// Durable set-up pays an fsync per coalesced batch, so it
		// follows the host's disk: its median needs more rounds.
		setupRounds: 7,
		timingReps:  5,
		expectDelta: func(op) bool { return true },
		sentinel: func(k int) []*probdedup.XTuple {
			return []*probdedup.XTuple{probdedup.NewXTuple(fmt.Sprintf("s%03d", k),
				probdedup.NewAlt(1, fmt.Sprintf("%03d sentinel", k), "sentinel", "nowhere"))}
		},
	}
	return r.serve(spec)
}

// tracker folds one daemon's SSE stream: the live declared pair set
// (match deltas) or entity set (entity deltas), plus the latency of
// every awaited arrival.
type tracker struct {
	mu        sync.Mutex
	integrate bool
	pairs     declared
	entities  map[string][]string
	// pending maps an awaited tuple ID to its scheduled send time
	// (zero: awaited without a latency sample).
	pending map[string]time.Time
	latMs   []float64
	// shardOf records the shard of each watched sentinel's delta.
	watch   map[string]bool
	shardOf map[string]int
}

func newTracker(integrate bool) *tracker {
	return &tracker{
		integrate: integrate,
		pairs:     declared{},
		entities:  map[string][]string{},
		pending:   map[string]time.Time{},
		watch:     map[string]bool{},
		shardOf:   map[string]int{},
	}
}

func (t *tracker) on(ev *sseEvent, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ids []string
	if t.integrate {
		for _, f := range ev.From {
			delete(t.entities, f)
		}
		if ev.Event == "retired" {
			delete(t.entities, ev.ID)
		} else {
			t.entities[ev.ID] = ev.Members
		}
		ids = ev.Members
	} else {
		k := pairKey(ev.A, ev.B)
		if ev.Kind == "drop" || ev.Class == "u" {
			delete(t.pairs, k)
		} else {
			t.pairs[k] = ev.Class
		}
		ids = []string{ev.A, ev.B}
	}
	for _, id := range ids {
		if due, ok := t.pending[id]; ok {
			if !due.IsZero() {
				t.latMs = append(t.latMs, at.Sub(due).Seconds()*1000)
			}
			delete(t.pending, id)
		}
		if t.watch[id] {
			t.shardOf[id] = ev.Shard
		}
	}
}

func (t *tracker) await(id string, due time.Time) {
	t.mu.Lock()
	t.pending[id] = due
	t.mu.Unlock()
}

// encodeOps renders every operation as one NDJSON line.
func encodeOps(ops []op) ([][]byte, error) {
	lines := make([][]byte, len(ops))
	for i, o := range ops {
		var b bytes.Buffer
		if o.x == nil {
			fmt.Fprintf(&b, "{\"remove\":%q}\n", o.remove)
		} else if err := probdedup.EncodeXTupleJSON(&b, o.x); err != nil {
			return nil, err
		}
		if b.Len() == 0 || b.Bytes()[b.Len()-1] != '\n' {
			b.WriteByte('\n')
		}
		lines[i] = b.Bytes()
	}
	return lines, nil
}

func insertsOf(xs []*probdedup.XTuple) []op {
	ops := make([]op, len(xs))
	for i, x := range xs {
		ops[i] = op{x: x}
	}
	return ops
}

// session is the final daemon of a serving run with its client,
// subscription and fold.
type session struct {
	d   *daemon
	cl  *client
	sub *subscription
	tr  *tracker
}

// startSession starts pdedupd, subscribes to its delta stream, seeds
// the residents and waits until all are applied. It returns the
// session and its set-up time (daemon start to residents applied).
func (r *run) startSession(spec serveSpec, dir string, seedLines [][]byte) (*session, time.Duration, error) {
	path := "/v1/deltas"
	if spec.integrate {
		path = "/v1/entities"
	}
	d, err := startDaemon(r.pdedupd, spec.daemonArgs(dir))
	if err != nil {
		return nil, 0, err
	}
	s := &session{d: d, cl: newClient(d.base), tr: newTracker(spec.integrate)}
	s.sub, err = subscribe(d.base, path, s.tr.on)
	if err != nil {
		d.kill()
		return nil, 0, err
	}
	for lo := 0; lo < len(seedLines); lo += seedReq {
		if _, err := s.cl.postAll(seedLines[lo:min(lo+seedReq, len(seedLines))]); err != nil {
			s.close()
			return nil, 0, fmt.Errorf("seeding: %w", err)
		}
	}
	if err := s.cl.waitApplied(len(seedLines), 120*time.Second); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("seeding: %w", err)
	}
	return s, time.Since(d.started), nil
}

// close stops the daemon gracefully and ends the subscription.
func (s *session) close() error {
	err := s.d.stop()
	s.sub.wait(10 * time.Second)
	s.sub.close()
	return err
}

// phaseStats accumulates the request-level counters of the measured
// phases.
type phaseStats struct {
	attempted, failed, requests, rejects int
	postMs, lateMs                       []float64
}

// serve runs one serving workload end to end.
func (r *run) serve(spec serveSpec) error {
	// The load generator allocates little per operation; collecting
	// rarely keeps its own pauses out of the latency it measures. The
	// in-process library timings run at the default again.
	gcPercent := debug.SetGCPercent(400)
	defer debug.SetGCPercent(gcPercent)
	c := spec.c
	seedLines, err := encodeOps(insertsOf(c.residents))
	if err != nil {
		return err
	}
	lines, err := encodeOps(c.arrivals)
	if err != nil {
		return err
	}

	// Set-up, several times: the median is setup_s; the last daemon
	// serves the run.
	var setups []float64
	var s *session
	dir := ""
	for i := 0; i < spec.setupRounds; i++ {
		if spec.durable {
			dir = stateDir(r, fmt.Sprint(i))
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		var took time.Duration
		s, took, err = r.startSession(spec, dir, seedLines)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		if i < spec.setupRounds-1 {
			if err := s.close(); err != nil {
				return fmt.Errorf("stopping set-up daemon: %w", err)
			}
			if dir != "" {
				os.RemoveAll(dir)
			}
		}
	}
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	alive := true
	defer func() {
		if alive {
			s.d.kill()
			s.sub.close()
		}
	}()

	var sampler *queueSampler
	if r.trace {
		sampler = startQueueSampler(s.cl)
	}
	var ps phaseStats
	expected := len(c.residents)
	delta := func(o op) int {
		if o.x != nil {
			return 1
		}
		return -1
	}

	// Open loop: requests leave on a fixed schedule whatever the
	// daemon's speed; latency runs from the scheduled send time.
	openOps, closedOps := phaseSizes(spec.rate, spec.capacity, r.seconds)
	rate := spec.rate
	t0 := time.Now()
	next := 0
	for next < openOps {
		hi := min(next+spec.openReq, openOps)
		due := t0.Add(time.Duration(float64(next) / rate * float64(time.Second)))
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		for _, o := range c.arrivals[next:hi] {
			if o.x != nil && spec.expectDelta(o) {
				if next < openOps/warmupFrac {
					s.tr.await(o.x.ID, time.Time{}) // warm-up: checked, not sampled
				} else {
					s.tr.await(o.x.ID, due)
				}
			}
			expected += delta(o)
		}
		sent := time.Now()
		ps.lateMs = append(ps.lateMs, sent.Sub(due).Seconds()*1000)
		rej, err := s.cl.postAll(lines[next:hi])
		ps.postMs = append(ps.postMs, time.Since(sent).Seconds()*1000)
		ps.requests += 1 + rej
		ps.rejects += rej
		ps.attempted += hi - next
		if err != nil {
			return fmt.Errorf("open loop: %w", err)
		}
		next = hi
	}
	lastLate := ps.lateMs[len(ps.lateMs)-1]
	fmt.Printf("open loop: %d ops at %.0f ops/s in %.2fs; generator late p50 %.3fms p99 %.3fms last %.3fms; %d rejects\n",
		openOps, rate, time.Since(t0).Seconds(), quantile(ps.lateMs, 0.5), quantile(ps.lateMs, 0.99), lastLate, ps.rejects)
	if lastLate > 500 {
		r.fail("open-loop generator ended %.0fms behind its schedule: the offered rate was not sustained, the run is invalid", lastLate)
	}
	if err := s.cl.waitApplied(expected, 120*time.Second); err != nil {
		return fmt.Errorf("open loop: %w", err)
	}

	// Closed loop: multi-op requests back to back, in segments that
	// each end once the daemon has applied them; ingest_tps is the
	// median segment rate.
	var segRates []float64
	for seg := 0; seg < closedSegments; seg++ {
		end := len(c.arrivals) - (closedSegments-1-seg)*closedOps/closedSegments
		from, t1 := next, time.Now()
		for next < end {
			hi := min(next+spec.closedReq, end)
			for _, o := range c.arrivals[next:hi] {
				if o.x != nil && spec.expectDelta(o) {
					s.tr.await(o.x.ID, time.Time{})
				}
				expected += delta(o)
			}
			rej, err := s.cl.postAll(lines[next:hi])
			ps.requests += 1 + rej
			ps.rejects += rej
			ps.attempted += hi - next
			if err != nil {
				return fmt.Errorf("closed loop: %w", err)
			}
			next = hi
		}
		if err := s.cl.waitApplied(expected, 120*time.Second); err != nil {
			return fmt.Errorf("closed loop: %w", err)
		}
		segRates = append(segRates, float64(next-from)/time.Since(t1).Seconds())
	}
	if sampler != nil {
		sampler.stop()
	}

	// Barrier: sentinel inserts until every shard has delivered one.
	sentinels, err := r.barrier(spec, s)
	if err != nil {
		return err
	}
	expected += len(sentinels)
	st, err := s.cl.stats()
	if err != nil {
		return err
	}
	peakMB := s.d.peakRSSMB()
	sseBytes, ended, sseErr := s.sub.state()
	ended = ended || sseErr != nil

	// Missing deltas: every awaited arrival must have been named.
	s.tr.mu.Lock()
	missing := len(s.tr.pending)
	lat := append([]float64(nil), s.tr.latMs...)
	s.tr.mu.Unlock()
	if missing > 0 {
		r.fail("%d awaited arrivals never appeared in the delta stream", missing)
	}
	if ended {
		r.fail("the delta subscriber was dropped or broke: %v", sseErr)
	}
	ps.failed += missing

	final := survivors(c, next, sentinels)
	if len(final.Tuples) != expected {
		return fmt.Errorf("internal: %d survivors, expected %d", len(final.Tuples), expected)
	}

	var recoverS float64
	recoverN := crashRestarts
	var walOpsPerRecord, walBytesPerOp float64
	if spec.durable {
		// Crash: SIGKILL, then restart on the same state and time until
		// every resident is back. Recovery does not rewrite the state,
		// so each further SIGKILL and restart recovers the same crash.
		s.d.kill()
		s.sub.close()
		alive = false
		if r.trace {
			walOpsPerRecord, walBytesPerOp, err = walShape(dir, len(c.schema))
			if err != nil {
				return err
			}
		}
		var recs []float64
		for i := 0; i < crashRestarts; i++ {
			rec, err := r.restart(spec, dir, expected)
			if err != nil {
				return err
			}
			recs = append(recs, rec.Seconds())
		}
		recoverS = median(recs)
	} else {
		alive = false
		if err := s.close(); err != nil {
			return fmt.Errorf("stopping daemon: %w", err)
		}
	}

	// Output check against the in-process batch reference over the
	// surviving inputs (two workers: its time is not reported).
	debug.SetGCPercent(gcPercent)
	opts, err := spec.ec.options(c.schema, nil)
	if err != nil {
		return err
	}
	checkOpts := opts
	checkOpts.Workers = 2
	want, _, _, err := streamDeclared(final, checkOpts)
	if err != nil {
		return err
	}
	if spec.integrate {
		if err := r.checkEntities(final, checkOpts, s.tr.entities); err != nil {
			return err
		}
	} else if d := want.diff(s.tr.pairs); d != "" {
		r.fail("SSE fold differs from batch Detect: %s", d)
	}

	// Library-side timings on the seed residents, the relation every
	// set-up and every restart folds: medians of spec.timingReps repetitions.
	seeded := probdedup.NewXRelation("residents", c.schema...)
	for _, x := range c.residents {
		seeded.Append(x)
	}
	var batchT, bulkT, allocs, rankedT, gcShares []float64
	var rankedStream time.Duration
	for i := 0; i < spec.timingReps; i++ {
		_, _, took, err := streamDeclared(seeded, opts)
		if err != nil {
			return err
		}
		b, err := bulkLoad(seeded, opts)
		if err != nil {
			return err
		}
		ranked, rs, err := r.rankedBulkLoad(seeded, spec.ec)
		if err != nil {
			return err
		}
		batchT = append(batchT, took.Seconds())
		bulkT = append(bulkT, b.wall.Seconds())
		allocs = append(allocs, b.allocMB)
		gcShares = append(gcShares, b.gcShare)
		rankedT = append(rankedT, ranked.Seconds())
		rankedStream = rs
	}
	if !spec.durable {
		rec, err := durableRecover(stateDir(r, "recover"), seeded, opts)
		if err != nil {
			return err
		}
		recoverS, recoverN = rec.Seconds(), reopenReps
	}

	r.res.Attempted, r.res.Failed = ps.attempted, ps.failed
	r.setE2E("ingest_tps", median(segRates), closedOps)
	r.setE2E("lat_p50_ms", quantile(lat, 0.5), len(lat))
	r.setInfo("lat_p99_ms", "ms", quantile(lat, 0.99), len(lat))
	r.setE2E("setup_s", median(setups), len(setups))
	r.setE2E("peak_rss_mb", peakMB, 1)
	r.setE2E("recover_s", recoverS, recoverN)
	r.setE2E("batch_s", median(batchT), spec.timingReps)
	r.setE2E("bulkload_s", median(bulkT), spec.timingReps)
	r.setE2E("bulkload_ranked_s", median(rankedT), spec.timingReps)
	r.setE2E("alloc_mb", median(allocs), spec.timingReps)
	if len(lat) < 100 {
		r.fail("only %d latency samples", len(lat))
	}

	if r.trace {
		totalOps := float64(len(c.residents) + next + len(sentinels))
		skew := 0.0
		var per []float64
		for _, sh := range st.PerShard {
			per = append(per, float64(sh.Detector.Residents))
		}
		if m := mean(per); m > 0 {
			skew = quantile(per, 1) / m
		}
		drops := 0.0
		if ended {
			drops = 1
		}
		r.setLayer("pdedupd.post_ms_p50", quantile(ps.postMs, 0.5))
		r.setLayer("pdedupd.post_ms_p99", quantile(ps.postMs, 0.99))
		r.setLayer("pdedupd.sse_bytes_per_op", float64(sseBytes)/totalOps)
		r.setLayer("pdedupd.subscriber_drops", drops)
		r.setLayer("shard.queue_depth_mean", mean(sampler.depths))
		r.setLayer("shard.queue_depth_max", quantile(sampler.depths, 1))
		r.setLayer("shard.reject_ratio", ratio(float64(ps.rejects), float64(ps.requests)))
		r.setLayer("shard.resident_skew", skew)
		r.setLayer("ssr.enumerated_per_op", float64(st.Detector.Enumerated)/totalOps)
		r.setLayer("ssr.filtered_ratio", ratio(float64(st.Detector.Filtered), float64(st.Detector.Enumerated)))
		r.setLayer("core.compared_per_op", float64(st.Detector.Compared)/totalOps)
		r.setLayer("avm.cache_hit_ratio", st.cacheHitRatio())
		r.setLayer("wal.ops_per_record", walOpsPerRecord)
		r.setLayer("wal.bytes_per_op", walBytesPerOp)
		r.setLayer("gen.late_ms_p99", quantile(ps.lateMs, 0.99))
		r.setLayer("go.gc_cpu_share", median(gcShares))
		r.setLayer("ssr.blocking_certain.stream_s", median(batchT))
		r.setLayer("ssr.blocking_certain.bulkload_s", median(bulkT))
		r.setLayer("ssr.snm_ranked.stream_s", rankedStream.Seconds())
		r.setLayer("ssr.snm_ranked.bulkload_s", median(rankedT))
		return r.tracedReplay(spec, openOps, next, sentinels)
	}
	return nil
}

// barrier inserts sentinels until each shard has delivered a sentinel
// delta; per-shard FIFO delivery then guarantees every earlier delta
// has been folded. It returns the sentinel tuples (now residents).
func (r *run) barrier(spec serveSpec, s *session) ([]*probdedup.XTuple, error) {
	var all []*probdedup.XTuple
	for k := 0; k < 64; k++ {
		xs := spec.sentinel(k)
		s.tr.mu.Lock()
		for _, x := range xs {
			s.tr.watch[x.ID] = true
		}
		s.tr.mu.Unlock()
		lines, err := encodeOps(insertsOf(xs))
		if err != nil {
			return nil, err
		}
		if _, err := s.cl.postAll(lines); err != nil {
			return nil, fmt.Errorf("barrier: %w", err)
		}
		all = append(all, xs...)
		deadline := time.Now().Add(30 * time.Second)
		for {
			s.tr.mu.Lock()
			_, seen := s.tr.shardOf[xs[0].ID]
			covered := map[int]bool{}
			for _, sh := range s.tr.shardOf {
				covered[sh] = true
			}
			s.tr.mu.Unlock()
			if len(covered) == shards {
				return all, nil
			}
			if seen {
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("barrier: sentinel %s never delivered", xs[0].ID)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil, fmt.Errorf("barrier: 64 sentinels did not reach all %d shards", shards)
}

// checkEntities compares the folded entity set with Resolve over a
// batch Detect of the surviving inputs.
func (r *run) checkEntities(final *probdedup.XRelation, opts probdedup.Options, got map[string][]string) error {
	res, err := probdedup.Detect(final, opts)
	if err != nil {
		return err
	}
	want, err := probdedup.Resolve(final, res, opts.Final, probdedup.LinearCalibration(opts.Final, 0.1, 0.9))
	if err != nil {
		return err
	}
	var diffs []string
	seen := map[string]bool{}
	for _, e := range want.Entities {
		seen[e.ID] = true
		g, ok := got[e.ID]
		if !ok || strings.Join(sorted(g), ",") != strings.Join(sorted(e.Members), ",") {
			diffs = append(diffs, fmt.Sprintf("entity %s: want %v, got %v", e.ID, e.Members, g))
		}
	}
	for id := range got {
		if !seen[id] {
			diffs = append(diffs, fmt.Sprintf("unexpected entity %s", id))
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		r.fail("%d entity differences vs Resolve(Detect): %v", len(diffs), diffs[:min(3, len(diffs))])
	}
	return nil
}

func sorted(ss []string) []string {
	out := append([]string(nil), ss...)
	sort.Strings(out)
	return out
}

// queueSampler polls /v1/stats for shard queue depths (traced runs
// only, so untraced runs keep to one ingest and one SSE connection).
type queueSampler struct {
	quit   chan struct{}
	done   chan struct{}
	depths []float64
}

func startQueueSampler(cl *client) *queueSampler {
	q := &queueSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-q.quit:
				return
			case <-tick.C:
				st, err := cl.stats()
				if err != nil {
					continue
				}
				for _, sh := range st.PerShard {
					q.depths = append(q.depths, float64(sh.Queue))
				}
			}
		}
	}()
	return q
}

func (q *queueSampler) stop() {
	close(q.quit)
	<-q.done
}
