package main

// The traced run: a single-goroutine replay of a workload's operations
// (same seed, same request boundaries) through the public calls of
// each layer, with a span around every call. Layer parts (decode,
// route, intern, index, pre-filter, compare) run on shadow structures
// beside the composite engines (Detector, Integrator, durable
// Integrator), so composite minus parts gives the apply, integrate and
// WAL shares. The same replay with spans off measures the overhead.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"probdedup"
	"probdedup/internal/avm"
	"probdedup/internal/pdb"
	"probdedup/internal/prepare"
	"probdedup/internal/shard"
	"probdedup/internal/ssr"
	"probdedup/internal/sym"
	"probdedup/internal/verify"
	"probdedup/internal/wal"
	"probdedup/internal/xmatch"
)

// span is one timed call. Parent is the index of the enclosing span
// (-1 for a request root); Op numbers the request.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer records spans in memory; with on unset it only runs the
// calls.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	op    int
	root  int
}

// request runs f as one request, under a root span.
func (t *tracer) request(f func()) {
	if !t.on {
		f()
		return
	}
	t.root = len(t.spans)
	t.spans = append(t.spans, span{Name: "request", Start: t.now(), Parent: -1, Op: t.op})
	f()
	t.spans[t.root].End = t.now()
	t.op++
}

// do runs f under a span named for the layer call it wraps.
func (t *tracer) do(name string, f func()) {
	if !t.on {
		f()
		return
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: t.root, Op: t.op})
	f()
	t.spans[i].End = t.now()
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// replayEngine is one shard's shadow layer structures and composite
// engines.
type replayEngine struct {
	symtab *sym.Table
	idx    ssr.IncrementalIndex
	pf     *ssr.PreFilter
	cmp    *xmatch.Comparer
	byID   map[string]*pdb.XTuple
	live   map[verify.Pair]bool
	det    *probdedup.Detector
	ig     *probdedup.Integrator
	dur    *probdedup.DurableIntegrator
}

// replayer replays requests over one engine per shard.
type replayer struct {
	t       *tracer
	engines []*replayEngine
	router  *shard.Router // routes like pdedupd; nil for one engine
	owner   map[string]int

	tuples, ops, compared int
}

// newReplayer builds the shadow structures and composite engines for
// opts; durable engines live under dir.
func newReplayer(t *tracer, schema []string, opts probdedup.Options, nshards int, integrate bool, dir string) (*replayer, error) {
	rp := &replayer{t: t, owner: map[string]int{}}
	if nshards > 1 {
		var err error
		rp.router, err = shard.Open(shard.Config{Shards: nshards, Schema: schema, Opts: opts})
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < nshards; i++ {
		e, err := newReplayEngine(schema, opts, integrate, dir, i)
		if err != nil {
			rp.close()
			return nil, err
		}
		rp.engines = append(rp.engines, e)
	}
	return rp, nil
}

func newReplayEngine(schema []string, opts probdedup.Options, integrate bool, dir string, i int) (*replayEngine, error) {
	q := 0
	if opts.PreFilter {
		q = 2
	}
	e := &replayEngine{symtab: sym.NewTable(q), byID: map[string]*pdb.XTuple{}, live: map[verify.Pair]bool{}}
	var err error
	if e.idx, err = ssr.IncrementalOf(opts.Reduction); err != nil {
		return nil, err
	}
	alt := opts.AltModel
	if opts.PreFilter {
		if e.pf, err = ssr.NewPreFilter(ssr.PreFilterConfig{
			Table: e.symtab, Funcs: opts.Compare, Model: alt, Derive: opts.Derivation,
			Lambda: opts.Final.Lambda, Nulls: avm.PaperNulls,
		}); err != nil {
			return nil, err
		}
	}
	e.cmp = &xmatch.Comparer{
		Matcher:  avm.NewMatcherWithCache(avm.NewCache(0), opts.Compare...),
		AltModel: alt, Derive: opts.Derivation, Final: opts.Final,
	}
	if e.det, err = probdedup.NewDetector(schema, opts, nil); err != nil {
		return nil, err
	}
	if integrate {
		if e.ig, err = probdedup.NewIntegrator(schema, opts, nil); err != nil {
			return nil, err
		}
		if e.dur, err = probdedup.OpenDurableIntegrator(filepath.Join(dir, fmt.Sprintf("shard-%d", i)), schema, opts, nil); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (rp *replayer) close() {
	if rp.router != nil {
		rp.router.Close()
	}
	for _, e := range rp.engines {
		if e.dur != nil {
			e.dur.Close()
		}
	}
}

// request replays one request: decode every item, route it, then
// apply it shard by shard the way a shard worker does (insert runs
// batched, flushed before each removal).
func (rp *replayer) request(lines [][]byte) error {
	var err error
	rp.t.request(func() {
		items := make([]op, len(lines))
		rp.t.do("codec.decode", func() {
			for i, l := range lines {
				var probe struct {
					Remove *string `json:"remove"`
				}
				if json.Unmarshal(l, &probe) == nil && probe.Remove != nil {
					items[i].remove = *probe.Remove
					continue
				}
				items[i].x, err = probdedup.DecodeXTupleJSON(l)
				if err != nil {
					return
				}
			}
		})
		if err != nil {
			return
		}
		shardOf := make([]int, len(items))
		if rp.router != nil {
			rp.t.do("shard.route", func() {
				for i, o := range items {
					if o.x != nil {
						shardOf[i] = rp.router.ShardOf(o.x)
						rp.owner[o.x.ID] = shardOf[i]
					} else {
						shardOf[i] = rp.owner[o.remove]
					}
				}
			})
		}
		for sh, e := range rp.engines {
			var batch []*pdb.XTuple
			for i, o := range items {
				if shardOf[i] != sh {
					continue
				}
				if o.x != nil {
					batch = append(batch, o.x)
					continue
				}
				if err = rp.insert(e, batch); err != nil {
					return
				}
				batch = nil
				if err = rp.remove(e, o.remove); err != nil {
					return
				}
			}
			if err = rp.insert(e, batch); err != nil {
				return
			}
		}
	})
	return err
}

func (rp *replayer) insert(e *replayEngine, batch []*pdb.XTuple) error {
	if len(batch) == 0 {
		return nil
	}
	t := rp.t
	rp.tuples += len(batch)
	rp.ops += len(batch)
	clones := make([]*pdb.XTuple, len(batch))
	t.do("sym.intern", func() {
		for i, x := range batch {
			c := x.Clone()
			prepare.InternXTuple(e.symtab, c)
			clones[i] = c
			e.byID[c.ID] = c
		}
	})
	if e.pf != nil {
		t.do("ssr.prefilter", func() {
			for _, c := range clones {
				e.pf.Insert(c)
			}
		})
	}
	var deltas []ssr.BatchDelta
	t.do("ssr.index", func() { deltas = ssr.InsertBatch(e.idx, clones) })
	var todo []verify.Pair
	admit := func() {
		for _, d := range deltas {
			switch {
			case d.Dropped:
				delete(e.live, d.Pair)
			case !e.live[d.Pair] && (e.pf == nil || e.pf.Admit(d.Pair)):
				todo = append(todo, d.Pair)
			}
		}
	}
	if e.pf != nil {
		t.do("ssr.prefilter", admit)
	} else {
		admit()
	}
	t.do("xmatch.compare", func() {
		for _, p := range todo {
			e.cmp.Compare(e.byID[p.A], e.byID[p.B])
			e.live[p] = true
		}
	})
	rp.compared += len(todo)
	var err error
	t.do("core.detector", func() { err = e.det.AddBatch(batch) })
	if err == nil && e.ig != nil {
		t.do("resolve.integrator", func() { err = e.ig.AddBatch(batch) })
	}
	if err == nil && e.dur != nil {
		t.do("wal.durable", func() { err = e.dur.AddBatch(batch) })
	}
	return err
}

func (rp *replayer) remove(e *replayEngine, id string) error {
	t := rp.t
	rp.ops++
	t.do("ssr.index", func() {
		e.idx.Remove(id, func(pd ssr.PairDelta) bool {
			delete(e.live, pd.Pair)
			return true
		})
	})
	if e.pf != nil {
		t.do("ssr.prefilter", func() { e.pf.Remove(id) })
	}
	delete(e.byID, id)
	var err error
	t.do("core.detector", func() { err = e.det.Remove(id) })
	if err == nil && e.ig != nil {
		t.do("resolve.integrator", func() { err = e.ig.Remove(id) })
	}
	if err == nil && e.dur != nil {
		t.do("wal.durable", func() { err = e.dur.Remove(id) })
	}
	return err
}

// replayPlan is one replay: the engines' configuration and the
// requests to apply, in order.
type replayPlan struct {
	schema    []string
	opts      probdedup.Options
	shards    int
	integrate bool
	requests  [][][]byte
}

// replayResult aggregates one traced replay and its untraced twin.
type replayResult struct {
	spans                 []span
	tracedWall, plainWall time.Duration
	tuples, ops, compared int
	requests              int
}

// runReplay replays plan with spans on, stopping after budget, then
// replays the same requests with spans off.
func (r *run) runReplay(plan replayPlan, budget time.Duration) (replayResult, error) {
	var res replayResult
	for pass := 0; pass < 2; pass++ {
		t := &tracer{on: pass == 0, t0: time.Now()}
		dir := stateDir(r, fmt.Sprintf("replay%d", pass))
		if err := os.RemoveAll(dir); err != nil {
			return res, err
		}
		rp, err := newReplayer(t, plan.schema, plan.opts, plan.shards, plan.integrate, dir)
		if err != nil {
			return res, err
		}
		n := len(plan.requests)
		if pass == 1 {
			n = res.requests
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := rp.request(plan.requests[i]); err != nil {
				rp.close()
				os.RemoveAll(dir)
				return res, err
			}
			if pass == 0 && time.Since(start) > budget {
				n = i + 1
				break
			}
		}
		wall := time.Since(start)
		rp.close()
		os.RemoveAll(dir)
		if pass == 0 {
			res.spans, res.tracedWall, res.requests = t.spans, wall, n
			res.tuples, res.ops, res.compared = rp.tuples, rp.ops, rp.compared
		} else {
			res.plainWall = wall
		}
	}
	return res, nil
}

// selfTimes returns each span name's total self time: its duration
// minus the part its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, s := range spans {
		d := time.Duration(s.End - s.Start)
		self[s.Name] += d
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= d
		}
	}
	return self
}

// reportReplay writes the span file, prints the self-time table and
// sets the replay's per-layer metrics.
func (r *run) reportReplay(res replayResult) error {
	dir := filepath.Join(r.workdir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", r.workload, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range res.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	self := selfTimes(res.spans)
	var covered time.Duration
	for _, s := range res.spans {
		if s.Parent >= 0 {
			covered += time.Duration(s.End - s.Start)
		}
	}
	wall := res.tracedWall.Seconds()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("traced replay: %d requests, %d ops, %d spans in %s (untraced %.3fs)\n",
		res.requests, res.ops, len(res.spans), path, res.plainWall.Seconds())
	fmt.Printf("  %-20s %12s %8s\n", "layer", "self_ms", "share")
	for _, n := range names {
		fmt.Printf("  %-20s %12.2f %7.1f%%\n", n, self[n].Seconds()*1000, 100*self[n].Seconds()/wall)
	}

	us := func(d time.Duration, per int) float64 { return ratio(d.Seconds()*1e6, float64(per)) }
	parts := self["sym.intern"] + self["ssr.index"] + self["ssr.prefilter"] + self["xmatch.compare"]
	r.setLayer("trace.coverage", covered.Seconds()/wall)
	r.setLayer("trace.overhead_ratio", wall/res.plainWall.Seconds()-1)
	r.setLayer("codec.decode_us_per_tuple", us(self["codec.decode"], res.ops))
	r.setLayer("shard.route_us_per_op", us(self["shard.route"], res.ops))
	r.setLayer("sym.intern_us_per_tuple", us(self["sym.intern"], res.tuples))
	r.setLayer("ssr.index_us_per_op", us(self["ssr.index"], res.ops))
	r.setLayer("ssr.prefilter_us_per_op", us(self["ssr.prefilter"], res.ops))
	r.setLayer("xmatch.compare_us_per_pair", us(self["xmatch.compare"], res.compared))
	r.setLayer("core.apply_us_per_op", us(self["core.detector"]-parts, res.ops))
	integrate, walShare := time.Duration(0), time.Duration(0)
	if d, ok := self["resolve.integrator"]; ok {
		integrate = d - self["core.detector"]
		walShare = self["wal.durable"] - d
	}
	r.setLayer("resolve.integrate_us_per_op", us(integrate, res.ops))
	r.setLayer("wal.append_us_per_op", us(walShare, res.ops))
	return nil
}

// walShape reads every shard's WAL segments under dir and returns the
// logged operations per record (batch coalescing) and bytes per
// operation.
func walShape(dir string, nattrs int) (opsPerRecord, bytesPerOp float64, err error) {
	files, err := filepath.Glob(filepath.Join(dir, "shard-*", "wal-*.log"))
	if err != nil {
		return 0, 0, err
	}
	var records, ops, size int
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return 0, 0, err
		}
		size += len(data)
		if _, err := wal.ReplayLog(data, nattrs, 0, func(rec *wal.Record) error {
			records++
			if rec.Op == wal.OpAddBatch {
				ops += len(rec.Batch)
			} else {
				ops++
			}
			return nil
		}); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", f, err)
		}
	}
	return ratio(float64(ops), float64(records)), ratio(float64(size), float64(ops)), nil
}

// serveRequests rebuilds a serving run's request sequence: seeding in
// seedReq chunks, open-loop requests, closed-loop requests, then the
// barrier sentinels one request each.
func serveRequests(spec serveSpec, openOps, applied int, sentinels []*probdedup.XTuple) ([][][]byte, error) {
	var reqs [][][]byte
	seed, err := encodeOps(insertsOf(spec.c.residents))
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < len(seed); lo += seedReq {
		reqs = append(reqs, seed[lo:min(lo+seedReq, len(seed))])
	}
	lines, err := encodeOps(spec.c.arrivals[:applied])
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < openOps; lo += spec.openReq {
		reqs = append(reqs, lines[lo:min(lo+spec.openReq, openOps)])
	}
	for lo := openOps; lo < applied; lo += spec.closedReq {
		reqs = append(reqs, lines[lo:min(lo+spec.closedReq, applied)])
	}
	for _, x := range sentinels {
		l, err := encodeOps([]op{{x: x}})
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, l)
	}
	return reqs, nil
}

// tracedReplay replays a serving run through the layer calls.
func (r *run) tracedReplay(spec serveSpec, openOps, applied int, sentinels []*probdedup.XTuple) error {
	reqs, err := serveRequests(spec, openOps, applied, sentinels)
	if err != nil {
		return err
	}
	opts, err := spec.ec.options(spec.c.schema, nil)
	if err != nil {
		return err
	}
	res, err := r.runReplay(replayPlan{
		schema: spec.c.schema, opts: opts, shards: shards, integrate: spec.integrate, requests: reqs,
	}, time.Duration(r.seconds*float64(time.Second)))
	if err != nil {
		return err
	}
	return r.reportReplay(res)
}
