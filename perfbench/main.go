// Command perfbench is the repository's benchmark: it runs one named
// workload against the pdedupd daemon (serve_hot, serve_churn) or the
// probdedup library in process (bulk_load), checks every output
// against an in-process batch reference, and prints one JSON result as
// its last line. perfbench/run.sh builds it and pdedupd from source;
// see perfbench/README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics, taken from the same
// workload plus a traced single-goroutine replay of its operations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and accumulates its result.
type run struct {
	workload           string
	seed               int64
	seconds            float64
	trace              bool
	pdedupd            string
	workdir            string
	hotRate, churnRate float64 // open-loop rates (ops/s) from BENCHMARK.json

	res      result
	e2e      map[string]metric // end-to-end metrics
	info     map[string]metric // printed beside the end-to-end metrics only
	layer    map[string]metric // per-layer metrics
	counts   map[string]int    // sample count behind each metric
	problems []string
}

// fail records an output mismatch; the run reports correct=false.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench: MISMATCH:", msg)
}

// e2eMetrics are the end-to-end metrics every workload reports (see
// README.md for what each means on each workload).
var e2eMetrics = []struct{ name, unit string }{
	{"ingest_tps", "1/s"},
	{"lat_p50_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"recover_s", "s"},
	{"batch_s", "s"},
	{"bulkload_s", "s"},
	{"bulkload_ranked_s", "s"},
	{"alloc_mb", "MiB"},
}

// layerMetrics are the per-layer metrics of a traced run. A workload
// reports 0 for a layer it skips.
var layerMetrics = []struct{ name, unit string }{
	{"pdedupd.post_ms_p50", "ms"},
	{"pdedupd.post_ms_p99", "ms"},
	{"pdedupd.sse_bytes_per_op", "B"},
	{"pdedupd.subscriber_drops", "count"},
	{"codec.decode_us_per_tuple", "us"},
	{"shard.route_us_per_op", "us"},
	{"shard.queue_depth_mean", "ops"},
	{"shard.queue_depth_max", "ops"},
	{"shard.reject_ratio", "ratio"},
	{"shard.resident_skew", "ratio"},
	{"ssr.enumerated_per_op", "pairs"},
	{"ssr.filtered_ratio", "ratio"},
	{"ssr.prefilter_us_per_op", "us"},
	{"ssr.index_us_per_op", "us"},
	{"ssr.snm_certain.stream_s", "s"},
	{"ssr.snm_certain.bulkload_s", "s"},
	{"ssr.blocking_certain.stream_s", "s"},
	{"ssr.blocking_certain.bulkload_s", "s"},
	{"ssr.blocking_cluster.stream_s", "s"},
	{"ssr.blocking_cluster.bulkload_s", "s"},
	{"ssr.snm_ranked.stream_s", "s"},
	{"ssr.snm_ranked.bulkload_s", "s"},
	{"sym.intern_us_per_tuple", "us"},
	{"xmatch.compare_us_per_pair", "us"},
	{"core.compared_per_op", "pairs"},
	{"avm.cache_hit_ratio", "ratio"},
	{"core.apply_us_per_op", "us"},
	{"resolve.integrate_us_per_op", "us"},
	{"wal.append_us_per_op", "us"},
	{"wal.ops_per_record", "ops"},
	{"wal.bytes_per_op", "B"},
	{"cluster.reseals", "count"},
	{"go.gc_cpu_share", "ratio"},
	{"gen.late_ms_p99", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

func unitOf(table []struct{ name, unit string }, name string) string {
	for _, m := range table {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: undeclared metric " + name) // a bug in this file's tables
}

func (r *run) setE2E(name string, v float64, samples int) {
	r.e2e[name] = metric{Value: v, Unit: unitOf(e2eMetrics, name)}
	r.counts[name] = samples
}

// setInfo records a metric that is printed with the end-to-end table
// but left out of the result line, because its run-to-run spread
// exceeds any regression bound BENCHMARK.json can hold (see README.md).
func (r *run) setInfo(name, unit string, v float64, samples int) {
	r.info[name] = metric{Value: v, Unit: unit}
	r.counts[name] = samples
}

func (r *run) setLayer(name string, v float64) {
	r.layer[name] = metric{Value: v, Unit: unitOf(layerMetrics, name)}
}

var workloads = map[string]func(*run) error{
	"serve_hot":   runServeHot,
	"serve_churn": runServeChurn,
	"bulk_load":   runBulkLoad,
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var cfg run
	var workload string
	var trace int
	flag.StringVar(&workload, "workload", "", "workload: serve_hot, serve_churn, bulk_load, or all (runs the three in turn)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generator seed")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds of the run")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	flag.StringVar(&cfg.pdedupd, "pdedupd", "", "pdedupd binary (built by run.sh)")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for state dirs and trace output")
	flag.Float64Var(&cfg.hotRate, "hot-rate", 600, "serve_hot open-loop rate (ops/s)")
	flag.Float64Var(&cfg.churnRate, "churn-rate", 750, "serve_churn open-loop rate (ops/s)")
	flag.Parse()
	cfg.trace = trace == 1

	names := []string{workload}
	if workload == "all" {
		names = []string{"serve_hot", "serve_churn", "bulk_load"}
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (serve_hot, serve_churn, bulk_load, all)\n", workload)
			return 2
		}
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if cfg.pdedupd == "" && workload != "bulk_load" {
		fmt.Fprintln(os.Stderr, "perfbench: -pdedupd is required for the serving workloads")
		return 2
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("env: %s\n", mustJSON(stampEnv(filepath.Join(cfg.workdir, "state"))))

	// One workload prints its result as the last line and exits 0 even
	// on a mismatch (correct=false says so); "all" prints every
	// workload's result and exits 1 if any output was wrong.
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		r := cfg
		r.workload = n
		r.e2e, r.info, r.layer, r.counts = map[string]metric{}, map[string]metric{}, map[string]metric{}, map[string]int{}
		for _, m := range layerMetrics {
			r.setLayer(m.name, 0)
		}
		if err := workloads[n](&r); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		r.res.Correct = len(r.problems) == 0
		r.res.Metrics = r.e2e
		if r.trace {
			r.res.Metrics = r.layer
		}
		printTable(&r)
		fmt.Println(mustJSON(r.res))
		all.Correct = all.Correct && r.res.Correct
		all.Attempted += r.res.Attempted
		all.Failed += r.res.Failed
		for k, m := range r.res.Metrics {
			all.Metrics[n+"/"+k] = m
		}
	}
	if workload == "all" {
		fmt.Println(mustJSON(all))
		if !all.Correct {
			return 1
		}
	}
	return 0
}

// printTable prints every metric with its unit and sample count.
func printTable(r *run) {
	fmt.Printf("workload %s seed %d: attempted=%d failed=%d fail_ratio=%.6f correct=%v\n",
		r.workload, r.seed, r.res.Attempted, r.res.Failed,
		float64(r.res.Failed)/float64(max(1, r.res.Attempted)), r.res.Correct)
	names := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.res.Metrics[n]
		if c, ok := r.counts[n]; ok && !r.trace {
			fmt.Printf("  %-34s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, c)
		} else {
			fmt.Printf("  %-34s %14.4f %s\n", n, m.Value, m.Unit)
		}
	}
	if r.trace {
		return
	}
	for n, m := range r.info {
		fmt.Printf("  %-34s %14.4f %-6s n=%d (printed only, not in the result)\n", n, m.Value, m.Unit, r.counts[n])
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps are marshaled
	}
	return string(b)
}
