// Command pdedup runs duplicate detection over probabilistic relation
// files in the codec text or JSON format.
//
// Usage:
//
//	pdedup [flags] FILE [FILE2]
//
// With one file the relation is deduplicated against itself; with two files
// the relations are unioned first (the integration scenario). Input files
// may hold "relation" or "xrelation" text documents or their JSON
// equivalents (detected by a leading '{'); mixed inputs are lifted to
// x-relations.
//
// Flags select the comparison function, key definition, reduction method,
// derivation function and thresholds. Example:
//
//	pdedup -key 'name:3+job:2' -reduce snm-alternatives -window 3 \
//	       -derive decision -lambda 0.5 -mu 1.0 r3.pdb r4.pdb
//
// -stream switches to the streaming engine, which retains no per-pair
// state: pairs are printed as they are found, in the reduction's
// enumeration order at any -workers setting, and the summary follows
// at the end — use it for large inputs.
//
// -follow switches to the incremental online engine: after the given
// files (if any) seed the resident relation, tuples are read from
// stdin as NDJSON — one JSON tuple per line, either the x-tuple form
// {"id":"t1","alts":[{"p":1,"values":[[{"v":"Tim"}],[{"v":"pilot"}]]}]}
// or the dependency-free form {"id":"t1","p":1,"attrs":[...]} — and
// each arrival is compared only against incrementally maintained
// candidates. Deltas are printed as they happen ("+" for a new pair,
// "-" for a retracted one) and the summary follows at EOF. A line
// "remove ID" drops a resident tuple. With no seed file, -schema
// (comma-separated attribute names) defines the relation. Arrivals
// already buffered in the pipe coalesce into batches so the
// verification work fans out across -workers; interactive input is
// still applied line by line.
//
//	pdgen ... | pdedup -follow -schema name,job -key 'name:3' -reduce blocking-certain
//
// -integrate (with -follow) runs the online integration engine one
// layer up: match deltas fold into a live entity set and every entity
// change is printed as one NDJSON line —
// {"event":"created|merged|split|refused|retired","id":...,
// "members":[...],"from":[...]} — with an entity/uncertain-duplicate
// summary at EOF.
//
//	pdgen ... | pdedup -follow -integrate -schema name,job -key 'name:3' -reduce blocking-certain
//
// -state DIR (with -follow) makes the online engine durable: every
// operation is written to a write-ahead log in DIR before it is
// applied, a snapshot checkpoint is taken at EOF, and a later
// invocation with the same DIR recovers the exact engine state and
// continues — replayed operations print no deltas, only new arrivals
// do. The seed files apply only when DIR is fresh; a DIR written under
// a different schema is rejected, as is a DIR another live process
// holds.
//
//	pdgen ... | pdedup -follow -state ./state -schema name,job -key 'name:3' -reduce blocking-certain
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"probdedup"
	"probdedup/internal/cliopts"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run executes the CLI; separated from main for testability.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pdedup", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		compareName = fs.String("compare", "hamming", "comparison function: hamming, levenshtein, damerau, jaro, jarowinkler, dice2, exact")
		keySpec     = fs.String("key", "", "key definition, e.g. 'name:3+job:2' (required for reduction methods)")
		reduceName  = fs.String("reduce", "none", "reduction: none, snm-certain, snm-alternatives, snm-ranked, snm-ranked-median, snm-multipass, blocking-certain, blocking-alternatives, blocking-cluster")
		window      = fs.Int("window", 3, "sorted neighborhood window size")
		kWorlds     = fs.Int("worlds", 8, "worlds for snm-multipass")
		kClusters   = fs.Int("k", 0, "clusters for blocking-cluster (0 = residents/8 heuristic, at least 2)")
		seed        = fs.Int64("seed", 1, "clustering seed for blocking-cluster")
		deriveName  = fs.String("derive", "similarity", "derivation: similarity, decision, eta, mpw, max")
		lambda      = fs.Float64("lambda", 0.4, "threshold Tλ (below: non-match)")
		mu          = fs.Float64("mu", 0.7, "threshold Tμ (above: match)")
		altLambda   = fs.Float64("alt-lambda", 0.4, "per-alternative Tλ")
		altMu       = fs.Float64("alt-mu", 0.7, "per-alternative Tμ")
		workers     = fs.Int("workers", 1, "parallel matching workers")
		stream      = fs.Bool("stream", false, "stream results as they are found instead of materializing them (no per-pair state retained; same order at any -workers)")
		follow      = fs.Bool("follow", false, "incremental online mode: seed from FILEs (if any), then read NDJSON tuples from stdin and print match deltas as tuples arrive")
		integrate   = fs.Bool("integrate", false, "with -follow: fold match deltas into a live entity set and print NDJSON entity deltas (created/merged/split/refused/retired) instead of pair deltas")
		schemaSpec  = fs.String("schema", "", "comma-separated schema for -follow without a seed file, e.g. 'name,job'")
		stateDir    = fs.String("state", "", "with -follow: durable state directory (snapshot + write-ahead log); recovers on reopen, seed files apply only when fresh")
		preFilter   = fs.Bool("prefilter", false, "enable the symbol-plane candidate pre-filter: skip enumerated pairs provably below -lambda (results are identical, only fewer pairs are verified)")
		qgram       = fs.Int("qgram", 0, "gram size of the pre-filter's q-gram count filters (0 = 2); applies with -prefilter only")
		showAll     = fs.Bool("v", false, "print every compared pair, not only matches, plus filter/cache effectiveness counters")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Batch/stream take one or two files; -follow seeds from any
	// number (loadUnion handles the fold), including none.
	if !*follow && (fs.NArg() < 1 || fs.NArg() > 2) {
		fmt.Fprintln(stderr, "usage: pdedup [flags] FILE [FILE2]  |  pdedup -follow [flags] [FILE...]")
		fs.Usage()
		return 2
	}
	// Reject silently-conflicting combinations instead of letting one
	// mode win: -stream and -follow are different engines, and -schema
	// only defines a seedless -follow relation (seed files bring their
	// own schema).
	if *follow && *stream {
		fmt.Fprintln(stderr, "pdedup: -follow and -stream are mutually exclusive")
		return 2
	}
	if *schemaSpec != "" && (!*follow || fs.NArg() > 0) {
		fmt.Fprintln(stderr, "pdedup: -schema only applies to -follow without seed files")
		return 2
	}
	if *integrate && !*follow {
		fmt.Fprintln(stderr, "pdedup: -integrate requires -follow")
		return 2
	}
	if *stateDir != "" && !*follow {
		fmt.Fprintln(stderr, "pdedup: -state requires -follow")
		return 2
	}
	if *integrate && *showAll {
		fmt.Fprintln(stderr, "pdedup: -v applies to pair deltas only; -integrate always prints every entity delta")
		return 2
	}
	// -k / -seed shape the blocking-cluster clustering only; passing
	// them with another reduction would be silently ignored, so reject.
	clusterFlags := map[string]bool{}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "k" || f.Name == "seed" {
			clusterFlags[f.Name] = true
		}
	})
	if len(clusterFlags) > 0 && *reduceName != "blocking-cluster" {
		fmt.Fprintln(stderr, "pdedup: -k and -seed apply to -reduce blocking-cluster only")
		return 2
	}
	if *kClusters < 0 {
		fmt.Fprintln(stderr, "pdedup: -k must be >= 0 (0 selects the residents/8 heuristic)")
		return 2
	}
	// -qgram shapes the pre-filter's precomputed gram statistics only;
	// passing it without -prefilter would be silently ignored, so reject.
	qgramSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "qgram" {
			qgramSet = true
		}
	})
	if qgramSet && !*preFilter {
		fmt.Fprintln(stderr, "pdedup: -qgram applies with -prefilter only")
		return 2
	}
	if *qgram < 0 {
		fmt.Fprintln(stderr, "pdedup: -qgram must be >= 0 (0 selects the default gram size 2)")
		return 2
	}

	var xr *probdedup.XRelation
	if fs.NArg() > 0 {
		var err error
		xr, err = loadUnion(fs.Args())
		if err != nil {
			fmt.Fprintln(stderr, "pdedup:", err)
			return 1
		}
	} else {
		if strings.TrimSpace(*schemaSpec) == "" {
			fmt.Fprintln(stderr, "pdedup: -follow without a seed file needs -schema")
			return 2
		}
		schema, err := cliopts.ParseSchema(*schemaSpec)
		if err != nil {
			fmt.Fprintln(stderr, "pdedup: -schema:", err)
			return 2
		}
		xr = probdedup.NewXRelation("stdin", schema...)
	}

	cmp, err := cliopts.Compare(*compareName)
	if err != nil {
		fmt.Fprintln(stderr, "pdedup:", err)
		return 1
	}
	compare := make([]probdedup.CompareFunc, len(xr.Schema))
	for i := range compare {
		compare[i] = cmp
	}

	opts := probdedup.Options{
		Compare: compare,
		// WeightedSumModel is bit-identical to the former
		// SimpleModel{Phi: WeightedSum(...)} but exposes its weights, so
		// the -prefilter bound machinery can box-bound it.
		AltModel: probdedup.WeightedSumModel{
			Weights: cliopts.EqualWeights(len(xr.Schema)),
			T:       probdedup.Thresholds{Lambda: *altLambda, Mu: *altMu},
		},
		Final:     probdedup.Thresholds{Lambda: *lambda, Mu: *mu},
		Workers:   *workers,
		PreFilter: *preFilter,
		FilterQ:   *qgram,
	}
	opts.Derivation, err = cliopts.Derivation(*deriveName)
	if err != nil {
		fmt.Fprintln(stderr, "pdedup:", err)
		return 1
	}

	if *reduceName != "none" {
		if *keySpec == "" {
			fmt.Fprintf(stderr, "pdedup: reduction %q needs -key\n", *reduceName)
			return 1
		}
		def, err := probdedup.ParseKeyDef(*keySpec, xr.Schema)
		if err != nil {
			fmt.Fprintln(stderr, "pdedup:", err)
			return 1
		}
		opts.Reduction, err = cliopts.Reduction(*reduceName, def, *window, *kWorlds, *kClusters, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "pdedup:", err)
			return 1
		}
	}

	if *follow {
		return runFollow(xr, opts, *stateDir, stdin, stdout, stderr, *showAll, *integrate)
	}

	// The -v effectiveness footer: how much verification work the
	// pre-filter removed and how well the shared similarity cache
	// served the rest.
	effectiveness := func(enumerated, filtered, verified int, active bool, cache probdedup.SimCacheStats) {
		state := "off"
		if active {
			state = "on"
		}
		fmt.Fprintf(stdout, "prefilter %s: enumerated=%d filtered=%d verified=%d\n",
			state, enumerated, filtered, verified)
		fmt.Fprintf(stdout, "cache: hits=%d misses=%d hit-rate=%.3f\n",
			cache.Hits, cache.Misses, cache.HitRate())
	}

	if *stream {
		// Streaming path: emit pairs as the engine finds them, retain
		// nothing. The summary line moves after the pairs because the
		// compared count is only known once the stream ends.
		stats, err := probdedup.DetectStream(xr, opts, func(m probdedup.PairMatch) bool {
			if *showAll || m.Class == probdedup.ClassM || m.Class == probdedup.ClassP {
				fmt.Fprintf(stdout, "%-4s (%s,%s) sim=%.4f\n", m.Class, m.Pair.A, m.Pair.B, m.Sim)
			}
			return true
		})
		if err != nil {
			fmt.Fprintln(stderr, "pdedup:", err)
			return 1
		}
		fmt.Fprintf(stdout, "compared %d of %d pairs\n", stats.Compared, stats.TotalPairs)
		fmt.Fprintf(stdout, "matches=%d possible=%d\n", stats.Matches, stats.Possible)
		if *showAll {
			effectiveness(stats.Enumerated, stats.Filtered, stats.Compared, stats.FilterActive, stats.Cache)
		}
		return 0
	}

	res, stats, err := probdedup.DetectWithStats(xr, opts)
	if err != nil {
		fmt.Fprintln(stderr, "pdedup:", err)
		return 1
	}
	fmt.Fprintf(stdout, "compared %d of %d pairs\n", len(res.Compared), res.TotalPairs)
	for _, p := range res.Compared {
		m := res.ByPair[p]
		if !*showAll && m.Class != probdedup.ClassM && m.Class != probdedup.ClassP {
			continue
		}
		fmt.Fprintf(stdout, "%-4s (%s,%s) sim=%.4f\n", m.Class, p.A, p.B, m.Sim)
	}
	fmt.Fprintf(stdout, "matches=%d possible=%d\n", len(res.Matches), len(res.Possible))
	if *showAll {
		effectiveness(stats.Enumerated, stats.Filtered, stats.Compared, stats.FilterActive, stats.Cache)
	}
	return 0
}

// followBatchCap bounds one AddBatch unit of the -follow loop: big
// enough that the detector's parallel verification phase has work to
// fan out across -workers, small enough that deltas still print
// promptly under sustained traffic.
const followBatchCap = 256

// followLine is one content line read ahead from stdin; a final item
// with err set reports a scanner failure.
type followLine struct {
	no   int
	text string
	err  error
}

// onlineEngine is the shared surface of the two -follow engines: the
// pairwise Detector and the entity-level Integrator.
type onlineEngine interface {
	AddBatch([]*probdedup.XTuple) error
	Remove(string) error
}

// jsonEntityDelta is the NDJSON wire form of one entity delta
// (-follow -integrate).
type jsonEntityDelta struct {
	Event   string   `json:"event"`
	ID      string   `json:"id"`
	Members []string `json:"members"`
	From    []string `json:"from,omitempty"`
}

// runFollow is the incremental online mode: the engine is seeded with
// the loaded relation, then maintained from stdin — one NDJSON tuple
// per line, or "remove ID" to drop a resident tuple. By default a
// Detector prints match deltas as they happen; with integrate, an
// Integrator prints NDJSON entity deltas instead. The summary prints
// at EOF.
//
// Arrivals are read ahead on a producer goroutine and applied in
// batches (AddBatch) so the engine's parallel verification phase
// honors -workers under sustained traffic: consecutive tuple lines
// already buffered in the pipe coalesce into one batch, while
// interactive use — the pipe momentarily empty — still applies every
// line as it arrives, with no added latency. A "remove" line flushes
// the pending batch first, so effects apply in input order.
func runFollow(seed *probdedup.XRelation, opts probdedup.Options, stateDir string, stdin io.Reader, stdout, stderr io.Writer, showAll, integrate bool) int {
	var (
		eng     onlineEngine
		summary func() int
		// durable is set with -state; finish closes it (final snapshot
		// checkpoint) and the deferred call releases the directory lock on
		// error paths — the tests drive run() in-process, so a leaked lock
		// would wedge the next invocation.
		durable interface {
			Close() error
			Seq() uint64
		}
	)
	finish := func() int {
		if durable == nil {
			return 0
		}
		if err := durable.Close(); err != nil {
			fmt.Fprintln(stderr, "pdedup:", err)
			return 1
		}
		return 0
	}
	defer func() {
		if durable != nil {
			durable.Close()
		}
	}()
	if integrate {
		enc := json.NewEncoder(stdout)
		emit := func(ev probdedup.EntityDelta) bool {
			if err := enc.Encode(jsonEntityDelta{
				Event: ev.Kind.String(),
				ID:    ev.Entity.ID,
				// The integrator snapshots deltas before emitting, so ev is
				// this consumer's own copy and is marshaled immediately.
				Members: ev.Entity.Members, //pdlint:allow snapshotescape -- ev is already a defensive copy owned by this callback
				From:    ev.From,
			}); err != nil {
				fmt.Fprintln(stderr, "pdedup:", err)
			}
			return true
		}
		var (
			flushRes func() (*probdedup.Resolution, error)
			engLen   func() int
		)
		if stateDir != "" {
			dig, err := probdedup.OpenDurableIntegrator(stateDir, seed.Schema, opts, emit)
			if err != nil {
				fmt.Fprintln(stderr, "pdedup:", err)
				return 1
			}
			eng, durable = dig, dig
			flushRes, engLen = dig.Flush, dig.Len
		} else {
			ig, err := probdedup.NewIntegrator(seed.Schema, opts, emit)
			if err != nil {
				fmt.Fprintln(stderr, "pdedup:", err)
				return 1
			}
			eng = ig
			flushRes, engLen = ig.Flush, ig.Len
		}
		summary = func() int {
			r, err := flushRes()
			if err != nil {
				fmt.Fprintln(stderr, "pdedup:", err)
				return 1
			}
			fmt.Fprintf(stdout, "resident %d tuples, %d entities, %d uncertain duplicates\n",
				engLen(), len(r.Entities), len(r.Uncertain))
			return finish()
		}
	} else {
		wanted := func(c probdedup.Class) bool {
			return showAll || c == probdedup.ClassM || c == probdedup.ClassP
		}
		emit := func(md probdedup.MatchDelta) bool {
			if !wanted(md.Class) {
				return true
			}
			sign := "+"
			if md.Kind == probdedup.DeltaDrop {
				sign = "-"
			}
			fmt.Fprintf(stdout, "%s%-4s (%s,%s) sim=%.4f\n", sign, md.Class, md.Pair.A, md.Pair.B, md.Sim)
			return true
		}
		var stats func() probdedup.DetectorStats
		if stateDir != "" {
			dd, err := probdedup.OpenDurable(stateDir, seed.Schema, opts, emit)
			if err != nil {
				fmt.Fprintln(stderr, "pdedup:", err)
				return 1
			}
			eng, durable = dd, dd
			stats = dd.Stats
		} else {
			det, err := probdedup.NewDetector(seed.Schema, opts, emit)
			if err != nil {
				fmt.Fprintln(stderr, "pdedup:", err)
				return 1
			}
			eng = det
			stats = det.Stats
		}
		summary = func() int {
			st := stats()
			fmt.Fprintf(stdout, "resident %d tuples, %d live pairs of %d (compared %d, retracted %d)\n",
				st.Residents, st.Live, st.TotalPairs, st.Compared, st.Dropped)
			fmt.Fprintf(stdout, "matches=%d possible=%d\n", st.Matches, st.Possible)
			if showAll {
				state := "off"
				if st.FilterActive {
					state = "on"
				}
				fmt.Fprintf(stdout, "prefilter %s: enumerated=%d filtered=%d verified=%d\n",
					state, st.Enumerated, st.Filtered, st.Compared)
				fmt.Fprintf(stdout, "cache: hits=%d misses=%d hit-rate=%.3f\n",
					st.Cache.Hits, st.Cache.Misses, st.Cache.HitRate())
			}
			return finish()
		}
	}
	// A recovered state directory already holds the seed relation (and
	// everything after it); re-seeding would fail on duplicate IDs.
	if durable == nil || durable.Seq() == 0 {
		if err := eng.AddBatch(seed.Tuples); err != nil {
			fmt.Fprintln(stderr, "pdedup:", err)
			return 1
		}
	}

	lines := make(chan followLine, 4*followBatchCap)
	// done releases the producer when the consumer returns early on an
	// error: without it the goroutine would block forever on a full
	// channel (run() is also driven in-process by the tests).
	done := make(chan struct{})
	defer close(done)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdin)
		sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
		send := func(ln followLine) bool {
			select {
			case lines <- ln:
				return true
			case <-done:
				return false
			}
		}
		no := 0
		for sc.Scan() {
			no++
			text := strings.TrimSpace(sc.Text())
			if text == "" || strings.HasPrefix(text, "#") {
				continue
			}
			if !send(followLine{no: no, text: text}) {
				return
			}
		}
		if err := sc.Err(); err != nil {
			send(followLine{err: err})
		}
	}()

	batch := make([]*probdedup.XTuple, 0, followBatchCap)
	batchLine := make([]int, 0, followBatchCap)
	flush := func() int {
		if len(batch) == 0 {
			return 0
		}
		if err := eng.AddBatch(batch); err != nil {
			// Attribute the failure to its input line: BatchError.Index
			// is the batch position of the failing tuple.
			line, cause := batchLine[len(batchLine)-1], err
			var be *probdedup.DetectorBatchError
			if errors.As(err, &be) && be.Index < len(batchLine) {
				line, cause = batchLine[be.Index], be.Err
			}
			fmt.Fprintf(stderr, "pdedup: line %d: %v\n", line, cause)
			return 1
		}
		batch = batch[:0]
		batchLine = batchLine[:0]
		return 0
	}
	handle := func(ln followLine) int {
		if ln.err != nil {
			fmt.Fprintln(stderr, "pdedup:", ln.err)
			return 1
		}
		if id, ok := strings.CutPrefix(ln.text, "remove "); ok {
			if rc := flush(); rc != 0 {
				return rc
			}
			if err := eng.Remove(strings.TrimSpace(id)); err != nil {
				fmt.Fprintf(stderr, "pdedup: line %d: %v\n", ln.no, err)
				return 1
			}
			return 0
		}
		x, err := probdedup.DecodeXTupleJSON([]byte(ln.text))
		if err != nil {
			fmt.Fprintf(stderr, "pdedup: line %d: %v\n", ln.no, err)
			return 1
		}
		batch = append(batch, x)
		batchLine = append(batchLine, ln.no)
		if len(batch) >= followBatchCap {
			return flush()
		}
		return 0
	}

	// Graceful shutdown: SIGINT/SIGTERM end the loop like EOF — the
	// pending batch is applied, the summary prints, and the durable
	// state takes the clean Close() path (final snapshot checkpoint,
	// rotated-empty WAL, flock release) instead of leaving a log tail
	// for the next invocation's crash recovery to replay.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

loop:
	for {
		select {
		case sig := <-sigc:
			fmt.Fprintf(stderr, "pdedup: %v: draining\n", sig)
			break loop
		case ln, ok := <-lines:
			if !ok {
				break loop
			}
			if rc := handle(ln); rc != 0 {
				return rc
			}
			// Read-ahead: coalesce everything already buffered into the
			// pending batch, stopping the moment the pipe is empty.
		drain:
			for len(batch) > 0 {
				select {
				case ln, ok := <-lines:
					if !ok {
						break drain
					}
					if rc := handle(ln); rc != 0 {
						return rc
					}
				default:
					break drain
				}
			}
			if rc := flush(); rc != 0 {
				return rc
			}
		}
	}
	if rc := flush(); rc != 0 {
		return rc
	}
	return summary()
}

func loadUnion(paths []string) (*probdedup.XRelation, error) {
	var rels []*probdedup.XRelation
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		xr, err := decodeAny(string(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rels = append(rels, xr)
	}
	u := rels[0]
	for _, r := range rels[1:] {
		var err error
		u, err = u.Union(u.Name+"+"+r.Name, r)
		if err != nil {
			return nil, err
		}
	}
	return u, nil
}

// decodeAny sniffs the format: JSON (leading '{', distinguished by a
// top-level "xtuples" key), text xrelation, or text relation. The JSON
// probe decodes the document's top-level keys only, so a plain
// relation whose string values happen to contain "xtuples" is not
// misclassified.
func decodeAny(data string) (*probdedup.XRelation, error) {
	head := firstContentLine(data)
	switch {
	case strings.HasPrefix(head, "{"):
		var probe struct {
			XTuples json.RawMessage `json:"xtuples"`
		}
		if err := json.Unmarshal([]byte(data), &probe); err != nil {
			return nil, fmt.Errorf("json: %w", err)
		}
		if probe.XTuples != nil {
			return probdedup.DecodeXRelationJSON(strings.NewReader(data))
		}
		r, err := probdedup.DecodeRelationJSON(strings.NewReader(data))
		if err != nil {
			return nil, err
		}
		return r.ToXRelation(), nil
	case strings.HasPrefix(head, "xrelation"):
		return probdedup.DecodeXRelation(strings.NewReader(data))
	default:
		r, err := probdedup.DecodeRelation(strings.NewReader(data))
		if err != nil {
			return nil, err
		}
		return r.ToXRelation(), nil
	}
}

func firstContentLine(s string) string {
	for _, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if line != "" && !strings.HasPrefix(line, "#") {
			return line
		}
	}
	return ""
}
