// Command perfbench is the repository's benchmark: it serves the article
// database through internal/service over loopback HTTP, drives one of
// three workloads against it, checks every answer against an oracle built
// from the generated sources, and prints the metrics as JSON. README.md
// describes the workloads, metrics and run shape.
//
//	perfbench --workload query|ingest|mixed|all --seed N --seconds S --trace 0|1
//
// It is built and run by run.sh from the root of a checkout. The last
// line of standard output is the result object; the line before it is a
// report with every metric, its sample count and the run's metadata.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is one workload run.
type outcome struct {
	attempted, failed int
	errs              []string
	metrics           map[string]metric
	report            map[string]any
}

func (o *outcome) add(p *phase) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.errs = append(o.errs, p.errs...)
}

var workloads = []string{"query", "ingest", "mixed"}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "query, ingest, mixed, or all three in turn")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same corpus and query stream")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced variant, which reports the per-layer metrics")
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	for _, w := range names {
		if _, ok := baseDocs[w]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want query, ingest, mixed or all)\n", *workload)
			return 2
		}
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range names {
		cfg := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: filepath.Join(dir, w)}
		var out *outcome
		var err error
		if cfg.trace {
			out, err = runTraced(cfg)
		} else {
			out, err = runUntraced(cfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			return 1
		}
		for _, e := range out.errs {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w, e)
		}
		out.report["meta"] = metadata(cfg)
		line, err := json.Marshal(map[string]any{"report": out.report})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println(string(line))
		final.Attempted += out.attempted
		final.Failed += out.failed
		for k, m := range out.metrics {
			if len(names) > 1 {
				k = w + "." + k
			}
			final.Metrics[k] = m
		}
	}
	final.Correct = final.Failed == 0
	for k, m := range final.Metrics {
		if !validName(k) || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %q = %v is not reportable\n", k, m.Value)
			return 1
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// setupMedian sets the workload up setupReps times, tearing down all but
// the last, and returns that one with the median set-up time.
func setupMedian(cfg config) (*stage, []float64, error) {
	var times []float64
	for {
		start := time.Now()
		s, err := setup(cfg)
		if err != nil {
			return nil, nil, errors.Join(err, s.teardown())
		}
		times = append(times, time.Since(start).Seconds())
		if len(times) == setupReps {
			return s, times, nil
		}
		if err := s.teardown(); err != nil {
			return nil, nil, err
		}
		runtime.GC()
	}
}

// runUntraced measures the end-to-end metrics.
func runUntraced(cfg config) (out *outcome, err error) {
	s, setups, err := setupMedian(cfg)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, s.teardown()) }()
	p := s.run(time.Duration(cfg.seconds)*time.Second, 0)
	out = &outcome{report: map[string]any{}}
	out.add(p)
	chk := &phase{}
	s.checks(chk)
	heap := s.liveHeapPerDoc()
	var recovery time.Duration
	if cfg.workload == "ingest" {
		if recovery, err = s.recovery(chk); err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
	}
	out.add(chk)
	out.metrics = map[string]metric{
		"setup_s":            {median(setups), "s"},
		"cpu_ms_per_op":      {p.cpuPerOp(), "ms"},
		"throughput_per_s":   {float64(p.ops) / p.elapsed.Seconds(), "1/s"},
		"heap_bytes_per_doc": {heap, "B"},
	}
	out.report["end_to_end"] = endToEnd(s, p, setups, heap, recovery, out)
	return out, nil
}

// endToEnd names every end-to-end measurement of the workload the way
// README.md's table does, with its unit and sample count.
func endToEnd(s *stage, p *phase, setups []float64, heap float64, recovery time.Duration, out *outcome) map[string]any {
	m := map[string]any{
		"setup_s":                        map[string]any{"value": median(setups), "unit": "s", "n": len(setups), "all": setups},
		"heap_bytes_per_doc":             map[string]any{"value": heap, "unit": "B"},
		"error_ratio":                    map[string]any{"value": float64(out.failed) / float64(max(out.attempted, 1)), "unit": "ratio", "n": out.attempted},
		"answers_with_newer_epoch_label": map[string]any{"value": s.skewed.Load(), "unit": "count"},
	}
	timing := func(name string, d *dist, want float64) {
		sm := d.summarize(want)
		m[name+"_p50_ms"] = map[string]any{"value": sm.P50, "unit": "ms", "n": sm.N}
		tail := fmt.Sprintf("%s_p%g_ms", name, want)
		m[tail] = map[string]any{"value": sm.Tail, "unit": "ms", "n": sm.N, "percentile_supported": sm.TailPct}
	}
	rate := func(name string) {
		m[name] = map[string]any{"value": float64(p.ops) / p.elapsed.Seconds(), "unit": "1/s", "n": p.ops, "seconds": p.elapsed.Seconds()}
	}
	var deciles []float64
	for q := 10.0; q < 100; q += 10 {
		deciles = append(deciles, p.lat.at(q))
	}
	m["latency_deciles_ms"] = map[string]any{"value": deciles, "unit": "ms", "n": len(p.lat.ms)}
	m["cpu_ms_per_op"] = map[string]any{"value": p.cpuPerOp(), "unit": "ms", "n": p.ops}
	switch s.cfg.workload {
	case "query":
		timing("query", &p.lat, 99)
		rate("query_per_s")
	case "ingest":
		timing("commit", &p.lat, 95)
		rate("ingest_docs_per_s")
		m["recovery_s"] = map[string]any{"value": recovery.Seconds(), "unit": "s", "n": 1}
	case "mixed":
		timing("commit", &p.lat, 95)
		timing("query", &p.readLat, 99)
		timing("query_service", &p.readSvc, 99)
		timing("repl_lag", &p.lag, 95)
		rate("commit_per_s")
		m["query_per_s"] = map[string]any{"value": float64(len(p.readLat.ms)) / p.elapsed.Seconds(), "unit": "1/s", "n": len(p.readLat.ms)}
		m["loadgen.late_p99_ms"] = map[string]any{"value": p.late.summarize(99).Tail, "unit": "ms", "n": len(p.late.ms),
			"percentile_supported": p.late.summarize(99).TailPct}
	}
	return m
}

// runTraced measures the per-layer metrics. The timed phase is split:
// its first half runs untraced, its second half traced, and the
// difference between the two is the tracing overhead.
func runTraced(cfg config) (out *outcome, err error) {
	s, err := setup(cfg)
	if err != nil {
		return nil, errors.Join(err, s.teardown())
	}
	defer func() { err = errors.Join(err, s.teardown()) }()
	tr := s.tr
	half := time.Duration(cfg.seconds) * time.Second / 2
	s.tr = nil
	p0 := s.run(half, 0)
	s.tr = tr
	traceStart := time.Now()
	p1 := s.run(half, 1)
	gcSpans(tr.rec, traceStart)
	out = &outcome{report: map[string]any{}}
	out.add(p0)
	out.add(p1)
	chk := &phase{}
	s.checks(chk)
	rd := s.reader().db.Engine.State()
	pst := s.primary.db.Engine.State()
	valueBytes := pst.Snap.Inst.Stats().ValueBytes
	var recovery time.Duration
	if cfg.workload == "ingest" {
		if recovery, err = s.recovery(chk); err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
	}
	out.add(chk)

	spans := tr.rec.snapshot()
	names := byName(spans)
	ms := func(name string) float64 {
		if d := names[name]; d != nil {
			return d.at(50)
		}
		return math.NaN()
	}
	cnt := func(name string) float64 {
		if d := tr.counts[name]; d != nil {
			return d.at(50)
		}
		return math.NaN()
	}
	bytesPerOp, objsPerOp := p0.allocsPerOp()
	out.metrics = map[string]metric{
		"service.overhead_ms":            {p0.overhead.at(50), "ms"},
		"service.encode_ms":              {ms("service.encode"), "ms"},
		"service.response_bytes":         {cnt("service.response_bytes"), "B"},
		"sgmldb.query_ms":                {s.serverQuery.at(50), "ms"},
		"sgmldb.commit_ms":               {s.serverCommit.at(50), "ms"},
		"oql.parse_ms":                   {ms("oql.parse"), "ms"},
		"oql.typecheck_ms":               {ms("oql.typecheck"), "ms"},
		"oql.lower_ms":                   {ms("oql.lower"), "ms"},
		"calculus.eval_ms":               {ms("calculus.eval"), "ms"},
		"calculus.result_rows":           {cnt("calculus.result_rows"), "count"},
		"text.eval_ms":                   {ms("text.eval"), "ms"},
		"text.clone_ms":                  {ms("text.clone"), "ms"},
		"text.add_ms":                    {ms("text.add"), "ms"},
		"text.postings":                  {float64(rd.Index.Size()), "count"},
		"text.vocabulary":                {float64(rd.Index.VocabularySize()), "count"},
		"sgml.parse_ms":                  {ms("sgml.parse"), "ms"},
		"dtdmap.load_ms":                 {ms("dtdmap.load"), "ms"},
		"dtdmap.textof_ms":               {ms("dtdmap.textof"), "ms"},
		"store.begin_ms":                 {ms("store.begin"), "ms"},
		"store.depth":                    {cnt("store.depth"), "count"},
		"store.value_bytes_per_raw_byte": {float64(valueBytes) / float64(s.raw), "ratio"},
		"wal.append_ms":                  {ms("wal.append"), "ms"},
		"wal.checkpoint_ms":              {ms("wal.checkpoint"), "ms"},
		"replica.bootstrap_s":            {cnt("replica.bootstrap_s"), "s"},
		"runtime.gc_cpu_fraction":        {p0.gcFraction(), "ratio"},
		"runtime.alloc_bytes_per_op":     {bytesPerOp, "B"},
	}
	layers := map[string]any{}
	for name, d := range names {
		sm := d.summarize(95)
		layers[name] = map[string]any{"p50_ms": sm.P50, "p95_ms": sm.Tail, "percentile_supported": sm.TailPct, "n": sm.N}
	}
	counts := map[string]any{}
	for name, d := range tr.counts {
		counts[name] = map[string]any{"p50": d.at(50), "n": len(d.ms)}
	}
	extra := map[string]any{
		"runtime.allocs_per_op": objsPerOp,
		"loadgen.late_p99_ms":   p1.late.summarize(99),
	}
	if durable(cfg.workload) {
		extra["wal.checkpoints"] = p1.ckpts
		extra["wal.bytes_per_user_byte"] = float64(p1.walBytes) / float64(max(p1.userBytes, 1))
	}
	if cfg.workload == "ingest" {
		extra["recovery_s"] = recovery.Seconds()
	}
	if cfg.workload == "mixed" {
		extra["replica.lag_records"] = p1.lagRecs.summarize(95)
	}
	spansPath := filepath.Join(filepath.Dir(filepath.Dir(cfg.dir)), fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(spansPath, spans); err != nil {
		return nil, err
	}
	out.report["per_layer"] = map[string]any{
		"spans":            layers,
		"counts":           counts,
		"self_ms":          layerSelf(spans),
		"more":             extra,
		"tracing_overhead": overhead(p0, p1),
		"spans_file":       spansPath,
		"span_count":       len(spans),
	}
	for k := range out.metrics {
		if math.IsNaN(out.metrics[k].Value) {
			return nil, fmt.Errorf("per-layer metric %s has no samples", k)
		}
	}
	return out, nil
}

// overhead is traced minus untraced for the end-to-end timings of the two
// halves of a traced run.
func overhead(untraced, traced *phase) map[string]any {
	d := func(f func(*phase) float64) map[string]float64 {
		u, t := f(untraced), f(traced)
		return map[string]float64{"untraced": u, "traced": t, "traced_minus_untraced": t - u}
	}
	return map[string]any{
		"latency_p50_ms":   d(func(p *phase) float64 { return p.lat.at(50) }),
		"latency_p95_ms":   d(func(p *phase) float64 { return p.lat.at(95) }),
		"throughput_per_s": d(func(p *phase) float64 { return float64(p.ops) / p.elapsed.Seconds() }),
	}
}

// gcSpans records the collector's stop-the-world pauses since start as
// spans of the runtime layer.
func gcSpans(r *recorder, start time.Time) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for i := uint32(0); i < min(ms.NumGC, 256); i++ {
		k := (ms.NumGC - 1 - i) % 256
		end := time.Unix(0, int64(ms.PauseEnd[k]))
		if end.Before(start) {
			break
		}
		r.add(0, 0, "runtime.gc_pause", end.Add(-time.Duration(ms.PauseNs[k])), end)
	}
}

// metadata describes the host, the build and the system configuration
// the numbers were taken on.
func metadata(cfg config) map[string]any {
	m := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_commit": gitCommit(),
		"evaluator":  "naive calculus evaluator (sgmldb.OpenDTD default options, as cmd/sgmldbd; WithAlgebra not set)",
		"base_docs":  baseDocs[cfg.workload],
		"setup":      fmt.Sprintf("bulk /v1/load in batches of %d, %d named roots", batchSize, namedRoots),
	}
	if durable(cfg.workload) {
		m["flush_policy"] = "one WAL record and one fsync per /v1/load batch, before publish (sgmldb default)"
		m["checkpoint_every_records"] = walCadence
	} else {
		m["flush_policy"] = "in-memory database: no log, no fsync"
	}
	switch cfg.workload {
	case "query":
		m["load"] = fmt.Sprintf("closed loop, %d clients, query mix", queryClients)
	case "ingest":
		m["load"] = "closed loop, 1 client, one new article per /v1/load"
	case "mixed":
		m["load"] = fmt.Sprintf("open loop: writer %.0f loads/s to the primary, reader %.0f queries/s (query mix) on the follower", writeRate, readRate)
	}
	return m
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from .git without running git,
// so that nothing outside the checkout is consulted.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown (" + ref + " unresolved)"
}
