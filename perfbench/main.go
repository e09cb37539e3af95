// Command perfbench is the twin's benchmark. It drives one workload
// in-process through the layers' public entry points, checks the
// workload's outputs, and prints its metrics as the last line of standard
// output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run alternates traced and untraced units and prints the per-layer ones,
// including the tracing overhead. Spans of a traced run are written to
// .bench_build/ at exit. See README.md for the workloads and metrics.
//
// Usage (from the repository root, which run.sh builds from):
//
//	bash perfbench/run.sh --workload figures --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"mira/perfbench/loadgen"
)

// metricSpec names one metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the twin sees, printed by every
// workload's untraced run. What each means per workload is in README.md.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"disk_mib", "MiB"},
	{"remote_wall_s", "s"},
	{"read_p50_ms", "ms"},
	{"ok_ratio", "ratio"},
}

// perLayer are the traced run's metrics. A workload that bypasses a layer
// reports it as 0.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"sim.run_s", "s"}, {"sim.self_s", "s"}, {"sim.tick_us", "us"},
		{"sim.ticks", "count"}, {"sim.samples", "count"}, {"sim.incidents", "count"},
		{"sim.rec.collector_s", "s"}, {"sim.rec.windows_s", "s"}, {"sim.rec.ingest_s", "s"},
		{"tsdb.append_ns_per_rec", "ns"}, {"tsdb.records", "count"},
		{"tsdb.seal_flush_s", "s"}, {"tsdb.bytes_per_sample", "B"},
		{"tsdb.compact_s", "s"}, {"tsdb.cold_windows", "count"}, {"tsdb.open_s", "s"},
		{"analysis.replay_s", "s"}, {"analysis.replay_mrec_per_s", "Mrec/s"},
		{"analysis.blocks_decoded", "count"}, {"analysis.blocks_pruned", "count"},
		{"analysis.pushdown_s", "s"}, {"analysis.figures_s", "s"}, {"core.fig13_s", "s"},
		{"net.remote_replay_s", "s"}, {"net.remote_pushdown_s", "s"},
		{"net.server.scan_s", "s"}, {"net.wire_bytes_per_rec", "B"},
	}
	for _, op := range []string{"query", "series", "aggregate", "ingest"} {
		m = append(m,
			metricSpec{"net.client." + op + "_p50_ms", "ms"}, metricSpec{"net.client." + op + "_p99_ms", "ms"},
			metricSpec{"net.server." + op + "_p50_ms", "ms"}, metricSpec{"net.server." + op + "_p99_ms", "ms"},
			metricSpec{"tsdb." + op + "_p50_us", "us"}, metricSpec{"tsdb." + op + "_p99_us", "us"})
	}
	return append(m,
		metricSpec{"loadgen.late_p99_ms", "ms"}, metricSpec{"loadgen.conn_wait_p99_ms", "ms"},
		metricSpec{"loadgen.ingest_p99_ms", "ms"},
		metricSpec{"read.p99_ms", "ms"}, metricSpec{"read.samples", "count"}, metricSpec{"read.tail_pct", "pct"},
		metricSpec{"net.ingest_retries", "count"}, metricSpec{"net.ingest_duplicates", "count"},
		metricSpec{"campaign.submit_p50_ms", "ms"}, metricSpec{"campaign.claim_p50_ms", "ms"},
		metricSpec{"campaign.heartbeat_p50_ms", "ms"}, metricSpec{"campaign.complete_p50_ms", "ms"},
		metricSpec{"campaign.job_s", "s"}, metricSpec{"campaign.overhead_ratio", "ratio"},
		metricSpec{"campaign.claims_useful_ratio", "ratio"}, metricSpec{"campaign.lease_expiries", "count"},
		metricSpec{"campaign.duplicate_completes", "count"},
		metricSpec{"trace.overhead_s", "s"}, metricSpec{"trace.root_self_s", "s"}, metricSpec{"trace.spans", "count"},
	)
}()

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*runEnv) (*outcome, error){
	"figures": runFigures,
	"replay":  runReplay,
	"serve":   runServe,
	"sweep":   runSweep,
}

// runEnv is what a workload's run function gets.
type runEnv struct {
	seed   int64
	budget time.Duration // how long to measure
	tr     *tracer       // non-nil in traced runs
	work   string        // scratch directory, removed at exit
}

// traced reports whether this is the per-layer run.
func (e *runEnv) traced() bool { return e.tr != nil }

// dir makes a fresh scratch subdirectory.
func (e *runEnv) dir(name string) (string, error) {
	d := filepath.Join(e.work, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// outcome is a workload's result: metric values, operation counts, failed
// output checks, and method notes.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
	method    map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, method: map[string]any{}}
}

// check records a failed output check.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// op counts one attempted operation and whether it failed.
func (o *outcome) op(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.failed <= 5 {
			o.problems = append(o.problems, "operation failed: "+err.Error())
		}
	}
}

// setupRepeats is how many times each workload sets up; setup_s is the
// median, so one slow set-up does not read as a regression.
const setupRepeats = 3

// timeSetups runs setup setupRepeats times and records the median time.
// Each repetition must rebuild its state from scratch; the last one's state
// is what the workload measures.
func timeSetups(o *outcome, setup func(i int) error) error {
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := setup(i); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	o.metrics["setup_s"] = loadgen.Median(secs)
	return nil
}

// repeatUnits runs unit repeatedly until the budget is spent, at least
// twice. In traced runs units alternate between traced and untraced,
// starting traced, so both medians come from the same run.
func repeatUnits(e *runEnv, unit func(tr *tracer, i int) error) error {
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < e.budget; i++ {
		var tr *tracer
		if e.traced() && i%2 == 0 {
			tr = e.tr
		}
		if err := unit(tr, i); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: figures, replay, serve or sweep")
		seed     = flag.Int64("seed", 42, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 20, "how long to measure, in seconds")
		trace    = flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	)
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload figures|replay|serve|sweep, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	out := ".bench_build"
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(out, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	env := &runEnv{seed: *seed, budget: time.Duration(*seconds) * time.Second, work: work}
	if *trace == 1 {
		env.tr = newTracer()
	}

	began := time.Now()
	o, err := drive(env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if env.traced() {
		path := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.jsonl", *workload, *seed))
		if err := env.tr.writeJSON(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", *workload, p)
	}

	specs := endToEnd
	if env.traced() {
		specs = perLayer
	}
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := o.metrics[s.name]
		if !ok && !env.traced() {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *workload, s.name)
			return 1
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}

	method := map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": commit(), "source_sha256": sourceDigest(),
		"run_s":         time.Since(began).Seconds(),
		"load_in_proc":  "the load generator, clients and servers share this process and its CPUs",
		"setup_repeats": setupRepeats,
	}
	for k, v := range o.method {
		method[k] = v
	}
	printJSON(map[string]any{"method": method})
	printJSON(res)
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and numbers are marshalled
	}
	fmt.Println(string(b))
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources and go.mod under the
// current directory, identifying the code measured when the checkout is
// not a git repository. The benchmark's own directory and build outputs
// are skipped.
func sourceDigest() string {
	h := sha256.New()
	// Unreadable entries are skipped: the digest only labels the result.
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || path == "go.mod" {
			b, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
