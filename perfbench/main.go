// Command perfbench is the repository's end-to-end benchmark. One run
// executes one workload from a single process, checks the outputs of
// every operation it drives, and prints its metrics by name and unit; the
// last line of standard output is the JSON result.
//
//	go run . --workload shadow-10k --seed 4242 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 repeats the
// untraced run (so it can read the program's own counters), then drives
// the same fixture through the layers' public calls with spans around each
// call and prints the per-layer metrics, the tracing overhead and the
// program's counters beside the traced counts. README.md explains the
// workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// runArgs are one run's inputs.
type runArgs struct {
	seed    int64
	seconds int
	trace   bool
	// scratch is the directory for spools and trace files: .bench_build/run
	// under the working directory.
	scratch string
}

// workloads maps --workload names to the functions that run them.
var workloads = map[string]func(runArgs) (*report, error){
	"shadow-10k":     runShadow,
	"quiet-dist-10k": runQuietDist,
	"jobs-small":     runJobs,
}

func main() {
	wl := flag.String("workload", "", "workload: shadow-10k, quiet-dist-10k or jobs-small")
	seed := flag.Int64("seed", DefaultSeed, "seed deriving the geometry, churn and job seeds")
	seconds := flag.Int("seconds", 20, "run length on the reference 2-CPU machine; sizes the run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	run, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *wl, *seconds, *trace)
		os.Exit(2)
	}
	scratch, err := filepath.Abs(filepath.Join(".bench_build", "run"))
	if err == nil {
		err = os.MkdirAll(scratch, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep, err := run(runArgs{seed: *seed, seconds: *seconds, trace: *trace == 1, scratch: scratch})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.correct() {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", strings.Join(rep.failures, "; "))
		os.Exit(1)
	}
}

// metricDef names one printed metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed on every
// workload by the untraced run. README.md defines each per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cold_epoch_s", "s"},
	{"epoch_p50_s", "s"},
	{"sensor_epochs_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"job_latency_p50_s", "s"},
	{"job_latency_p95_s", "s"},
	{"max_rss_mb", "MB"},
	{"success_frac", "frac"},
}

// perLayer are the traced run's metrics, per steady epoch on the field
// workloads and per job on jobs-small; a layer a workload does not run
// reads 0. The program.* entries are the program's own counters from the
// untraced run, printed beside the traced counts they should match.
var perLayer = []metricDef{
	{"topo.build_s", "s"},
	{"radio.refresh_s", "s"},
	{"radio.links_refreshed", "count"},
	{"radio.pairs_materialized", "count"},
	{"routing.plan_s", "s"},
	{"routing.cold_plan_s", "s"},
	{"routing.solves", "count"},
	{"routing.augment_paths", "count"},
	{"routing.cache_hit_frac", "frac"},
	{"sector.partition_s", "s"},
	{"cluster.simulate_s", "s"},
	{"cluster.oracle_tests", "count"},
	{"cluster.slots", "count"},
	{"field.churn_s", "s"},
	{"field.replans", "count"},
	{"field.shard_skew", "ratio"},
	{"dist.rpc_s", "s"},
	{"dist.worker_s", "s"},
	{"dist.wire_s", "s"},
	{"dist.wire_bytes", "bytes"},
	{"dist.barrier_wait_s", "s"},
	{"dist.commit_s", "s"},
	{"dist.reassigns", "count"},
	{"dist.http_conns_per_epoch", "count"},
	{"dist.http_epoch_p50_s", "s"},
	{"dist.http_cpu_per_wall", "ratio"},
	{"service.submit_s", "s"},
	{"service.queue_wait_s", "s"},
	{"service.run_s", "s"},
	{"service.notify_s", "s"},
	{"service.checkpoint_s", "s"},
	{"service.sched_delay_s", "s"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_cpu_frac", "frac"},
	{"proc.cpu_per_wall", "ratio"},
	{"trace.traced_s", "s"},
	{"trace.untraced_s", "s"},
	{"trace.overhead_frac", "frac"},
	{"program.routing.solves", "count"},
	{"program.routing.cache_hit_frac", "frac"},
	{"program.radio.links_refreshed", "count"},
	{"program.radio.pairs_materialized", "count"},
	{"program.cluster.oracle_tests", "count"},
	{"program.field.shard_skew", "ratio"},
	{"program.dist.barrier_s", "s"},
	{"program.dist.reassigns", "count"},
}

// report accumulates one run's outcome.
type report struct {
	attempted int
	failures  []string
	values    map[string]float64
}

func newReport() *report { return &report{values: make(map[string]float64)} }

// op records one attempted operation and the output-check failures it
// produced; an operation with any failure counts as failed.
func (r *report) op(fails ...string) {
	r.attempted++
	if len(fails) > 0 {
		r.failures = append(r.failures, fails[0])
	}
}

func (r *report) correct() bool { return r.attempted > 0 && len(r.failures) == 0 }

func (r *report) set(name string, v float64) { r.values[name] = v }

// result is the JSON the last line of output carries.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the metric table, then the JSON result line.
func (r *report) print(w io.Writer, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	r.set("success_frac", float64(r.attempted-len(r.failures))/float64(max(r.attempted, 1)))
	res := result{
		Correct:   r.correct(),
		Attempted: r.attempted,
		Failed:    len(r.failures),
		Metrics:   make(map[string]resultValue, len(defs)),
	}
	for _, d := range defs {
		v := r.values[d.name]
		res.Metrics[d.name] = resultValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-34s %14.6g %s\n", d.name, v, d.unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
