// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It drives three closed-loop workloads from one process, each with a
// single caller:
//
//	pipeline   in-process Thm. 1 / Thm. 2 colorings through the public API
//	serve      one HTTP client against an in-process deltaserved plus a
//	           second instance serving as its shard worker
//	graphs_rw  durable /v1/graphs stores under mutation batches and reads
//
// A run builds its inputs from -seed, sets up, then repeats whole rounds of
// one fixed op sequence for -seconds. Every op's output is checked outside
// the timed section by this package's own code. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With -trace 1
// the metrics are the per-layer ones, measured on alternate rounds while the
// other rounds run untraced, so the throughput gap is the tracing overhead.
//
// -repeat N runs the workload N times (seeds seed..seed+N-1) as child
// processes and prints each metric's median and quartiles.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(*runner) error{
	"pipeline":  runPipeline,
	"serve":     runServe,
	"graphs_rw": runGraphsRW,
}

// endToEnd lists the end-to-end metrics in print order with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"rounds_per_op", "rounds"},
	{"alloc_mb_per_op", "MB"},
	{"heap_mb", "MB"},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last stdout line of a run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "pipeline, serve or graphs_rw (all, with -repeat)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = per-layer metrics from a traced run")
	repeat := fs.Int("repeat", 0, "run N times with seeds seed..seed+N-1 and print quartiles")
	out := fs.String("out", ".bench_build/perfbench", "directory for traces and durable stores")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *repeat > 0 {
		return repeatRuns(*workload, *seed, *seconds, *trace, *repeat, *out)
	}
	drive, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want pipeline, serve or graphs_rw)", *workload)
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	r := newRunner(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err := drive(r); err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	rep := r.report()
	if r.traced {
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", *workload, *seed))
		if err := r.tr.write(path); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", r.tr.len(), path)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d: attempted %d failed %d correct %t\n",
		*workload, *seed, rep.Attempted, rep.Failed, rep.Correct)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("  %-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// report assembles the run's printed metrics.
func (r *runner) report() report {
	rep := report{
		Correct:   r.wrong == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if r.traced {
		for _, name := range perLayerNames() {
			rep.Metrics[name] = metric{Value: r.layer[name], Unit: layerUnit(name)}
		}
		return rep
	}
	compute, reads, thr := r.pick(false)
	vals := map[string]float64{
		"setup_s":          r.setupS,
		"throughput_ops_s": quantile(thr, 0.5),
		"p50_ms":           quantile(compute, 0.5),
		"p90_ms":           quantile(compute, 0.9),
		"read_p50_ms":      quantile(reads, 0.5),
		"rounds_per_op":    float64(r.rounds) / float64(r.computeOps),
		"alloc_mb_per_op":  float64(r.allocBytes) / float64(r.attempted) / (1 << 20),
		"heap_mb":          r.heapMB,
	}
	for _, m := range endToEnd {
		rep.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return rep
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms_per_op"), strings.HasSuffix(name, "_ms_per_batch"),
		strings.HasSuffix(name, ".ms_per_op"), strings.HasSuffix(name, "_batch_ms"):
		return "ms"
	case strings.HasSuffix(name, "alloc_mb_per_op"):
		return "MB"
	case strings.HasSuffix(name, "_kb_per_op"):
		return "KB"
	case strings.HasSuffix(name, "_bytes_per_batch"):
		return "bytes"
	case strings.HasSuffix(name, "_frac"):
		return "fraction"
	case strings.Contains(name, "rounds"):
		return "rounds"
	}
	return "count"
}
