// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload through the public API (audb.Database in process, or an audbd
// server and the Go client over loopback), checks every answer against
// computations made apart from the engine, and prints one JSON object as
// the last line of its standard output:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones listed in
// BENCHMARK.json; with --trace 1 they are the per-layer ones, measured in a
// separate traced run. Inputs are generated from --seed alone. See
// README.md for the workloads, the checks and reference figures.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload tpch-certain --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run hands back: the operation counts, the
// metrics of the requested mode and the lines printed before the result:
// one digest line per distinct answer, then one latency line per
// operation of the timed phase.
type report struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]metric
	lines     []string
}

func (r *report) set(name string, value float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, options) (*report, error){
	"tpch-certain":  func(ctx context.Context, o options) (*report, error) { return runTPCH(ctx, o, false) },
	"tpch-pdbench":  func(ctx context.Context, o options) (*report, error) { return runTPCH(ctx, o, true) },
	"service-mixed": runService,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed every input is drawn from")
	seconds := fs.Float64("seconds", 15, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced mode and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	rep, err := runner(context.Background(), o)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", *name, err)
		return 1
	}
	if err := checkDeclared(rep, o.trace); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// checkDeclared checks that the run reports exactly the metrics, with
// their units, that BENCHMARK.json declares for its mode, when the
// benchmark runs from the root of the tree that holds that file.
func checkDeclared(rep *report, trace bool) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	type declared struct{ Name, Unit string }
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := spec.EndToEnd
	if trace {
		want = spec.PerLayer
	}
	for _, d := range want {
		if m, ok := rep.metrics[d.Name]; !ok || m.Unit != d.Unit {
			return fmt.Errorf("BENCHMARK.json declares %s in %s, the run reports %+v", d.Name, d.Unit, m)
		}
	}
	if len(want) != len(rep.metrics) {
		return fmt.Errorf("the run reports %d metrics, BENCHMARK.json declares %d", len(rep.metrics), len(want))
	}
	return nil
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
