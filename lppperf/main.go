// Command lppperf is the repository's benchmark. It runs one named
// workload, checks every output the program produced against an
// independent in-process replay, and prints the workload's metrics as
// one JSON object on the last line of standard output:
//
//	bash lppperf/run.sh --workload stream-ephemeral --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured against
// real lppserve processes (or, for offline-detect, a child process
// running core.Detect). With --trace 1 the workload runs in-process
// with spans around every handler and client call, the chunk stream is
// replayed layer by layer through the public calls, and the metrics
// are the per-layer ones. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // checkout root; all scratch files live under it
	lppserve string // path of the lppserve binary the served workloads launch
	scratch  string // per-run scratch directory under root
	tiny     bool   // smoke-test sizes
}

// workloadInfo names a workload, why it exists, and how it runs.
type workloadInfo struct {
	name string
	why  string
	e2e  func(o options) (*outcome, error)
	trc  func(o options) (*outcome, error)
}

var workloads = []workloadInfo{
	{"offline-detect", "the paper's batch path: core.Detect over the nine training runs exercises the exact reuse analyzer, sampling, filter, partition, markers, hierarchy; no HTTP or WAL", runOffline, traceOffline},
	{"stream-ephemeral", "one in-memory node fed 4096-event v2 chunks of fft/mesh/swim/vortex: the approximate analyzer dominates, and swim/vortex exceed its MaxLive cap", runStream, traceStream},
	{"cluster-durable", "router, 2 durable nodes with standbys and consumers, short gcc/moldyn sessions in 256-event chunks: per-request layers, WAL and checkpoints weigh", runCluster, traceCluster},
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int64
	// problems lists every failed output or accounting check.
	problems []string
	metrics  map[string]float64
	// info is free-form detail printed before the result line.
	info map[string]any
}

func (oc *outcome) fail(format string, args ...any) {
	oc.problems = append(oc.problems, fmt.Sprintf(format, args...))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == childFlag {
		if err := offlineChild(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "lppperf child:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lppperf:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lppperf", flag.ContinueOnError)
	var (
		o       options
		traceOn int
		seconds int
	)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&traceOn, "trace", 0, "1 = traced in-process run reporting per-layer metrics")
	fs.StringVar(&o.lppserve, "lppserve", "", "lppserve binary (served workloads, --trace 0)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.seconds = float64(seconds)
	o.trace = traceOn == 1
	var w *workloadInfo
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	// The benchmark runs from the checkout root and keeps every scratch
	// file under it.
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	o.root = root
	o.scratch, err = os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(o.scratch)

	run := w.e2e
	if o.trace {
		run = w.trc
	}
	oc, err := run(o)
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	res, err := assemble(o, oc)
	if err != nil {
		return err
	}
	prov := provenance(o, w)
	for k, v := range oc.info {
		prov[k] = v
	}
	printJSON(map[string]any{"provenance": prov})
	for _, p := range oc.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	// Every metric by name, with its unit, for a human reader.
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	// Measured metrics that BENCHMARK.json does not bound.
	for k, v := range oc.info {
		if m, ok := v.(metric); ok {
			fmt.Printf("# %-34s %14.6g %s (provenance only)\n", k, m.Value, m.Unit)
		}
	}
	printJSON(res)
	return nil
}

// assemble checks that the workload reported exactly the catalog's
// metrics for this mode and attaches their units.
func assemble(o options, oc *outcome) (*result, error) {
	cat := endToEnd
	if o.trace {
		cat = perLayer
	}
	res := &result{
		Correct:   len(oc.problems) == 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   make(map[string]metric, len(cat)),
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s: nothing attempted", o.workload)
	}
	for _, m := range cat {
		v, ok := oc.metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s not measured", o.workload, m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	for n := range oc.metrics {
		if _, ok := res.Metrics[n]; !ok {
			return nil, fmt.Errorf("%s: metric %s is not in the catalog", o.workload, n)
		}
	}
	return res, nil
}

// provenance records the host and the rules a reader needs to interpret
// the numbers.
func provenance(o options, w *workloadInfo) map[string]any {
	rules := make(map[string]string, len(perLayer))
	for _, m := range perLayer {
		rules[m.name] = m.moves
	}
	return map[string]any{
		"workload":   w.name,
		"why":        w.why,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(o.root),
		"layer_rule": rules,
	}
}

// commit names the checked-out commit when the checkout is a git work
// tree, by reading .git directly (no git binary needed).
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(root, ".git", name))
		if err != nil {
			return "unknown (packed ref " + name + ")"
		}
		return strings.TrimSpace(string(b))
	}
	return ref
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and numbers are printed
	}
	fmt.Println(string(b))
}

// deadline returns when a run that starts now has measured long enough.
func deadline(o options) time.Time {
	return time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
}

// parallelFor calls f(i) for every i in [0, n) on one goroutine per
// CPU and returns when all calls have.
func parallelFor(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}
