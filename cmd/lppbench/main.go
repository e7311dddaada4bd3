// Command lppbench regenerates the tables and figures of the paper's
// evaluation section. Throughput and latency of the offline, streaming
// and clustered paths are measured by the benchmark in lppperf/ (run
// it with `bash lppperf/run.sh`; see lppperf/README.md).
//
// Usage:
//
//	lppbench                    # run everything at full size
//	lppbench -exp table2,fig6   # run selected experiments
//	lppbench -quick             # shrunken inputs (seconds, not minutes)
//	lppbench -out results/      # also write CSV artifacts
//	lppbench -j 8               # analysis worker pool (default GOMAXPROCS)
//	lppbench -list              # list experiments
//	lppbench -warmstart         # knowledge-store warm-start benchmark, write BENCH_warmstart.json
//	lppbench -hostile [-family drift]     # differential torture harness, write BENCH_hostile.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"lpp/internal/experiments"
	"lpp/internal/profiling"
)

func main() {
	var (
		exp     = flag.String("exp", "", "comma-separated experiment names (default all)")
		quick   = flag.Bool("quick", false, "shrink inputs for a fast run")
		out     = flag.String("out", "", "directory for CSV/SVG artifacts")
		list    = flag.Bool("list", false, "list experiments and exit")
		jobs    = flag.Int("j", runtime.GOMAXPROCS(0), "analysis worker-pool size; 1 = strictly sequential (output is identical at any setting)")
		html    = flag.String("html", "", "write a self-contained HTML report to this file (needs -out)")
		warm    = flag.Bool("warmstart", false, "benchmark knowledge-store warm starts on the golden workloads (writes BENCH_warmstart.json)")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		hostile = flag.Bool("hostile", false, "run the differential torture harness over the hostile families (writes BENCH_hostile.json)")
		family  = flag.String("family", "", "restrict -hostile to one family: interleaved, drift, or adaptive")
	)
	flag.Parse()
	if *jobs < 1 {
		*jobs = 1
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	if *warm {
		if err := runWarmstartBench(*out); err != nil {
			fatal(err)
		}
		return
	}

	if *hostile {
		if *list {
			listHostile()
			return
		}
		if err := runHostile(*out, *family); err != nil {
			fatal(err)
		}
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.Name, e.Title)
		}
		for _, e := range experiments.Extensions() {
			fmt.Printf("%-12s %s\n", e.Name, e.Title)
		}
		return
	}

	var run []experiments.Experiment
	if *exp == "" {
		run = experiments.All()
	} else {
		for _, name := range strings.Split(*exp, ",") {
			e, err := experiments.ByName(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			run = append(run, e)
		}
	}

	opts := experiments.Options{
		Quick:  *quick,
		OutDir: *out,
		Jobs:   *jobs,
		Cache:  experiments.NewCache(),
	}

	if *html != "" {
		if *out == "" {
			fatal(fmt.Errorf("-html needs -out for the figure artifacts"))
		}
		f, err := os.Create(*html)
		if err != nil {
			fatal(err)
		}
		err = experiments.HTMLReport(f, run, opts)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("report written to %s\n", *html)
		return
	}

	// The report itself is deterministic and ordered; timing goes to
	// stderr so stdout is byte-identical at every -j.
	start := time.Now()
	if err := experiments.RunReport(os.Stdout, run, opts); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "lppbench: %d experiments in %v (-j %d)\n",
		len(run), time.Since(start).Round(time.Millisecond), *jobs)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lppbench:", err)
	os.Exit(1)
}
