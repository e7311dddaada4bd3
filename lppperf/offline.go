package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"lpp/internal/core"
	"lpp/internal/marker"
	"lpp/internal/phasedet"
	"lpp/internal/regexphase"
	"lpp/internal/reuse"
	"lpp/internal/sampling"
	"lpp/internal/trace"
	"lpp/internal/workload"
)

// childFlag marks the re-executed benchmark binary that runs offline
// detection in its own process, so its set-up and memory are its own.
const childFlag = "__offline-child"

// offlineRun is one training run of offline-detect.
type offlineRun struct {
	spec   workload.Spec
	params workload.Params
	cfg    core.Config
}

// pinnedInputs names the offline inputs that do not follow --seed, and
// why; every result's provenance carries it.
var pinnedInputs = map[string]string{
	"gcc": "training input: core.Detect fails on about 1 input seed in 20 (marker: no blank regions above threshold), " +
		"a known detection limitation, and no operation of a benchmark run may fail",
	"compress": "training alphabet size (Seed mod 5), which alone halves or doubles the run; the data follows the seed",
}

// offlineRuns are one pass's nine training runs; each pass draws fresh
// input seeds from the run seed, except as pinnedInputs says. Gcc and
// Vortex, whose phase lengths the paper finds input-dependent, use the
// paper's Section 3.1.2 extension (KeepIrregular); without it Gcc's
// training run yields no markable phases. Smoke tests use two runs.
func offlineRuns(seed uint64, pass int, tiny bool) []offlineRun {
	var out []offlineRun
	for i, spec := range workload.All() {
		if tiny && spec.Name != "gcc" && spec.Name != "moldyn" {
			continue
		}
		p := spec.Train
		switch spec.Name {
		case "gcc":
		case "compress":
			s := mix(seed, uint64(200+16*pass+i))
			p.Seed = s - s%5 + spec.Train.Seed%5
		default:
			p.Seed = mix(seed, uint64(200+16*pass+i))
		}
		cfg := core.DefaultConfig()
		cfg.KeepIrregular = !spec.Predictable
		out = append(out, offlineRun{spec: spec, params: p, cfg: cfg})
	}
	return out
}

// fingerprint hashes every field of a Detection that the analysis
// computes; encoding/json sorts map keys, so equal detections hash
// equal.
func fingerprint(d *core.Detection) (string, error) {
	b, err := json.Marshal(struct {
		Samples         sampling.Result
		Filtered        []int
		Boundaries      []int64
		Selection       marker.Selection
		PhaseSeq        []int
		Hierarchy       regexphase.Expr
		PhaseConsistent map[marker.PhaseID]bool
		Accesses, Instr int64
	}{d.Samples, d.Filtered, d.Boundaries, d.Selection, d.PhaseSeq, d.Hierarchy, d.PhaseConsistent, d.Accesses, d.Instructions})
	if err != nil {
		return "", fmt.Errorf("fingerprint: %w", err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

// childReport is the detection child's answer.
type childReport struct {
	Passes       []float64  `json:"passes"`  // seconds per pass over all runs
	Latency      []float64  `json:"latency"` // ms per core.Detect call
	VmHWMKiB     int64      `json:"vmhwm_kib"`
	Fingerprints [][]string `json:"fingerprints"` // per pass, per run
}

// offlineChild runs in the child process: it announces readiness, then
// on "go" runs passes of core.Detect (default workers) over every
// training run until the deadline, and reports.
func offlineChild(args []string) error {
	fs := flag.NewFlagSet(childFlag, flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "")
	seconds := fs.Float64("seconds", 10, "")
	tiny := fs.Bool("tiny", false, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Println("ready")
	line, err := bufio.NewReader(os.Stdin).ReadString('\n')
	if err != nil || line != "go\n" {
		return nil // a set-up probe: told to quit
	}
	var rep childReport
	until := time.Now().Add(time.Duration(*seconds * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(until); pass++ {
		var total time.Duration
		var fps []string
		for _, r := range offlineRuns(*seed, pass, *tiny) {
			t := time.Now()
			d, err := core.Detect(r.spec.Make(r.params), r.cfg)
			lat := time.Since(t)
			if err != nil {
				return fmt.Errorf("%s: %w", r.spec.Name, err)
			}
			total += lat
			rep.Latency = append(rep.Latency, ms(lat))
			// Untimed: the parent checks every Detection.
			fp, err := fingerprint(d)
			if err != nil {
				return err
			}
			fps = append(fps, fp)
		}
		rep.Passes = append(rep.Passes, total.Seconds())
		rep.Fingerprints = append(rep.Fingerprints, fps)
	}
	if rep.VmHWMKiB, err = vmHWM(os.Getpid()); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// startChild launches the detection child and waits for its ready
// line, returning the elapsed time.
func startChild(o options) (*exec.Cmd, io.WriteCloser, *bufio.Reader, time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, nil, 0, err
	}
	args := []string{childFlag, "-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64)}
	if o.tiny {
		args = append(args, "-tiny")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	cmd.Dir = o.scratch
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, nil, nil, 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, nil, nil, 0, err
	}
	out := bufio.NewReader(stdout)
	line, err := out.ReadString('\n')
	d := time.Since(t0)
	if err != nil || line != "ready\n" {
		stdin.Close()
		cmd.Wait()
		return nil, nil, nil, 0, fmt.Errorf("detection child did not start: %q %v", line, err)
	}
	return cmd, stdin, out, d, nil
}

func runOffline(o options) (*outcome, error) {
	oc := &outcome{metrics: map[string]float64{}, info: map[string]any{}}
	var setups []float64
	var rep childReport
	for r := 0; r < setupReps; r++ {
		cmd, stdin, out, d, err := startChild(o)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if r < setupReps-1 {
			stdin.Close()
			if err := cmd.Wait(); err != nil {
				return nil, fmt.Errorf("detection child: %w", err)
			}
			continue
		}
		io.WriteString(stdin, "go\n")
		stdin.Close()
		err = json.NewDecoder(out).Decode(&rep)
		if werr := cmd.Wait(); err == nil {
			err = werr
		}
		if err != nil {
			return nil, fmt.Errorf("detection child: %w", err)
		}
	}

	// Outside the timed window: every child Detection must equal the
	// sequential composed path's, checked on as many goroutines as there
	// are CPUs.
	type job struct{ pass, run int }
	var jobs []job
	for pass, fps := range rep.Fingerprints {
		for i := range fps {
			jobs = append(jobs, job{pass, i})
		}
	}
	events := make([]int64, len(jobs))
	errs := make([]error, len(jobs))
	parallelFor(len(jobs), func(j int) {
		r := offlineRuns(o.seed, jobs[j].pass, o.tiny)[jobs[j].run]
		rec := trace.NewRecorder(1<<20, 1<<16)
		r.spec.Make(r.params).Run(rec)
		events[j] = int64(len(rec.T.Accesses) + len(rec.T.Blocks))
		cfg := r.cfg
		cfg.Workers = 1
		want, err := core.DetectTrace(&rec.T, cfg)
		if err != nil {
			errs[j] = fmt.Errorf("%s: sequential DetectTrace: %w", r.spec.Name, err)
			return
		}
		fp, err := fingerprint(want)
		if err != nil {
			errs[j] = err
		} else if fp != rep.Fingerprints[jobs[j].pass][jobs[j].run] {
			errs[j] = fmt.Errorf("pass %d %s: core.Detect differs from sequential core.DetectTrace", jobs[j].pass, r.spec.Name)
		}
	})
	var allEvents int64
	for j := range jobs {
		if errs[j] != nil {
			oc.fail("%v", errs[j])
		}
		allEvents += events[j]
	}
	var total float64
	for _, p := range rep.Passes {
		total += p
	}
	oc.attempted = int64(len(rep.Latency))
	oc.metrics["events_per_s"] = float64(allEvents) / total
	oc.metrics["ack_p50_ms"] = quantile(rep.Latency, 0.50)
	// A pass makes one core.Detect call per training run, so its 99th
	// percentile is close to its slowest call.
	perPass := len(rep.Latency) / len(rep.Passes)
	var byPass [][]float64
	for i := 0; i < len(rep.Latency); i += perPass {
		byPass = append(byPass, rep.Latency[i:i+perPass])
	}
	oc.info["ack_p99_ms"] = metric{Value: passTail(byPass), Unit: "ms"}
	oc.metrics["detect_s"] = quantile(rep.Passes, 0.5)
	oc.metrics["setup_s"] = quantile(setups, 0.5)
	oc.metrics["mem_peak_mb"] = float64(rep.VmHWMKiB) / 1024
	oc.info["ack_samples"] = len(rep.Latency)
	oc.info["pinned_inputs"] = pinnedInputs
	oc.info["pass_s"] = rep.Passes
	return oc, nil
}

// stageTimes accumulates the offline stages' wall time in seconds.
type stageTimes struct {
	gen, exact, sampling, filter, partition, selection, hierarchy float64
}

func (s stageTimes) sum() float64 {
	return s.gen + s.exact + s.sampling + s.filter + s.partition + s.selection + s.hierarchy
}

// since returns the seconds elapsed since t and resets t to now.
func since(t *time.Time) float64 {
	now := time.Now()
	d := now.Sub(*t).Seconds()
	*t = now
	return d
}

// stagedRun runs one training run through the stages core.DetectTrace
// composes — recording, the exact reuse analyzer, sampling, wavelet
// filtering, partitioning, marker selection and hierarchy — through
// their public calls, timing each.
func stagedRun(r offlineRun) (stageTimes, *core.Detection, int, error) {
	var st stageTimes
	cfg := r.cfg
	runtime.GC() // start from a collected heap, as composedRun does
	t := time.Now()
	rec := trace.NewRecorder(1<<20, 1<<16)
	r.spec.Make(r.params).Run(rec)
	st.gen = since(&t)
	an := reuse.NewAnalyzer()
	dists := make([]int64, len(rec.T.Accesses))
	for i, a := range rec.T.Accesses {
		dists[i] = an.Access(a)
	}
	st.exact = since(&t)
	scfg := samplingConfig(&rec.T, &cfg)
	res := sampling.RunTraceDists(rec.T.Accesses, dists, scfg)
	st.sampling = since(&t)
	var kept []int
	if cfg.KeepIrregular {
		kept = core.FilterSamplesIrregular(res, cfg.Wavelet, cfg.MinSubTrace)
	} else {
		kept = core.FilterSamples(res, cfg.Wavelet, cfg.MinSubTrace)
	}
	st.filter = since(&t)
	ids := make([]int, len(kept))
	for i, si := range kept {
		ids[i] = res.Samples[si].Data
	}
	cuts := phasedet.Partition(ids, phasedet.Config{Alpha: cfg.Alpha, MaxSpan: cfg.MaxSpan})
	boundaries := make([]int64, len(cuts))
	for i, c := range cuts {
		boundaries[i] = res.Samples[kept[c]].Time
	}
	st.partition = since(&t)
	sel, err := marker.SelectBest(&rec.T, boundaries, cfg.Marker)
	if err != nil {
		return st, nil, 0, fmt.Errorf("%s: %w", r.spec.Name, err)
	}
	st.selection = since(&t)
	seq := sel.PhaseSequence()
	hier := regexphase.BuildHierarchy(seq)
	st.hierarchy = since(&t)
	d := &core.Detection{Samples: res, Filtered: kept, Boundaries: boundaries, Selection: sel,
		PhaseSeq: seq, Hierarchy: hier, Accesses: int64(len(rec.T.Accesses)), Instructions: rec.T.Instructions}
	return st, d, len(rec.T.Blocks), nil
}

// composedRun times the reference the stages must account for:
// recording plus sequential core.DetectTrace.
func composedRun(r offlineRun) (float64, error) {
	runtime.GC()
	t := time.Now()
	rec := trace.NewRecorder(1<<20, 1<<16)
	r.spec.Make(r.params).Run(rec)
	cfg := r.cfg
	cfg.Workers = 1
	if _, err := core.DetectTrace(&rec.T, cfg); err != nil {
		return 0, fmt.Errorf("%s: %w", r.spec.Name, err)
	}
	return time.Since(t).Seconds(), nil
}

// traceOffline times every training run's stages and then the
// composed path, reps times over all runs. A stage time is the run's
// fastest staged reading (the work is fixed, so the minimum is the
// least disturbed one). It asserts the staged result equals
// core.Detect's and that the stage times account for the composed
// path's time: the untraced reference, recording plus sequential
// core.DetectTrace, timed apart from them. The accounting compares each
// rep's staged total with the same rep's composed total, run by run
// back to back so both sides see the same host, and takes the median
// over reps. The same two totals give the tracing overhead; the
// composed path differs from the staged one also in fusing the analyzer
// into sampling.
func traceOffline(o options) (*outcome, error) {
	oc := &outcome{metrics: zeroMetrics(), info: map[string]any{}}
	reps := 3
	if o.tiny {
		reps = 7 // tiny runs take milliseconds: more readings
	}
	runs := offlineRuns(o.seed, 0, o.tiny)
	best := make([]stageTimes, len(runs))
	dets := make([]*core.Detection, len(runs))
	blocks := make([]int, len(runs))
	var staged, composed, ratios []float64
	for i := 0; i < reps; i++ {
		var ts, tc float64
		for j, r := range runs {
			st, d, nb, err := stagedRun(r)
			if err != nil {
				return nil, err
			}
			c, err := composedRun(r)
			if err != nil {
				return nil, err
			}
			if i == 0 || st.sum() < best[j].sum() {
				best[j] = st
			}
			dets[j], blocks[j] = d, nb
			ts += st.sum()
			tc += c
		}
		staged, composed, ratios = append(staged, ts), append(composed, tc), append(ratios, ts/tc)
	}

	var st stageTimes
	var accesses, events, samples, filtered, bounds int64
	for j, r := range runs {
		b := best[j]
		st = stageTimes{st.gen + b.gen, st.exact + b.exact, st.sampling + b.sampling, st.filter + b.filter,
			st.partition + b.partition, st.selection + b.selection, st.hierarchy + b.hierarchy}
		d := dets[j]
		want, err := core.Detect(r.spec.Make(r.params), r.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.spec.Name, err)
		}
		d.PhaseConsistent = want.PhaseConsistent // derived from Selection, which is compared
		got, err1 := fingerprint(d)
		exp, err2 := fingerprint(want)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%s: %v %v", r.spec.Name, err1, err2)
		}
		if got != exp {
			oc.fail("%s: staged detection differs from core.Detect", r.spec.Name)
		}
		accesses += d.Accesses
		events += d.Accesses + int64(blocks[j])
		samples += int64(len(d.Samples.Samples))
		filtered += int64(len(d.Filtered))
		bounds += int64(len(d.Boundaries))
	}
	m := oc.metrics
	m["workload.gen_s"] = st.gen
	m["reuse.exact_s"] = st.exact
	m["reuse.exact_ns_per_access"] = st.exact * 1e9 / float64(accesses)
	m["sampling.s"] = st.sampling
	m["sampling.samples"] = float64(samples)
	m["core.filter_s"] = st.filter
	m["core.filtered"] = float64(filtered)
	m["phasedet.partition_s"] = st.partition
	m["phasedet.boundaries"] = float64(bounds)
	m["marker.select_s"] = st.selection
	m["regexphase.hierarchy_s"] = st.hierarchy
	ms, mc := quantile(staged, 0.5), quantile(composed, 0.5)
	m["bench.traced_events_per_s"] = float64(events) / ms
	m["bench.untraced_events_per_s"] = float64(events) / mc
	m["bench.trace_overhead_ratio"] = 1 - mc/ms
	accountOffline(ratios, oc)
	oc.attempted = int64(len(runs))
	oc.info["staged_s"] = staged
	oc.info["composed_s"] = composed
	oc.info["pinned_inputs"] = pinnedInputs
	return oc, nil
}

// accountOffline checks that the offline stage times sum to within
// accountTolerance of the composed path's time, measured apart from
// them. ratios holds one staged/composed ratio per rep; the median is
// reported and checked.
func accountOffline(ratios []float64, oc *outcome) {
	r := quantile(ratios, 0.5)
	oc.metrics["bench.accounted_ratio"] = r
	if r < 1-accountTolerance || r > 1+accountTolerance {
		oc.fail("offline stages sum to %.3f of recording plus sequential core.DetectTrace, outside ±%.2f", r, accountTolerance)
	}
}

// samplingConfig fills the trace-dependent defaults core.DetectTrace
// derives before sampling (the blank-region threshold, the frequency
// slack, the feedback pacing) into cfg and returns the sampling
// configuration. The staged result must equal core.Detect's, which
// checks this derivation.
func samplingConfig(t *trace.Recorded, cfg *core.Config) sampling.Config {
	if cfg.Marker.BlankThreshold == 0 {
		cfg.Marker.BlankThreshold = min(max(int64(float64(t.Instructions)*0.003), 500), 10000)
	}
	if cfg.Marker.FreqSlack == 0 {
		cfg.Marker.FreqSlack = 1.3
	}
	scfg := cfg.Sampling
	if scfg.ExpectedLength == 0 {
		scfg.ExpectedLength = int64(len(t.Accesses))
	}
	if scfg.CheckEvery == 0 {
		scfg.CheckEvery = max(scfg.ExpectedLength/50, 2000)
	}
	return scfg
}
