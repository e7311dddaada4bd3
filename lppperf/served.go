package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its processes up; setup_s is
// the median.
const setupReps = 9

// proc is one launched lppserve process.
type proc struct {
	cmd   *exec.Cmd
	url   string
	probe string // readiness path: /readyz, or /healthz for a standby
}

// launch is one process of a topology: its address, its readiness
// path, and its full argument list.
type launch struct {
	addr  string
	probe string // /readyz, or /healthz for a standby
	args  []string
}

// topology is a set of launched lppserve processes.
type topology struct {
	bin   string
	dir   string
	procs []*proc
}

// start launches stages in order: every process of a stage starts at
// once, and the next stage starts when all of them answer ready. It
// returns the time from the first launch until the last ready answer.
func (t *topology) start(stages [][]launch) (time.Duration, error) {
	t0 := time.Now()
	for _, st := range stages {
		var stage []*proc
		for _, l := range st {
			p, err := t.launch(l.args, "http://"+l.addr, l.probe, len(t.procs))
			if err != nil {
				t.stop()
				return 0, err
			}
			stage = append(stage, p)
		}
		for _, p := range stage {
			if err := waitReady(p.url + p.probe); err != nil {
				t.stop()
				return 0, err
			}
		}
	}
	return time.Since(t0), nil
}

func (t *topology) launch(args []string, url, probe string, i int) (*proc, error) {
	logf, err := os.Create(filepath.Join(t.dir, fmt.Sprintf("lppserve-%d.log", i)))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(t.bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Dir = t.dir
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("launch lppserve: %w", err)
	}
	p := &proc{cmd: cmd, url: url, probe: probe}
	t.procs = append(t.procs, p)
	return p, nil
}

// peakMB sums VmHWM over the topology's live processes.
func (t *topology) peakMB() (float64, error) {
	var kb int64
	for _, p := range t.procs {
		v, err := vmHWM(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

// stop terminates every process (SIGTERM, then SIGKILL after a grace
// period) and waits for each to exit.
func (t *topology) stop() {
	for _, p := range t.procs {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range t.procs {
		done := make(chan struct{})
		go func() { p.cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			p.cmd.Process.Kill()
			<-done
		}
	}
	t.procs = nil
}

// freeAddr reserves a loopback port by binding it and letting it go.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitReady polls url every 100µs until it answers 200. A set-up takes
// a few milliseconds, so a coarser poll would round setup_s to the
// poll interval. The pause is a nanosleep system call: time.Sleep of
// 100µs can last a whole millisecond, the runtime timer's granularity
// on some hosts.
func waitReady(url string) error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	pause := syscall.NsecToTimespec(100_000)
	for end := time.Now().Add(30 * time.Second); time.Now().Before(end); syscall.Nanosleep(&pause, nil) {
		resp, err := client.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
	}
	return fmt.Errorf("%s not ready after 30s", url)
}

// vmHWM reads a process's peak resident set size in KiB.
func vmHWM(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// runServed measures a served workload end to end: setupReps set-ups
// of the topology (keeping the last), closed-loop passes of plan
// through the last process started, peak memory, then the output
// checks. stages lays out the topology on nproc reserved loopback
// addresses, with its data directories under dir.
func runServed(o options, pl plan, nproc int, stages func(dir string, addr []string) [][]launch) (*outcome, error) {
	if o.lppserve == "" {
		return nil, fmt.Errorf("--lppserve is required")
	}
	oc := &outcome{metrics: map[string]float64{}, info: map[string]any{}}
	var setups []float64
	var topo *topology
	for r := 0; r < setupReps; r++ {
		dir, err := os.MkdirTemp(o.scratch, "topo-")
		if err != nil {
			return nil, err
		}
		addr := make([]string, nproc)
		for i := range addr {
			if addr[i], err = freeAddr(); err != nil {
				return nil, err
			}
		}
		t := &topology{bin: o.lppserve, dir: dir}
		d, err := t.start(stages(dir, addr))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if r < setupReps-1 {
			t.stop()
			continue
		}
		topo = t
	}
	defer topo.stop()
	lr := runLoad(topo.procs[len(topo.procs)-1].url, pl, deadline(o), "s")
	mem, err := topo.peakMB()
	if err != nil {
		return nil, err
	}
	topo.stop()
	servedMetrics(lr, oc)
	oc.metrics["setup_s"] = quantile(setups, 0.5)
	oc.metrics["mem_peak_mb"] = mem
	checkServed(lr, oc)
	return oc, nil
}

func runStream(o options) (*outcome, error) {
	pl, err := streamPlan(o.seed, o.tiny)
	if err != nil {
		return nil, err
	}
	return runServed(o, pl, 1, func(_ string, addr []string) [][]launch {
		return [][]launch{{{addr[0], "/readyz", []string{"-addr", addr[0], "-drain", "5s"}}}}
	})
}

// clusterConsumers is each durable session's run-time consumer chain.
const clusterConsumers = "predictor,cacheresize"

// runCluster launches two standbys, then two durable nodes each
// streaming checkpoints to its own standby, then the router in front of
// the nodes.
func runCluster(o options) (*outcome, error) {
	pl, err := clusterPlan(o.seed, o.tiny)
	if err != nil {
		return nil, err
	}
	return runServed(o, pl, 5, func(dir string, addr []string) [][]launch {
		// A standby's /readyz answers 503 until promoted by design;
		// liveness is its ready state.
		standby := func(i int) launch {
			return launch{addr[i], "/healthz", []string{"-addr", addr[i], "-standby",
				"-data", filepath.Join(dir, fmt.Sprintf("standby%d", i)), "-drain", "5s"}}
		}
		node := func(i, peer int) launch {
			return launch{addr[i], "/readyz", []string{"-addr", addr[i], "-advertise", "http://" + addr[i],
				"-data", filepath.Join(dir, fmt.Sprintf("node%d", i)), "-consumers", clusterConsumers,
				"-checkpoint-every", strconv.Itoa(checkpointEvery), "-peer", "http://" + addr[peer], "-drain", "5s"}}
		}
		router := launch{addr[4], "/readyz", []string{"-router", "-addr", addr[4],
			"-nodes", "http://" + addr[2] + ",http://" + addr[3], "-drain", "5s"}}
		return [][]launch{{standby(0), standby(1)}, {node(2, 0), node(3, 1)}, {router}}
	})
}
