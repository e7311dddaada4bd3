package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary double as the offline detection child,
// as the benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childFlag {
		if err := offlineChild(os.Args[2:]); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func tinyOptions(t *testing.T, name string, traced bool) options {
	return options{workload: name, seed: 3, seconds: 0.1, trace: traced, scratch: t.TempDir(), tiny: true}
}

// checkRun asserts a tiny run passed its output and accounting checks
// and reported exactly the catalog for its mode.
func checkRun(t *testing.T, o options, run func(options) (*outcome, error)) *result {
	t.Helper()
	oc, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(oc.problems) > 0 {
		t.Fatalf("checks failed: %s", strings.Join(oc.problems, "; "))
	}
	res, err := assemble(o, oc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
	}
	return res
}

// TestTracedSmoke runs each workload's traced run at tiny size: the
// replay-vs-server output check, the checkpoint count check and the
// accounting check all run, and checkRun fails on any of them.
func TestTracedSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := checkRun(t, tinyOptions(t, w.name, true), w.trc)
			acc := res.Metrics["bench.accounted_ratio"].Value
			if !(acc > 0) {
				t.Fatalf("accounted ratio %v", acc)
			}
			t.Logf("accounted ratio %.3f", acc)
		})
	}
}

// TestEndToEndSmoke runs each workload end to end at tiny size against
// a freshly built lppserve, checking every answer against the oracle.
func TestEndToEndSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds lppserve")
	}
	bin := filepath.Join(t.TempDir(), "lppserve")
	if out, err := exec.Command("go", "build", "-o", bin, "lpp/cmd/lppserve").CombinedOutput(); err != nil {
		t.Fatalf("build lppserve: %v\n%s", err, out)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := tinyOptions(t, w.name, false)
			o.lppserve = bin
			res := checkRun(t, o, w.e2e)
			for _, m := range endToEnd {
				if v := res.Metrics[m.name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m.name, v)
				}
			}
		})
	}
}

// TestOutputCheckCatchesMismatch corrupts one ack and the close body of
// a served session and expects the output check to fail the run.
func TestOutputCheckCatchesMismatch(t *testing.T) {
	pl, err := clusterPlan(3, true)
	if err != nil {
		t.Fatal(err)
	}
	in := pl[0][0][0]
	want := oracle(in, len(in.chunks))
	s := &served{in: in, id: "x", acks: append([][]byte(nil), want.acks...), close: want.close, closed: true}
	var ok outcome
	checkServed(&loadResult{sessions: []*served{s}}, &ok)
	if len(ok.problems) != 0 {
		t.Fatalf("faithful answers flagged: %v", ok.problems)
	}
	s.acks[len(s.acks)/2] = []byte(`{"kind":"boundary","time":1,"instructions":1,"phase":0}` + "\n")
	var bad outcome
	checkServed(&loadResult{sessions: []*served{s}}, &bad)
	if len(bad.problems) == 0 {
		t.Fatal("corrupted ack passed the output check")
	}
}

// TestServedAccountingCatchesMismatch feeds the served accounting check
// replays that claim more time than the node spent, and far less.
func TestServedAccountingCatchesMismatch(t *testing.T) {
	s := &served{id: "x", lat: []time.Duration{time.Millisecond}}
	tr := &inproc{node: newSpanLog(), router: newSpanLog()}
	tr.node.d[keyOf("x", 0)] = 800 * time.Microsecond
	for _, c := range []struct {
		replay time.Duration
		ok     bool
	}{
		{700 * time.Microsecond, true},
		{2 * time.Millisecond, false},   // more than the node spent
		{100 * time.Microsecond, false}, // a layer left out
	} {
		r := &replayer{perChunk: map[string]time.Duration{keyOf("x", 0): c.replay}}
		oc := outcome{metrics: map[string]float64{}, info: map[string]any{}}
		accountServed(&loadResult{sessions: []*served{s}}, tr, r, false, &oc)
		if ok := len(oc.problems) == 0; ok != c.ok {
			t.Errorf("replay %v of an 800µs node span: passed=%v, want %v (%v)", c.replay, ok, c.ok, oc.problems)
		}
	}
}

// TestOfflineAccountingCatchesMissingStage leaves one stage's time out
// of stage sums that match the composed time and expects the offline
// accounting check to fail.
func TestOfflineAccountingCatchesMissingStage(t *testing.T) {
	st := stageTimes{gen: 0.25, exact: 2.8, sampling: 0.5, filter: 0.02, partition: 0.6, selection: 0.01, hierarchy: 0.002}
	composed := []float64{st.sum() * 1.05, st.sum() * 0.97, st.sum() * 1.1}
	check := func(st stageTimes) []string {
		var ratios []float64
		for _, c := range composed {
			ratios = append(ratios, st.sum()/c)
		}
		oc := outcome{metrics: map[string]float64{}}
		accountOffline(ratios, &oc)
		return oc.problems
	}
	if p := check(st); len(p) != 0 {
		t.Fatalf("consistent stage times flagged: %v", p)
	}
	st.partition = 0
	if len(check(st)) == 0 {
		t.Fatal("stage sum without the partition time passed")
	}
}
