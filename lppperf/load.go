package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lpp/internal/httpx"
	"lpp/internal/trace"
)

// served is one session as the server answered it.
type served struct {
	in     *session
	id     string
	pass   int // the load pass that streamed it
	acks   [][]byte
	lat    []time.Duration // POST-to-ack time of each acked chunk
	close  []byte
	closed bool
}

// loadResult aggregates the passes one load run made.
type loadResult struct {
	sessions          []*served
	passes            []time.Duration
	elapsed           time.Duration
	events            int64 // acked events
	attempted, failed int64
	retries           httpx.RetryCounts
}

// plan is a served workload's input: for each pass, each client's
// sessions in order. Pass p streams plan[p%len(plan)].
type plan [][][]*session

// runLoad drives closed-loop passes of pl against base, one client
// goroutine per client of the pass, until the first pass that ends
// after until (at least one pass). A pass is over when every client has
// streamed and closed all of its sessions. Each client waits for a
// chunk's ack before it sends the next, as the X-Lpp-Seq protocol
// requires.
func runLoad(base string, pl plan, until time.Time, prefix string) *loadResult {
	nc := len(pl[0])
	client := &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: nc, MaxIdleConnsPerHost: nc},
	}
	defer client.CloseIdleConnections()
	res := &loadResult{}
	start := time.Now()
	for pass := 0; ; pass++ {
		t0 := time.Now()
		clients := pl[pass%len(pl)]
		parts := make([]*loadResult, len(clients))
		var wg sync.WaitGroup
		for c := range clients {
			parts[c] = &loadResult{}
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i, in := range clients[c] {
					id := fmt.Sprintf("%s-p%d-c%d-s%d", prefix, pass, c, i)
					streamSession(client, base, id, pass, in, parts[c])
				}
			}(c)
		}
		wg.Wait()
		res.passes = append(res.passes, time.Since(t0))
		for _, p := range parts {
			res.sessions = append(res.sessions, p.sessions...)
			res.events += p.events
			res.attempted += p.attempted
			res.failed += p.failed
			res.retries.Status429 += p.retries.Status429
			res.retries.Status5xx += p.retries.Status5xx
			res.retries.Conn += p.retries.Conn
		}
		if time.Now().After(until) {
			break
		}
	}
	res.elapsed = time.Since(start)
	return res
}

// streamSession sends one session's chunks under the shared retry
// policy, then closes it with DELETE. A chunk that is not acked with
// 200 counts as failed and abandons the rest of the session.
func streamSession(client *http.Client, base, id string, pass int, in *session, out *loadResult) {
	s := &served{in: in, id: id, pass: pass}
	out.sessions = append(out.sessions, s)
	url := base + "/v1/sessions/" + id + "/events"
	for k, chunk := range in.chunks {
		out.attempted++
		t0 := time.Now()
		resp, err := httpx.PostChunk(client, url, uint64(k+1), chunk, trace.ChunkV2ContentType, &out.retries)
		if err != nil {
			out.failed++
			break
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		lat := time.Since(t0)
		if err != nil || resp.StatusCode != http.StatusOK {
			out.failed++
			break
		}
		s.acks = append(s.acks, body)
		s.lat = append(s.lat, lat)
		out.events += int64(chunkEvents(in, k))
	}
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+id, nil)
	if err != nil {
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode == http.StatusOK {
		s.close, s.closed = body, true
	}
}

// chunkEvents is the number of events in chunk k of in.
func chunkEvents(in *session, k int) int {
	return min(in.size, in.limit-k*in.size)
}

// checkServed compares every ack and close body with the oracle's and
// records each mismatch. The oracle runs once per distinct fully sent
// input, on as many goroutines as there are CPUs.
func checkServed(lr *loadResult, oc *outcome) {
	full := make(map[*session]expected)
	var inputs []*session
	for _, s := range lr.sessions {
		if _, ok := full[s.in]; !ok && len(s.acks) == len(s.in.chunks) {
			full[s.in] = expected{}
			inputs = append(inputs, s.in)
		}
	}
	wants := make([]expected, len(inputs))
	parallelFor(len(inputs), func(i int) { wants[i] = oracle(inputs[i], len(inputs[i].chunks)) })
	for i, in := range inputs {
		full[in] = wants[i]
	}
	for _, s := range lr.sessions {
		want, ok := full[s.in]
		if !ok || len(s.acks) < len(s.in.chunks) {
			want = oracle(s.in, len(s.acks))
		}
		compareSession(s, want, oc)
	}
}

func compareSession(s *served, want expected, oc *outcome) {
	for k, got := range s.acks {
		if !bytes.Equal(got, want.acks[k]) {
			oc.fail("%s chunk %d: ack %q, want %q", s.id, k+1, clip(got), clip(want.acks[k]))
			return
		}
	}
	if !s.closed {
		oc.fail("%s: close did not answer 200", s.id)
		return
	}
	if !bytes.Equal(s.close, want.close) {
		oc.fail("%s: close body %q, want %q", s.id, clip(s.close), clip(want.close))
	}
}

func clip(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// servedMetrics fills the request-level end-to-end metrics of a load
// run and reports the latency sample count. ack_p50_ms pools every ack
// of the run; ack_p99_ms, in provenance, is the median of the passes'
// own 99th percentiles.
func servedMetrics(lr *loadResult, oc *outcome) {
	var lat []float64
	byPass := make([][]float64, len(lr.passes))
	for _, s := range lr.sessions {
		for _, d := range s.lat {
			lat = append(lat, ms(d))
			byPass[s.pass] = append(byPass[s.pass], ms(d))
		}
	}
	var passes []float64
	for _, d := range lr.passes {
		passes = append(passes, d.Seconds())
	}
	oc.metrics["events_per_s"] = float64(lr.events) / lr.elapsed.Seconds()
	oc.metrics["ack_p50_ms"] = quantile(lat, 0.50)
	oc.info["ack_p99_ms"] = metric{Value: passTail(byPass), Unit: "ms"}
	oc.metrics["detect_s"] = quantile(passes, 0.5)
	oc.attempted, oc.failed = lr.attempted, lr.failed
	oc.info["ack_samples"] = len(lat)
	oc.info["pass_s"] = passes
	oc.info["failed_ratio"] = float64(lr.failed) / float64(max(lr.attempted, 1))
	oc.info["retries"] = lr.retries
}

// passTail is the median over passes of each pass's 99th-percentile
// latency. A pass is one contiguous stretch of the run, so a disturbed
// stretch sets at most one pass's figure, which the median then
// discounts.
func passTail(byPass [][]float64) float64 {
	var p99s []float64
	for _, l := range byPass {
		if len(l) > 0 {
			p99s = append(p99s, quantile(l, 0.99))
		}
	}
	return quantile(p99s, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// chunkKey identifies one chunk of one session across the client, the
// router and the node: the session ID and the X-Lpp-Seq header. It is
// "" for any request that is not a chunk POST.
func chunkKey(r *http.Request) string {
	rest, ok := strings.CutPrefix(r.URL.Path, "/v1/sessions/")
	if !ok || r.Method != http.MethodPost {
		return ""
	}
	id, tail, _ := strings.Cut(rest, "/")
	if tail != "events" {
		return ""
	}
	return id + "/" + r.Header.Get("X-Lpp-Seq")
}

func keyOf(id string, k int) string { return id + "/" + strconv.Itoa(k+1) }
