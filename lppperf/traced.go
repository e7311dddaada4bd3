package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"lpp/internal/cluster"
	"lpp/internal/durable"
	"lpp/internal/online"
	"lpp/internal/phase"
	"lpp/internal/replica"
	"lpp/internal/reuse"
	"lpp/internal/server"
	"lpp/internal/trace"
)

// spanLog records, per chunk, the time a wrapped http.Handler spent
// serving it (summed over retries).
type spanLog struct {
	mu sync.Mutex
	d  map[string]time.Duration
}

func newSpanLog() *spanLog { return &spanLog{d: make(map[string]time.Duration)} }

func (l *spanLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := chunkKey(r)
		t0 := time.Now()
		h.ServeHTTP(w, r)
		if key != "" {
			d := time.Since(t0)
			l.mu.Lock()
			l.d[key] += d
			l.mu.Unlock()
		}
	})
}

func (l *spanLog) get(key string) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.d[key]
}

// inproc is an in-process topology: the same server and cluster
// packages lppserve runs, behind real loopback listeners.
type inproc struct {
	entry   string
	https   []*http.Server
	serving sync.WaitGroup
	nodes   []*server.Server
	others  []*server.Server // standbys
	health  *cluster.Health
	// router and node hold the handler spans when traced; nil
	// otherwise.
	router, node *spanLog
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func (t *inproc) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h}
	t.https = append(t.https, srv)
	t.serving.Add(1)
	go func() {
		defer t.serving.Done()
		srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
}

func (t *inproc) wrapNode(h http.Handler) http.Handler {
	if t.node == nil {
		return h
	}
	return t.node.wrap(h)
}

// startInproc builds stream-ephemeral's single in-memory node, or
// cluster-durable's router, two durable nodes with consumer chains and
// their two standbys.
func startInproc(dir string, clustered, traced bool) (*inproc, error) {
	t := &inproc{}
	if traced {
		t.router, t.node = newSpanLog(), newSpanLog()
	}
	if !clustered {
		ln, url, err := listen()
		if err != nil {
			return nil, err
		}
		n, err := server.New(server.Config{})
		if err != nil {
			ln.Close()
			return nil, err
		}
		t.nodes = append(t.nodes, n)
		t.serve(ln, t.wrapNode(n.Handler()))
		t.entry = url
		return t, nil
	}
	var members []string
	for i := 0; i < 2; i++ {
		sln, surl, err := listen()
		if err != nil {
			t.close()
			return nil, err
		}
		sb, err := server.New(server.Config{DataDir: filepath.Join(dir, fmt.Sprintf("standby%d", i)), Standby: true})
		if err != nil {
			sln.Close()
			t.close()
			return nil, err
		}
		t.others = append(t.others, sb)
		t.serve(sln, sb.Handler())

		ln, url, err := listen()
		if err != nil {
			t.close()
			return nil, err
		}
		n, err := server.New(server.Config{
			DataDir:         filepath.Join(dir, fmt.Sprintf("node%d", i)),
			Consumers:       chainFactory,
			CheckpointEvery: checkpointEvery,
			Peer:            surl,
			Advertise:       url,
		})
		if err != nil {
			ln.Close()
			t.close()
			return nil, err
		}
		t.nodes = append(t.nodes, n)
		t.serve(ln, t.wrapNode(n.Handler()))
		members = append(members, url)
	}
	ring, err := cluster.New(members, 0)
	if err != nil {
		t.close()
		return nil, err
	}
	t.health = cluster.NewHealth(members, nil, 0)
	var h http.Handler = cluster.NewRouter(ring, t.health, nil)
	if traced {
		h = t.router.wrap(h)
	}
	ln, url, err := listen()
	if err != nil {
		t.close()
		return nil, err
	}
	t.serve(ln, h)
	t.entry = url
	return t, nil
}

func chainFactory() *phase.Chain {
	c, err := phase.ParseChain(clusterConsumers)
	if err != nil {
		panic(err) // a constant, valid spec
	}
	return c
}

// close stops the listeners, then the servers, and waits for every
// serving goroutine.
func (t *inproc) close() {
	for _, s := range t.https {
		s.Close()
	}
	t.serving.Wait()
	if t.health != nil {
		t.health.Close()
	}
	for _, n := range append(t.nodes, t.others...) {
		n.Close()
	}
}

// replayer re-runs a served chunk stream on one goroutine through the
// public calls in the engine's order, timing each layer.
type replayer struct {
	durable bool
	store   *durable.Store
	dir     string
	rep     *replica.Replicator

	perChunk map[string]time.Duration // replayed layer time per chunk

	decode, appendT, detect, chain, shadow time.Duration
	decodeAllocs, detectAllocs             uint64
	countedChunks, countedEvents           int64 // chunks and events whose allocations were counted
	chunks, events, accesses, wire, wal    int64
	snapMs, ckptMs, snapBytes              []float64
	livePeak, bucketsPeak                  int
	evictions, phaseEvents                 int64
	samples, filtered, shed, boundaries    int64
}

// threadCPU returns the CPU time the calling OS thread has used.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// allocEvery is the sampling interval, in chunks, of the replay's
// allocation counts.
const allocEvery = 8

// mallocs returns the process's cumulative allocation count when
// counted is set, 0 otherwise.
func mallocs(counted bool) uint64 {
	if !counted {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// frameCheckpoint packs detector and chain snapshots into one image
// the way a durable node with a consumer chain does (LPPBUS1 framing,
// as server.frameSnapshot writes it; the server does not export it).
func frameCheckpoint(det, chain []byte) []byte {
	buf := append([]byte(nil), "LPPBUS1"...)
	buf = binary.AppendUvarint(buf, uint64(len(det)))
	buf = append(buf, det...)
	buf = binary.AppendUvarint(buf, uint64(len(chain)))
	return append(buf, chain...)
}

// walSize is the size of a session's write-ahead log, 0 if absent.
func (r *replayer) walSize(id string) int64 {
	fi, err := os.Stat(filepath.Join(r.dir, id, "wal.log"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// session replays one served session and checks that every ack and
// the close body equal what the server answered. Layer times are the
// replay thread's CPU time, so neither another process nor a busy host
// inflates them; the caller locks the goroutine to its thread.
func (r *replayer) session(s *served, oc *outcome) error {
	var pending []phase.Event
	var chain *phase.Chain
	if r.durable {
		chain = chainFactory()
	}
	var chainT time.Duration
	det := online.NewDetector(online.Config{OnEvent: func(ev phase.Event) {
		pending = append(pending, ev)
		if chain != nil {
			t := threadCPU()
			chain.Consume(ev)
			chainT += threadCPU() - t
			r.phaseEvents++
		}
	}})
	var log *durable.Log
	if r.durable {
		log = r.store.Session(s.id)
	}
	maxLive := online.DefaultConfig().MaxLive
	shadow := reuse.NewApproxAnalyzer(online.DefaultConfig().Epsilon)
	var cold int64
	var cols trace.Columns
	var rows []trace.Event
	sinceCkpt := 0
	for k := range s.acks {
		chunk := s.in.chunks[k]
		seq := uint64(k + 1)
		var layer time.Duration

		// Counting allocations reads MemStats, which flushes the
		// allocation caches and slows the next call, so only every
		// allocEvery-th chunk is counted.
		counted := k%allocEvery == allocEvery/2
		a0 := mallocs(counted)
		t := threadCPU()
		if err := trace.DecodeChunkV2(chunk, &cols, 0); err != nil {
			return fmt.Errorf("%s chunk %d: %w", s.id, seq, err)
		}
		if r.durable {
			rows = cols.AppendEvents(rows[:0])
		}
		d := threadCPU() - t
		r.decodeAllocs += mallocs(counted) - a0
		r.decode += d
		layer += d

		if r.durable {
			t = threadCPU()
			if err := log.Append(durable.Entry{Seq: seq, Events: rows}); err != nil {
				return err
			}
			d = threadCPU() - t
			r.appendT += d
			layer += d
		}

		a0 = mallocs(counted)
		t = threadCPU()
		det.SetPressure(0)
		if r.durable {
			det.AccessBatch(rows)
		} else {
			det.AccessColumns(&cols)
		}
		d = threadCPU() - t
		r.detectAllocs += mallocs(counted) - a0
		if counted {
			r.countedChunks++
			r.countedEvents += int64(cols.N)
		}
		r.detect += d
		layer += d
		ack := encodePhaseEvents(pending)
		pending = pending[:0]
		if !bytes.Equal(ack, s.acks[k]) {
			oc.fail("replay of %s chunk %d: %q, server acked %q", s.id, seq, clip(ack), clip(s.acks[k]))
		}

		sinceCkpt++
		if r.durable && sinceCkpt >= checkpointEvery {
			r.wal += r.walSize(s.id)
			t = threadCPU()
			snap := det.Snapshot()
			d = threadCPU() - t
			r.snapMs = append(r.snapMs, ms(d))
			r.snapBytes = append(r.snapBytes, float64(len(snap)))
			layer += d
			t = threadCPU()
			img := frameCheckpoint(snap, chain.Snapshot())
			if err := log.Checkpoint(seq, img, ack); err != nil {
				return err
			}
			_ = durable.EncodeCheckpoint(seq, img, ack) // the replication wire image
			r.rep.EnqueueCheckpoint(replica.Checkpoint{Session: s.id, Seq: seq, Snapshot: img, Response: ack})
			d = threadCPU() - t
			r.ckptMs = append(r.ckptMs, ms(d))
			layer += d
			sinceCkpt = 0
			// Let the sender finish so its allocations stay out of
			// the next chunk's counts.
			r.rep.Flush(5 * time.Second)
		}
		r.perChunk[keyOf(s.id, k)] = layer

		st := det.Stats()
		r.livePeak = max(r.livePeak, st.TrackedAddrs)
		r.bucketsPeak = max(r.bucketsPeak, st.AnalyzerBuckets)
		r.chunks++
		r.events += int64(cols.N)
		r.accesses += int64(len(cols.Addrs))
		r.wire += int64(len(chunk))

		t = threadCPU()
		for _, a := range cols.Addrs {
			if shadow.AccessEvict(a, maxLive) == reuse.Infinite {
				cold++
			}
		}
		r.shadow += threadCPU() - t
	}
	t := threadCPU()
	det.Flush()
	r.detect += threadCPU() - t
	if body := encodePhaseEvents(pending); !s.closed || !bytes.Equal(body, s.close) {
		oc.fail("replay of %s close: %q, server answered %q (closed=%v)", s.id, clip(body), clip(s.close), s.closed)
	}
	if r.durable {
		r.wal += r.walSize(s.id)
		if err := log.Remove(); err != nil {
			return err
		}
		r.rep.EnqueueRemove(s.id)
	}
	r.chain += chainT
	// Every cold access inserts one live element and only eviction
	// removes one.
	r.evictions += cold - int64(shadow.Distinct())
	st := det.Stats()
	r.samples += st.Samples
	r.filtered += st.Filtered
	r.shed += st.Shed
	r.boundaries += st.Boundaries
	return nil
}

// traceServed runs a served workload in-process twice — untraced, then
// with handler and client spans — replays the traced chunk stream layer
// by layer, checks the replay against the server's answers, and checks
// that the layer self times account for the client's POST time.
func traceServed(o options, pl plan, clustered bool) (*outcome, error) {
	oc := &outcome{metrics: zeroMetrics(), info: map[string]any{}}

	plain, err := startInproc(filepath.Join(o.scratch, "untraced"), clustered, false)
	if err != nil {
		return nil, err
	}
	lu := runLoad(plain.entry, pl, traceDeadline(o), "u")
	plain.close()
	// The untraced phase's answers go to the oracle; the traced
	// phase's are checked by the replay below.
	checkServed(lu, oc)

	tr, err := startInproc(filepath.Join(o.scratch, "traced"), clustered, true)
	if err != nil {
		return nil, err
	}
	lt := runLoad(tr.entry, pl, traceDeadline(o), "t")
	nodeCkpts, err := checkpointsTotal(tr.nodes)
	if err != nil {
		tr.close()
		return nil, err
	}
	var repStats []replica.Stats
	for _, n := range tr.nodes {
		if rep := n.Replicator(); rep != nil {
			repStats = append(repStats, rep.Stats())
		}
	}
	tr.close()
	oc.attempted, oc.failed = lt.attempted+lu.attempted, lt.failed+lu.failed

	r := &replayer{durable: clustered, perChunk: make(map[string]time.Duration)}
	if clustered {
		r.dir = filepath.Join(o.scratch, "replay")
		if r.store, err = durable.Open(r.dir, nil, false); err != nil {
			return nil, err
		}
		peer, err := startStandby(filepath.Join(o.scratch, "replay-standby"))
		if err != nil {
			return nil, err
		}
		defer peer.close()
		r.rep, err = replica.New(replica.Config{Peer: peer.entry, Source: func() []replica.Checkpoint { return nil }})
		if err != nil {
			return nil, err
		}
		defer r.rep.Stop()
	}
	runtime.LockOSThread()
	for _, s := range lt.sessions {
		if err := r.session(s, oc); err != nil {
			runtime.UnlockOSThread()
			return nil, err
		}
	}
	runtime.UnlockOSThread()
	if clustered {
		r.rep.Flush(5 * time.Second)
	}
	if n := int64(len(r.ckptMs)); n != nodeCkpts {
		oc.fail("replay wrote %d checkpoints, the traced nodes %d", n, nodeCkpts)
	}
	layerMetrics(r, oc)
	replicaMetrics(repStats, oc)
	accountServed(lt, tr, r, clustered, oc)

	untraced := float64(lu.events) / lu.elapsed.Seconds()
	traced := float64(lt.events) / lt.elapsed.Seconds()
	m := oc.metrics
	m["bench.untraced_events_per_s"] = untraced
	m["bench.traced_events_per_s"] = traced
	m["bench.trace_overhead_ratio"] = 1 - traced/untraced
	m["server.retries"] = float64(lt.retries.Status429 + lt.retries.Status5xx + lt.retries.Conn)
	return oc, nil
}

// traceDeadline bounds each of the traced run's two load phases to a
// quarter of the run length (at least one pass), leaving time for the
// single-goroutine replay of everything the traced phase sent.
func traceDeadline(o options) time.Time {
	return time.Now().Add(time.Duration(o.seconds / 4 * float64(time.Second)))
}

// startStandby serves one in-process standby as the replay's
// replication peer.
func startStandby(dir string) (*inproc, error) {
	t := &inproc{}
	ln, url, err := listen()
	if err != nil {
		return nil, err
	}
	sb, err := server.New(server.Config{DataDir: dir, Standby: true})
	if err != nil {
		ln.Close()
		return nil, err
	}
	t.others = append(t.others, sb)
	t.serve(ln, sb.Handler())
	t.entry = url
	return t, nil
}

// checkpointsTotal sums the nodes' lpp_checkpoints_total counters, read
// from their /metrics pages.
func checkpointsTotal(nodes []*server.Server) (int64, error) {
	var total int64
	for _, n := range nodes {
		rec := httptest.NewRecorder()
		n.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		found := false
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "lpp_checkpoints_total "); ok {
				c, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return 0, fmt.Errorf("lpp_checkpoints_total: %w", err)
				}
				total += c
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("no lpp_checkpoints_total in /metrics")
		}
	}
	return total, nil
}

func ns(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func layerMetrics(r *replayer, oc *outcome) {
	m := oc.metrics
	m["reuse.approx_ns_per_access"] = ns(r.shadow, r.accesses)
	m["reuse.share_of_detect"] = ratio(float64(r.shadow), float64(r.detect))
	m["reuse.live_peak"] = float64(r.livePeak)
	m["reuse.buckets_peak"] = float64(r.bucketsPeak)
	m["reuse.evictions"] = float64(r.evictions)
	m["online.detect_ns_per_event"] = ns(r.detect-r.shadow-r.chain, r.events)
	m["online.filtered_ratio"] = ratio(float64(r.filtered), float64(r.samples))
	m["online.shed_ratio"] = ratio(float64(r.shed), float64(r.accesses))
	m["online.boundaries"] = float64(r.boundaries)
	m["online.allocs_per_event"] = ratio(float64(r.detectAllocs), float64(r.countedEvents))
	m["online.snapshot_ms_p50"] = quantile(r.snapMs, 0.5)
	m["online.snapshot_bytes"] = quantile(r.snapBytes, 0.5)
	m["trace.decode_ns_per_event"] = ns(r.decode, r.events)
	m["trace.wire_bytes_per_event"] = ratio(float64(r.wire), float64(r.events))
	m["trace.allocs_per_chunk"] = ratio(float64(r.decodeAllocs), float64(r.countedChunks))
	if r.durable {
		m["durable.append_us_per_chunk"] = ns(r.appendT, r.chunks) / 1e3
		m["durable.wal_bytes_per_event"] = ratio(float64(r.wal), float64(r.events))
		m["durable.checkpoint_ms_p50"] = quantile(r.ckptMs, 0.5)
		m["durable.checkpoints"] = float64(len(r.ckptMs))
		m["phase.consume_ns_per_event"] = ns(r.chain, r.phaseEvents)
		m["phase.events"] = float64(r.phaseEvents)
	}
	oc.info["replay_chunks"] = r.chunks
	oc.info["replay_events"] = r.events
}

// replicaMetrics reports the live nodes' replication pipelines. Items
// handed to a queue are either sent, dropped, coalesced into a later
// item for the same session, or still queued.
func replicaMetrics(stats []replica.Stats, oc *outcome) {
	var enq, dropped int64
	var p50, p99 time.Duration
	for _, s := range stats {
		enq += s.Sent + s.Dropped + s.Coalesced + int64(s.Queue)
		dropped += s.Dropped
		p50 = max(p50, s.LagP50)
		p99 = max(p99, s.LagP99)
	}
	m := oc.metrics
	m["replica.enqueued"] = float64(enq)
	m["replica.dropped"] = float64(dropped)
	m["replica.lag_ms_p50"] = ms(p50)
	m["replica.lag_ms_p99"] = ms(p99)
}

// accountServed splits the acked chunks' client.post time into self
// times — client transport (post minus the outermost handler span),
// router (router span minus node span), node handler (node span minus
// the replayed layers) — plus the replayed layers. The reported self
// times are medians over chunks. These self times are residuals, so
// with the replayed layers they sum to client.post by construction;
// the check therefore sits where the two sides are measured apart: the
// replayed layers, timed on one goroutine after the load, must account
// for between coverFloor and 1+accountTolerance of the summed node
// handler spans. The upper side catches a replay that claims more time
// than the node spent; the lower side catches one that misses a layer.
func accountServed(lt *loadResult, tr *inproc, r *replayer, clustered bool, oc *outcome) {
	var post, client, route, node, replayed float64
	var handles, routes []float64
	for _, s := range lt.sessions {
		for k, p := range s.lat {
			key := keyOf(s.id, k)
			n := float64(tr.node.get(key))
			outer := n
			if clustered {
				outer = float64(tr.router.get(key))
				route += outer - n
				routes = append(routes, (outer-n)/1e3)
			}
			replay := float64(r.perChunk[key])
			handles = append(handles, (n-replay)/1e3)
			client += float64(p) - outer
			node += n
			replayed += replay
			post += float64(p)
		}
	}
	m := oc.metrics
	m["server.handle_self_us_p50"] = quantile(handles, 0.5)
	if clustered {
		m["cluster.route_self_us_p50"] = quantile(routes, 0.5)
	}
	acc := ratio(replayed, node)
	m["bench.accounted_ratio"] = acc
	oc.info["account_ms"] = map[string]float64{"client.post": post / 1e6, "client_self": client / 1e6,
		"route_self": route / 1e6, "handle_self": (node - replayed) / 1e6, "replayed": replayed / 1e6}
	if acc < coverFloor || acc > 1+accountTolerance {
		oc.fail("replayed layers account for %.3f of the node handler time, outside [%.2f, %.2f]", acc, coverFloor, 1+accountTolerance)
	}
}

func traceStream(o options) (*outcome, error) {
	pl, err := streamPlan(o.seed, o.tiny)
	if err != nil {
		return nil, err
	}
	return traceServed(o, pl, false)
}

func traceCluster(o options) (*outcome, error) {
	pl, err := clusterPlan(o.seed, o.tiny)
	if err != nil {
		return nil, err
	}
	return traceServed(o, pl, true)
}
