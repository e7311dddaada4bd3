package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"lpp/internal/online"
	"lpp/internal/phase"
	"lpp/internal/trace"
	"lpp/internal/workload"
)

// Sizes of the served workloads' inputs.
const (
	streamChunk   = 4096  // events per stream-ephemeral chunk
	clusterChunk  = 256   // events per cluster-durable chunk
	clusterEvents = 65536 // events per cluster-durable session (256 chunks)
	clusterPool   = 16    // cluster-durable sessions per pass
	clusterPools  = 12    // distinct cluster-durable passes; later passes repeat them
	tinyChunks    = 16    // chunks per stream-ephemeral session in smoke tests
)

// mix derives an independent 64-bit seed for item i from the run seed
// (splitmix64), so every generated input depends on --seed alone.
func mix(seed, i uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + (i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return (z ^ (z >> 31)) | 1
}

// session is one served session's input: a prefix of one workload run,
// cut into v2 chunks.
type session struct {
	program string
	params  workload.Params
	limit   int // events taken from the run
	size    int // events per chunk
	chunks  [][]byte
	events  int64
}

// eventSink records a run's interleaved event stream, up to a limit.
type eventSink struct {
	events []trace.Event
	limit  int
}

func (s *eventSink) Block(id trace.BlockID, instrs int) {
	if len(s.events) < s.limit {
		s.events = append(s.events, trace.Event{Kind: trace.EventBlock, Block: id, Instrs: instrs})
	}
}

func (s *eventSink) Access(addr trace.Addr) {
	if len(s.events) < s.limit {
		s.events = append(s.events, trace.Event{Kind: trace.EventAccess, Addr: addr})
	}
}

// newSession generates the input of one session: the first limit
// events of program's run under params (limit <= 0 takes the whole
// run), encoded as v2 chunks of size events.
func newSession(program string, params workload.Params, limit, size int) (*session, error) {
	spec, err := workload.ByName(program)
	if err != nil {
		return nil, err
	}
	if limit <= 0 {
		limit = int(^uint(0) >> 1)
	}
	sink := &eventSink{limit: limit}
	spec.Make(params).Run(sink)
	s := &session{program: program, params: params, limit: len(sink.events), size: size, events: int64(len(sink.events))}
	for lo := 0; lo < len(sink.events); lo += size {
		hi := min(lo+size, len(sink.events))
		b, err := trace.AppendChunkV2(nil, sink.events[lo:hi])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", program, err)
		}
		s.chunks = append(s.chunks, b)
	}
	return s, nil
}

// streamPlan is stream-ephemeral's input: the fft, mesh, swim and
// vortex training runs, whole, split over two clients with about equal
// event counts (swim+vortex ~3.2M events, fft+mesh ~3.5M). Every pass
// streams the same runs.
func streamPlan(seed uint64, tiny bool) (plan, error) {
	limit := 0
	if tiny {
		limit = tinyChunks * streamChunk
	}
	byClient := [][]string{{"swim", "vortex"}, {"fft", "mesh"}}
	clients := make([][]*session, len(byClient))
	for c, names := range byClient {
		for _, name := range names {
			spec, err := workload.ByName(name)
			if err != nil {
				return nil, err
			}
			p := spec.Train
			p.Seed = mix(seed, uint64(len(clients[c])+10*c))
			s, err := newSession(name, p, limit, streamChunk)
			if err != nil {
				return nil, err
			}
			clients[c] = append(clients[c], s)
		}
	}
	return plan{clients}, nil
}

// clusterPlan is cluster-durable's input: clusterPools passes of
// clusterPool short sessions each, alternating gcc and moldyn, dealt
// round-robin to two clients. Every session is the first clusterEvents
// events of a training-size run under its own seed, so each pass sees
// fresh inputs while the work per pass stays the same whatever the
// seeds do to the programs' run lengths.
func clusterPlan(seed uint64, tiny bool) (plan, error) {
	pools, n, limit := clusterPools, clusterPool, clusterEvents
	if tiny {
		// One checkpoint per session (a checkpoint every 64 chunks).
		pools, n, limit = 2, 2, 65*clusterChunk
	}
	pl := make(plan, pools)
	for pass := range pl {
		pl[pass] = make([][]*session, 2)
		for i := 0; i < n; i++ {
			name := []string{"gcc", "moldyn"}[i%2]
			spec, err := workload.ByName(name)
			if err != nil {
				return nil, err
			}
			p := spec.Train
			p.Seed = mix(seed, uint64(1000+pass*n+i))
			s, err := newSession(name, p, limit, clusterChunk)
			if err != nil {
				return nil, err
			}
			if s.events < int64(limit) {
				return nil, fmt.Errorf("%s seed %d: run has only %d events, want %d", name, p.Seed, s.events, limit)
			}
			pl[pass][i%2] = append(pl[pass][i%2], s)
		}
	}
	return pl, nil
}

// expected is what a correct server answers for one session: the ack
// body of each chunk and the close body.
type expected struct {
	acks  [][]byte
	close []byte
}

// oracle computes a session's expected answers with a fresh detector
// fed one event at a time straight from the regenerated workload run:
// it shares neither the wire codec nor the batch entry points with the
// server path it checks. Only the first nchunks chunks are sent.
func oracle(s *session, nchunks int) expected {
	var pending []phase.Event
	det := online.NewDetector(online.Config{OnEvent: func(ev phase.Event) { pending = append(pending, ev) }})
	var out expected
	stop := nchunks * s.size
	if stop > s.limit {
		stop = s.limit
	}
	n := 0
	feed := func(ev trace.Event) {
		if n >= stop {
			return
		}
		ev.Feed(det)
		n++
		if n%s.size == 0 || n == stop {
			out.acks = append(out.acks, encodePhaseEvents(pending))
			pending = pending[:0]
		}
	}
	spec, _ := workload.ByName(s.program) // newSession validated the name
	spec.Make(s.params).Run(feeder(feed))
	det.Flush()
	out.close = encodePhaseEvents(pending)
	return out
}

// feeder adapts a per-event callback to trace.Instrumenter.
type feeder func(trace.Event)

func (f feeder) Block(id trace.BlockID, instrs int) {
	f(trace.Event{Kind: trace.EventBlock, Block: id, Instrs: instrs})
}
func (f feeder) Access(addr trace.Addr) { f(trace.Event{Kind: trace.EventAccess, Addr: addr}) }

// phaseLine is the server's NDJSON rendering of one phase event, as
// documented for POST /v1/sessions/{id}/events.
type phaseLine struct {
	Kind         string `json:"kind"`
	Time         int64  `json:"time"`
	Instructions int64  `json:"instructions"`
	Phase        int    `json:"phase"`
}

func encodePhaseEvents(events []phase.Event) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range events {
		// Encoding four plain fields cannot fail.
		_ = enc.Encode(phaseLine{Kind: ev.Kind.String(), Time: ev.Time, Instructions: ev.Instructions, Phase: ev.Phase})
	}
	return buf.Bytes()
}

// checkpointEvery is the checkpoint cadence the benchmark sets on every
// durable node (lppserve -checkpoint-every): a durable session
// checkpoints after every 64th accepted chunk. The traced replay
// checkpoints at the same cadence and checks its count against the
// nodes' lpp_checkpoints_total.
const checkpointEvery = 64
