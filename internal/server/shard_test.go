package server

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// sameShardIDs returns n session IDs that all hash to one shard of s,
// so tests can force worst-case lock contention deliberately.
func sameShardIDs(s *Server, n int) []string {
	target := s.shardIndex("anchor")
	ids := []string{"anchor"}
	for i := 0; len(ids) < n; i++ {
		id := fmt.Sprintf("contended-%d", i)
		if s.shardIndex(id) == target {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestShardDistribution: the ID hash must actually spread sessions over
// the stripes — a constant hash would silently reduce the sharded table
// to one mutex.
func TestShardDistribution(t *testing.T) {
	s := mustServer(t, Config{})
	defer s.Close()
	used := make(map[int]bool)
	for i := 0; i < 64; i++ {
		used[s.shardIndex(fmt.Sprintf("session-%d", i))] = true
	}
	if len(used) < numShards/2 {
		t.Errorf("64 ids landed on only %d of %d shards", len(used), numShards)
	}
	if got := s.shardIndex("x"); got != s.shardIndex("x") {
		t.Error("shard index not stable")
	}
}

// TestConcurrentIngestAcrossShards hammers many sessions in parallel
// through the full HTTP path and then verifies per-session event
// counts: sharding must never cross the streams or lose a chunk.
func TestConcurrentIngestAcrossShards(t *testing.T) {
	s := mustServer(t, Config{QueueDepth: 32})
	defer s.Close()
	h := s.Handler()
	const sessions = 12
	const chunks = 6
	events := syntheticEvents(1, 1, 1)[:601]
	body := encodeNDJSON(events)
	var wg sync.WaitGroup
	errs := make(chan string, sessions*chunks)
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("s%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < chunks; c++ {
				rr := post(t, h, "/v1/sessions/"+id+"/events", "", body)
				for rr.Code == http.StatusTooManyRequests {
					rr = post(t, h, "/v1/sessions/"+id+"/events", "", body)
				}
				if rr.Code != http.StatusOK {
					errs <- fmt.Sprintf("%s chunk %d: status %d: %s", id, c, rr.Code, rr.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("s%d", i)
		st := do(t, h, "GET", "/v1/sessions/"+id+"/stats")
		if st.Code != http.StatusOK {
			t.Fatalf("%s stats: %d", id, st.Code)
		}
		want := fmt.Sprintf(`"events":%d`, len(events)*chunks)
		if !strings.Contains(st.Body.String(), want) {
			t.Errorf("%s: stats %s missing %s", id, st.Body.String(), want)
		}
	}
}

// TestContendedShardSeqProtocol drives the idempotency protocol —
// duplicate-sequence replay and gap 409 — on one session while sibling
// sessions that hash to the same shard ingest concurrently. The
// protocol is per-session state owned by the worker; shard-lock
// contention must not let it misfire.
func TestContendedShardSeqProtocol(t *testing.T) {
	s := mustServer(t, Config{QueueDepth: 32})
	defer s.Close()
	h := s.Handler()
	ids := sameShardIDs(s, 4)
	events := syntheticEvents(2, 1, 1)[:301]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, id := range ids[1:] {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for seq := uint64(1); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				rr := postSeq(t, h, id, seq, events)
				if rr.Code == http.StatusTooManyRequests {
					seq-- // retry the same chunk after backpressure
					continue
				}
				if rr.Code != http.StatusOK {
					t.Errorf("%s seq %d: status %d", id, seq, rr.Code)
					return
				}
			}
		}(id)
	}

	id := ids[0]
	first := postSeq(t, h, id, 1, events)
	if first.Code != http.StatusOK {
		t.Fatalf("seq 1: status %d: %s", first.Code, first.Body.String())
	}
	dup := postSeq(t, h, id, 1, events)
	if dup.Code != http.StatusOK || dup.Header().Get("X-Lpp-Replayed") != "true" {
		t.Fatalf("duplicate seq: status %d, X-Lpp-Replayed %q", dup.Code, dup.Header().Get("X-Lpp-Replayed"))
	}
	if dup.Body.String() != first.Body.String() {
		t.Error("replayed response differs from the original")
	}
	if rr := postSeq(t, h, id, 3, events); rr.Code != http.StatusConflict {
		t.Fatalf("sequence gap: status %d, want 409", rr.Code)
	}
	if rr := postSeq(t, h, id, 2, events); rr.Code != http.StatusOK {
		t.Fatalf("seq 2 after gap: status %d", rr.Code)
	}
	close(stop)
	wg.Wait()
}

// TestSessionLimitConcurrent: the cap is claimed by CAS against a
// global counter while creation itself is per-shard, so a burst of
// concurrent creates across every shard must admit exactly MaxSessions.
func TestSessionLimitConcurrent(t *testing.T) {
	const maxSess = 8
	const attempts = 32
	s := mustServer(t, Config{MaxSessions: maxSess})
	defer s.Close()
	h := s.Handler()
	body := encodeNDJSON(syntheticEvents(3, 1, 1)[:50])
	codes := make([]int, attempts)
	var wg sync.WaitGroup
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rr := post(t, h, fmt.Sprintf("/v1/sessions/cap%d/events", i), "", body)
			codes[i] = rr.Code
		}(i)
	}
	wg.Wait()
	ok, refused := 0, 0
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			refused++
		default:
			t.Fatalf("create %d: unexpected status %d", i, c)
		}
	}
	if ok != maxSess || refused != attempts-maxSess {
		t.Errorf("admitted %d, refused %d; want exactly %d and %d", ok, refused, maxSess, attempts-maxSess)
	}
	if got := s.m.sessionsActive.Load(); got != maxSess {
		t.Errorf("sessionsActive = %d, want %d", got, maxSess)
	}
	// Deleting one session must free exactly one slot.
	var victim string
	for i := 0; i < attempts; i++ {
		if codes[i] == http.StatusOK {
			victim = fmt.Sprintf("cap%d", i)
			break
		}
	}
	if rr := do(t, h, "DELETE", "/v1/sessions/"+victim); rr.Code != http.StatusOK {
		t.Fatalf("delete %s: status %d", victim, rr.Code)
	}
	if rr := post(t, h, "/v1/sessions/freed/events", "", body); rr.Code != http.StatusOK {
		t.Errorf("create after delete: status %d, want 200", rr.Code)
	}
	if rr := post(t, h, "/v1/sessions/one-too-many/events", "", body); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("create past refilled cap: status %d, want 503", rr.Code)
	}
}

// TestCloseRacingCreate: Close and session creation may interleave
// arbitrarily; afterwards the server must be refusing requests and no
// created session may be left running outside the drain.
func TestCloseRacingCreate(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := mustServer(t, Config{})
		body := encodeNDJSON(syntheticEvents(4, 1, 1)[:50])
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				post(t, s.Handler(), fmt.Sprintf("/v1/sessions/r%d/events", i), "", body)
			}(i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Close()
		}()
		wg.Wait()
		if _, err := s.getSession("late", true); err != errServerClosed {
			t.Fatalf("round %d: create after close: %v, want errServerClosed", round, err)
		}
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.Lock()
			n := len(sh.sessions)
			sh.mu.Unlock()
			if n != 0 {
				t.Fatalf("round %d: shard %d still holds %d sessions after Close", round, i, n)
			}
		}
	}
}
