package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"cordial/internal/mcelog"
	"cordial/internal/stream"
)

// memAgent is an agent over a fresh in-memory engine, serving no control
// plane: enough to drive its handlers directly. stop closes the engine and
// waits out every goroutine it and its server started.
func memAgent(t testing.TB, id string) (agent *Agent, engine *stream.Engine, stop func()) {
	t.Helper()
	engine, err := stream.New(stream.Config{Strategy: &testStrategy{budget: 3}, Shards: 2, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	api := stream.NewServer(engine, stream.ServerConfig{})
	agent = NewAgent(AgentConfig{Self: Member{ID: id, Addr: "127.0.0.1:1"}, Logger: quiet}, engine, api)
	return agent, engine, func() { engine.Close(); api.AwaitDrained() }
}

// realImport is an import request in TestClusterJoinHandoffLeave's shape:
// eight banks with four UER rows each, exported from an engine and addressed
// to a one-member ring of n1 (which therefore owns all of them).
func realImport(t testing.TB) []byte {
	t.Helper()
	src, err := stream.New(stream.Config{Strategy: &testStrategy{budget: 3}, Shards: 2, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var events []mcelog.Event
	for b := 0; b < 8; b++ {
		for r := 1; r <= 4; r++ {
			events = append(events, clusterUER(clusterBank(b), r, b*100+r))
		}
	}
	if _, _, err := src.IngestBatch(events); err != nil {
		t.Fatal(err)
	}
	if err := src.Drain(0); err != nil {
		t.Fatal(err)
	}
	payload, err := src.ExportSessions(nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(importRequest{
		Desc:   Descriptor{Epoch: 1, Members: []Member{{ID: "n1", Addr: "127.0.0.1:1"}}},
		Bundle: HandoffBundle{Payload: payload},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// spaces yields n bytes of JSON whitespace without holding them.
type spaces struct{ n int64 }

func (s *spaces) Read(p []byte) (int, error) {
	if s.n == 0 {
		return 0, io.EOF
	}
	k := min(int64(len(p)), s.n)
	for i := range p[:k] {
		p[i] = ' '
	}
	s.n -= k
	return int(k), nil
}

// paddedBody is body behind pad bytes of leading whitespace, generated as the
// handler reads it: the same request, however long.
func paddedBody(pad int64, body []byte) io.Reader {
	return io.MultiReader(&spaces{pad}, bytes.NewReader(body))
}

// TestClusterRequestBodiesCapped: every cluster handler reads at most
// maxRequestBytes of body and answers 413 past it, before acting on any of it.
// A real import padded past the bound adopts no ring and imports nothing on an
// agent, and a registration padded past it admits no member on the control
// plane; the same requests a byte under the bound are served.
func TestClusterRequestBodiesCapped(t *testing.T) {
	defer func(was int64) { maxRequestBytes = was }(maxRequestBytes)
	maxRequestBytes = 64 << 10

	imp := realImport(t)
	reg, err := json.Marshal(registerRequest{Member: Member{ID: "n9", Addr: "127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(h http.Handler, path string, pad int64, body []byte) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, paddedBody(pad, body)))
		return rec.Code
	}
	over := func(body []byte) int64 { return maxRequestBytes - int64(len(body)) + 1 }

	agent, engine, stop := memAgent(t, "n1")
	defer stop()
	for _, path := range []string{"/cluster/v1/import", "/cluster/v1/export", "/cluster/v1/drop"} {
		if code := serve(agent.Handler(), path, over(imp), imp); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: an over-cap body answered %d, want 413", path, code)
		}
	}
	if agent.Epoch() != 0 || engine.Stats().SessionsLive != 0 {
		t.Fatalf("over-cap requests adopted epoch %d and imported %d sessions", agent.Epoch(), engine.Stats().SessionsLive)
	}
	if code := serve(agent.Handler(), "/cluster/v1/import", over(imp)-1, imp); code != http.StatusOK {
		t.Fatalf("the same import at the cap answered %d", code)
	}
	if agent.Epoch() != 1 || engine.Stats().SessionsLive != 8 {
		t.Errorf("the import at the cap adopted epoch %d and imported %d sessions, want 1 and 8", agent.Epoch(), engine.Stats().SessionsLive)
	}

	cp, _ := startCP(t, CPConfig{})
	for _, path := range []string{"/cluster/v1/register", "/cluster/v1/heartbeat", "/cluster/v1/leave"} {
		if code := serve(cp.Handler(), path, over(reg), reg); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: an over-cap body answered %d, want 413", path, code)
		}
	}
	if d := cp.Descriptor(); d.Epoch != 0 || len(d.Members) != 0 {
		t.Fatalf("an over-cap registration changed the ring: %+v", d)
	}
	if code := serve(cp.Handler(), "/cluster/v1/register", over(reg)-1, reg); code != http.StatusOK {
		t.Fatalf("the same registration at the cap answered %d", code)
	}
	if d := cp.Descriptor(); d.Epoch != 1 || len(d.Members) != 1 {
		t.Errorf("the registration at the cap left the ring at %+v", d)
	}
}

// FuzzHandoffEnvelope feeds arbitrary bytes to an agent's import handler as
// the JSON envelope of a handoff bundle, over a fresh in-memory engine each
// time. The handler must never panic; an envelope that does not decode must
// answer 4xx; and whatever is refused must install no session. Seeded with a
// real export and truncations of it.
func FuzzHandoffEnvelope(f *testing.F) {
	real := realImport(f)
	f.Add(real)
	for _, n := range []int{len(real) - 1, len(real) / 2, len(real) / 4, 1} {
		f.Add(real[:n])
	}
	f.Add([]byte(`{"descriptor":{"epoch":1,"members":[{"id":"n1","addr":"a"}]},"bundle":{"payload":"Q0VORwI=","suffix":[{"lsn":1,"payload":"AAAA"}]}}`))
	f.Add([]byte(`{"descriptor":{"members":[{"id":"n1","addr":"a"}]},"bundle":{}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		agent, engine, stop := memAgent(t, "n1")
		defer stop()
		rec := httptest.NewRecorder()
		agent.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cluster/v1/import", bytes.NewReader(body)))
		var req importRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil && rec.Code/100 != 4 {
			t.Fatalf("an envelope that does not decode (%v) answered %d", err, rec.Code)
		}
		if rec.Code != http.StatusOK && engine.Stats().SessionsLive != 0 {
			t.Fatalf("a refused bundle (%d: %s) installed %d sessions", rec.Code, rec.Body, engine.Stats().SessionsLive)
		}
	})
}

// TestAgentRefusesEpochZero: epoch 0 is a standalone node's, so a descriptor
// claiming it names no ring. Every handler that adopts one answers 409 on a
// fresh agent — which used to hand its nil ring to the ownership filter and
// panic (found by FuzzHandoffEnvelope).
func TestAgentRefusesEpochZero(t *testing.T) {
	agent, _, stop := memAgent(t, "n1")
	defer stop()
	body := []byte(`{"descriptor":{"members":[{"id":"n1","addr":"a"}]},"bundle":{}}`)
	for _, path := range []string{"/cluster/v1/import", "/cluster/v1/export", "/cluster/v1/drop"} {
		rec := httptest.NewRecorder()
		agent.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusConflict {
			t.Errorf("%s: an epoch-0 descriptor answered %d, want 409", path, rec.Code)
		}
	}
	if agent.Epoch() != 0 {
		t.Errorf("the agent adopted epoch %d", agent.Epoch())
	}
}
