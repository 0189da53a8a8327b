package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/mcelog"
)

// newTestServer wraps a fake-strategy engine in the HTTP API.
func newTestServer(t *testing.T, cfg Config) (*Engine, *Server) {
	t.Helper()
	e := newTestEngine(t, cfg)
	t.Cleanup(func() { e.Close() })
	return e, NewServer(e, ServerConfig{})
}

// jsonlBody renders events in the POST /v1/events wire shape.
func jsonlBody(t *testing.T, events ...mcelog.Event) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := mcelog.FromEvents(events).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// post ingests a body and decodes the IngestResult.
func post(t *testing.T, srv *Server, body *bytes.Buffer) IngestResult {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/events", body))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/events = %d: %s", rec.Code, rec.Body)
	}
	var res IngestResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

func get(t *testing.T, srv *Server, path string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec, rec.Body.Bytes()
}

func TestServerIngestInspectStats(t *testing.T) {
	engine, srv := newTestServer(t, Config{Shards: 2})
	bank := testBank(1)
	res := post(t, srv, jsonlBody(t,
		uerAt(bank, 100, 0), uerAt(bank, 101, 1), uerAt(bank, 102, 2)))
	if res.Accepted != 3 || res.Rejected != 0 || res.Dropped != 0 {
		t.Fatalf("ingest result %+v", res)
	}
	if err := engine.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Session inspection by any cell address inside the bank.
	rec, body := get(t, srv, "/v1/banks/"+uerAt(bank, 100, 0).Addr.String())
	if rec.Code != http.StatusOK {
		t.Fatalf("banks = %d: %s", rec.Code, body)
	}
	var sess struct {
		Bank            string `json:"bank"`
		Events          int    `json:"events"`
		DistinctUERRows int    `json:"distinctUERRows"`
		Classified      bool   `json:"classified"`
		RowsIsolated    int    `json:"rowsIsolated"`
	}
	if err := json.Unmarshal(body, &sess); err != nil {
		t.Fatal(err)
	}
	if sess.Events != 3 || sess.DistinctUERRows != 3 || !sess.Classified || sess.RowsIsolated != 2 {
		t.Errorf("session %+v", sess)
	}
	if sess.Bank != bank.String() {
		t.Errorf("session bank %q, want %q", sess.Bank, bank)
	}

	// Actions arrive in the store via the collector goroutine.
	var acts struct {
		Actions []jsonAction `json:"actions"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body = get(t, srv, "/v1/actions")
		if err := json.Unmarshal(body, &acts); err != nil {
			t.Fatal(err)
		}
		if len(acts.Actions) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if len(acts.Actions) != 1 || acts.Actions[0].Kind != "row-spare" {
		t.Fatalf("actions %+v", acts.Actions)
	}
	if fmt.Sprint(acts.Actions[0].Rows) != "[102 103]" {
		t.Errorf("action rows %v", acts.Actions[0].Rows)
	}

	// limit=0 returns none; a bad limit is a 400.
	_, body = get(t, srv, "/v1/actions?limit=0")
	if err := json.Unmarshal(body, &acts); err != nil || len(acts.Actions) != 0 {
		t.Errorf("limit=0 returned %s", body)
	}
	if rec, _ := get(t, srv, "/v1/actions?limit=bogus"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad limit = %d", rec.Code)
	}

	if rec, body := get(t, srv, "/healthz"); rec.Code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz = %d %q", rec.Code, body)
	}
	var stats map[string]any
	if _, body := get(t, srv, "/statsz"); json.Unmarshal(body, &stats) != nil {
		t.Fatalf("statsz not JSON: %s", body)
	}
	for _, key := range []string{"ingested", "processed", "sessionsLive", "queueDepths",
		"ingestRatePerSec", "actionsEmitted", "processLatency", "decodeLatency"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("statsz missing %q", key)
		}
	}
	if got := stats["ingested"].(float64); got != 3 {
		t.Errorf("statsz ingested = %v", got)
	}
}

// TestServerMalformedLines injects every flavour of bad line; the batch
// must report per-line rejections, keep the good lines, and leave the
// engine healthy for the next batch.
func TestServerMalformedLines(t *testing.T) {
	engine, srv := newTestServer(t, Config{Shards: 2})
	good := uerAt(testBank(1), 50, 0)
	var buf bytes.Buffer
	if err := mcelog.FromEvents([]mcelog.Event{good}).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("not json at all\n")
	buf.WriteString(`{"time":"2026-01-01T00:00:01Z","addr":"garbage","class":"UER"}` + "\n")
	buf.WriteString(`{"time":"2026-01-01T00:00:02Z","addr":"n0.u0.h0.s0.c0.p0.g0.b0.r5.col0","class":"XYZ"}` + "\n")
	buf.WriteString(`{"addr":"n0.u0.h0.s0.c0.p0.g0.b0.r5.col0","class":"UER"}` + "\n") // zero time
	// Out-of-range address (row beyond geometry).
	buf.WriteString(`{"time":"2026-01-01T00:00:03Z","addr":"n0.u0.h0.s0.c0.p0.g0.b0.r99999999.col0","class":"UER"}` + "\n")
	buf.WriteString("\n") // blank lines are skipped, not rejected

	res := post(t, srv, &buf)
	if res.Accepted != 1 || res.Rejected != 5 {
		t.Fatalf("ingest result %+v", res)
	}
	if len(res.Errors) != 5 {
		t.Fatalf("errors %v", res.Errors)
	}
	for i, want := range []string{"line 2", "line 3", "line 4", "line 5", "line 6"} {
		if !strings.Contains(res.Errors[i], want) {
			t.Errorf("error %d = %q, want prefix %q", i, res.Errors[i], want)
		}
	}

	// The engine is not wedged: a follow-up batch lands normally.
	res = post(t, srv, jsonlBody(t, uerAt(testBank(1), 51, 1), uerAt(testBank(1), 52, 2)))
	if res.Accepted != 2 || res.Rejected != 0 {
		t.Fatalf("follow-up result %+v", res)
	}
	if err := engine.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := engine.Stats()
	if st.Ingested != 3 || st.Processed != 3 || st.SessionsLive != 1 {
		t.Errorf("engine stats after injection %+v", st)
	}
}

// TestServerOutOfOrderAndDuplicates feeds timestamp regressions and exact
// duplicates: both are accepted (the log layer is append-only), sessions
// must not wedge, and duplicate UERs must not double-count distinct rows.
func TestServerOutOfOrderAndDuplicates(t *testing.T) {
	engine, srv := newTestServer(t, Config{Shards: 2})
	bank := testBank(1)
	e1, e2 := uerAt(bank, 10, 5), uerAt(bank, 11, 3) // e2 earlier than e1
	res := post(t, srv, jsonlBody(t, e1, e2, e2, e1, uerAt(bank, 12, 6)))
	if res.Accepted != 5 || res.Rejected != 0 {
		t.Fatalf("ingest result %+v", res)
	}
	if err := engine.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	st, ok := engine.Session(bank)
	if !ok {
		t.Fatal("no session")
	}
	if st.Events != 5 || st.DistinctUERRows != 3 {
		t.Errorf("session %+v: want 5 events over 3 distinct rows", st)
	}
}

func TestServerBankErrors(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	if rec, _ := get(t, srv, "/v1/banks/not-an-address"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad address = %d", rec.Code)
	}
	if rec, _ := get(t, srv, "/v1/banks/"+testBank(5).String()); rec.Code != http.StatusNotFound {
		t.Errorf("unknown bank = %d", rec.Code)
	}
	if rec, _ := get(t, srv, "/v1/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown route = %d", rec.Code)
	}
	// Method mismatch on a defined route.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/events", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/events = %d", rec.Code)
	}
}

// TestServerLongLineWithinBody: a line longer than the old 1 MiB scanner
// default but within the body cap must be handled per-line, not abort the
// batch. (Regression: the scanner buffer used to be capped at 1 MiB even
// with a 32 MiB body limit, so one long line sank the whole batch.)
func TestServerLongLineWithinBody(t *testing.T) {
	engine, srv := newTestServer(t, Config{Shards: 1})
	var buf bytes.Buffer
	if err := mcelog.FromEvents([]mcelog.Event{uerAt(testBank(1), 1, 0)}).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	// A valid event line padded past 2 MiB (JSON tolerates surrounding
	// whitespace) — must be accepted, not refused for its length.
	var padded bytes.Buffer
	if err := mcelog.FromEvents([]mcelog.Event{uerAt(testBank(1), 2, 1)}).WriteJSONL(&padded); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(strings.Repeat(" ", 2<<20))
	buf.Write(padded.Bytes())
	// And a 2 MiB junk line — rejected as one line, batch continues.
	buf.WriteString(strings.Repeat("x", 2<<20) + "\n")
	if err := mcelog.FromEvents([]mcelog.Event{uerAt(testBank(1), 3, 2)}).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	res := post(t, srv, &buf)
	if res.Accepted != 3 || res.Rejected != 1 || res.Truncated {
		t.Fatalf("ingest result %+v, want 3 accepted / 1 rejected / not truncated", res)
	}
	if err := engine.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestServerIngestAfterEngineClose: a batch against a closed engine fails
// with 503 and reports the partial state instead of panicking.
func TestServerIngestAfterEngineClose(t *testing.T) {
	engine, srv := newTestServer(t, Config{})
	engine.Close()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/events",
		jsonlBody(t, uerAt(testBank(1), 1, 0))))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("POST after close = %d: %s", rec.Code, rec.Body)
	}
}

// TestServerActionStoreEviction bounds the action store.
func TestServerActionStoreEviction(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 1})
	t.Cleanup(func() { e.Close() })
	srv := NewServer(e, ServerConfig{MaxStoredActions: 2})
	// Three even banks -> three bank-spare actions.
	var events []mcelog.Event
	for i := 0; i < 3; i++ {
		bank := testBank(2 + 4*i)
		for j, row := range []int{1, 2, 3} {
			events = append(events, uerAt(bank, row, 10*i+j))
		}
	}
	res := post(t, srv, jsonlBody(t, events...))
	if res.Accepted != 9 {
		t.Fatalf("ingest %+v", res)
	}
	e.Close()
	srv.AwaitDrained()
	var acts struct {
		Actions []jsonAction `json:"actions"`
		Evicted uint64       `json:"evicted"`
	}
	_, body := get(t, srv, "/v1/actions")
	if err := json.Unmarshal(body, &acts); err != nil {
		t.Fatal(err)
	}
	if len(acts.Actions) != 2 || acts.Evicted != 1 {
		t.Fatalf("store %d actions, evicted %d; want 2/1", len(acts.Actions), acts.Evicted)
	}
}

// TestServerActionRingWraps ingests three times the store's capacity: the
// newest actions survive oldest-first, ?limit keeps the newest, evictions are
// counted, and the ring never reallocates its backing array (the store used
// to copy itself once per action past the cap).
func TestServerActionRingWraps(t *testing.T) {
	const capacity, total = 4, 12
	e := newTestEngine(t, Config{Shards: 1})
	t.Cleanup(func() { e.Close() })
	srv := NewServer(e, ServerConfig{MaxStoredActions: capacity})
	backing := &srv.actions.buf[0]
	// One odd bank: from its third distinct UER row on, every UER row-spares
	// [row, row+1] — one action per event, in event order.
	var events []mcelog.Event
	for i := 0; i < total+2; i++ {
		events = append(events, uerAt(testBank(1), 10*(i+1), i))
	}
	if res := post(t, srv, jsonlBody(t, events...)); res.Accepted != len(events) {
		t.Fatalf("ingest %+v", res)
	}
	e.Close()
	srv.AwaitDrained()
	for _, tc := range []struct {
		path string
		want int
	}{{"/v1/actions", capacity}, {"/v1/actions?limit=2", 2}, {"/v1/actions?limit=99", capacity}} {
		var acts struct {
			Actions []jsonAction `json:"actions"`
			Evicted uint64       `json:"evicted"`
		}
		_, body := get(t, srv, tc.path)
		if err := json.Unmarshal(body, &acts); err != nil {
			t.Fatal(err)
		}
		if len(acts.Actions) != tc.want || acts.Evicted != total-capacity {
			t.Fatalf("%s: %d actions, evicted %d; want %d/%d", tc.path, len(acts.Actions), acts.Evicted, tc.want, total-capacity)
		}
		for i, a := range acts.Actions {
			// The j-th action overall isolates row 10*(j+3).
			if want := 10 * (total - tc.want + i + 3); len(a.Rows) != 2 || a.Rows[0] != want {
				t.Fatalf("%s: action %d isolates %v, want row %d first", tc.path, i, a.Rows, want)
			}
		}
	}
	if len(srv.actions.buf) != capacity || &srv.actions.buf[0] != backing {
		t.Fatal("action ring reallocated its backing array")
	}
}

// TestServerBodyTooLarge: a batch over MaxBodyBytes stops at the cap and
// answers 413, still reporting the prefix that landed before the limit.
func TestServerBodyTooLarge(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 1})
	t.Cleanup(func() { e.Close() })
	srv := NewServer(e, ServerConfig{MaxBodyBytes: 4096})
	var buf bytes.Buffer
	var events []mcelog.Event
	for i := 0; i < 4; i++ {
		events = append(events, uerAt(testBank(1), i+1, i))
	}
	if err := mcelog.FromEvents(events).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(strings.Repeat("x", 8<<10) + "\n")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/events", &buf))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d: %s", rec.Code, rec.Body)
	}
	var res IngestResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Accepted != 4 {
		t.Errorf("result %+v, want the 4 in-cap events accepted and truncated set", res)
	}
	// The server is healthy for the next, properly sized batch.
	if res := post(t, srv, jsonlBody(t, uerAt(testBank(1), 9, 9))); res.Accepted != 1 {
		t.Errorf("follow-up batch %+v", res)
	}
	// A line longer than a cap beyond the scanner's first buffer is an
	// oversized body too, even as the body's first line.
	srv = NewServer(e, ServerConfig{MaxBodyBytes: 1 << 17})
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/events", strings.NewReader(strings.Repeat("x", 1<<18)+"\n")))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized first line = %d: %s", rec.Code, rec.Body)
	}
}

// TestServerStatszDurabilityAndQuarantine: the WAL and supervision counters
// operators alert on are surfaced by /statsz, and a degraded session is
// visible in its bank view.
func TestServerStatszDurabilityAndQuarantine(t *testing.T) {
	base := t.TempDir()
	cfg := durCfg(filepath.Join(base, "wal"), 2, &fakeStrategy{budget: 3, poisonRow: 666})
	cfg.DeadLetterPath = filepath.Join(base, "dead.jsonl")
	e := newTestEngine(t, cfg)
	t.Cleanup(func() { e.Close() })
	srv := NewServer(e, ServerConfig{})
	bank := testBank(1)
	if res := post(t, srv, jsonlBody(t, uerAt(bank, 666, 0), uerAt(bank, 1, 1))); res.Accepted != 2 {
		t.Fatalf("ingest result %+v", res)
	}
	if err := e.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	var stats map[string]any
	_, body := get(t, srv, "/statsz")
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("statsz not JSON: %s", body)
	}
	if stats["walEnabled"] != true {
		t.Errorf("statsz walEnabled = %v", stats["walEnabled"])
	}
	if got := stats["walAppended"]; got != float64(2) {
		t.Errorf("statsz walAppended = %v, want 2", got)
	}
	if got := stats["quarantined"]; got != float64(1) {
		t.Errorf("statsz quarantined = %v, want 1", got)
	}
	if got := stats["sessionsDegraded"]; got != float64(1) {
		t.Errorf("statsz sessionsDegraded = %v, want 1", got)
	}

	rec, body := get(t, srv, "/v1/banks/"+bank.String())
	if rec.Code != http.StatusOK {
		t.Fatalf("banks = %d: %s", rec.Code, body)
	}
	var sess struct {
		Degraded bool `json:"degraded"`
	}
	if err := json.Unmarshal(body, &sess); err != nil {
		t.Fatal(err)
	}
	if !sess.Degraded {
		t.Errorf("bank view does not report degradation: %s", body)
	}
}

// TestServerEventJSONRoundTrip guards the wire shape: what cordial-gen
// -format jsonl writes is exactly what POST /v1/events accepts.
func TestServerEventJSONRoundTrip(t *testing.T) {
	ev := mcelog.Event{
		Time:  time.Date(2026, 2, 3, 4, 5, 6, 0, time.UTC),
		Addr:  uerAt(testBank(3), 42, 0).Addr,
		Class: ecc.ClassUEO,
	}
	var buf bytes.Buffer
	if err := mcelog.FromEvents([]mcelog.Event{ev}).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := mcelog.ParseJSONEvent(bytes.TrimSpace(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Time.Equal(ev.Time) || got.Addr != ev.Addr || got.Class != ev.Class {
		t.Fatalf("round trip %+v != %+v", got, ev)
	}
}

func TestServerCacheControlNoStore(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz", "/statsz", "/metrics", "/v1/actions"} {
		rec, _ := get(t, srv, path)
		if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
			t.Errorf("GET %s Cache-Control = %q, want no-store", path, cc)
		}
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/events", bytes.NewBufferString("")))
	if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
		t.Errorf("POST /v1/events Cache-Control = %q, want no-store", cc)
	}
}

// TestServerOwnershipFilter pins the consumed-prefix retry contract: the
// batch stops at the first not-owned line, that line is NOT consumed,
// and Accepted+Rejected+Dropped tells the router where to resume.
func TestServerOwnershipFilter(t *testing.T) {
	engine, srv := newTestServer(t, Config{Shards: 2})
	mine, theirs := testBank(1), testBank(2)
	srv.SetOwnership(7, func(key uint64) bool { return key == mine.BankKey() })

	// owned, owned, foreign, owned — the trailing owned line must not land.
	body := jsonlBody(t,
		uerAt(mine, 1, 1), uerAt(mine, 2, 2), uerAt(theirs, 1, 3), uerAt(mine, 3, 4))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/events", body))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("mixed batch = %d, want 503: %s", rec.Code, rec.Body)
	}
	var res IngestResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 2 || res.NotOwned != 1 || res.Epoch != 7 {
		t.Fatalf("mixed batch result %+v, want accepted=2 notOwned=1 epoch=7", res)
	}
	if consumed := res.Accepted + res.Rejected + res.Dropped; consumed != 2 {
		t.Fatalf("consumed prefix = %d, want 2", consumed)
	}
	if err := engine.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := engine.Session(theirs); ok {
		t.Error("foreign bank leaked past the ownership filter")
	}
	if st, ok := engine.Session(mine); !ok || st.Events != 2 {
		t.Errorf("owned bank session = %+v, want 2 events", st)
	}

	// A fully-owned batch succeeds and still reports the epoch.
	res = post(t, srv, jsonlBody(t, uerAt(mine, 3, 5)))
	if res.Accepted != 1 || res.NotOwned != 0 || res.Epoch != 7 {
		t.Fatalf("owned batch result %+v, want accepted=1 epoch=7", res)
	}

	// Back to standalone: the foreign bank is accepted again.
	srv.SetOwnership(0, nil)
	res = post(t, srv, jsonlBody(t, uerAt(theirs, 1, 6)))
	if res.Accepted != 1 || res.Epoch != 0 {
		t.Fatalf("standalone result %+v, want accepted=1 epoch=0", res)
	}
}
