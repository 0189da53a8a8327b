package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/mcelog"
)

// binBody renders events in the POST /v1/events.bin wire shape, frameEvents
// records per frame (0 = encoder default).
func binBody(t *testing.T, frameEvents int, events ...mcelog.Event) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	enc := mcelog.NewFrameEncoder(&buf, frameEvents)
	for _, ev := range events {
		if err := enc.Add(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// postBin ingests a binary body and decodes the IngestResult, expecting the
// given status.
func postBin(t *testing.T, srv *Server, body *bytes.Buffer, wantStatus int) IngestResult {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/events.bin", body))
	if rec.Code != wantStatus {
		t.Fatalf("POST /v1/events.bin = %d, want %d: %s", rec.Code, wantStatus, rec.Body)
	}
	var res IngestResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestServerEventsBin: a multi-frame binary batch lands whole and drives
// the same pipeline as JSONL — the repeated-UER bank earns actions.
func TestServerEventsBin(t *testing.T) {
	engine, srv := newTestServer(t, Config{Shards: 2})
	var events []mcelog.Event
	for i := 0; i < 9; i++ {
		events = append(events, uerAt(testBank(2), i+1, i))
	}
	res := postBin(t, srv, binBody(t, 4, events...), http.StatusOK)
	if res.Accepted != 9 || res.Rejected != 0 || res.Dropped != 0 || res.Truncated {
		t.Fatalf("ingest result %+v, want 9 accepted", res)
	}
	if err := engine.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := engine.Stats(); st.Processed != 9 {
		t.Fatalf("processed %d events, want 9", st.Processed)
	}
	// Nine events and the body's end are ten decode steps: ⌈10/64⌉ samples.
	if got := metricValue(t, scrapeMetrics(t, srv), `cordial_stage_seconds_count{stage="decode"}`); got != 1 {
		t.Errorf("decode stage holds %v samples after a 9-event body, want 1", got)
	}
}

// TestServerEventsBinEmpty: an empty body (no magic) and a magic-only body
// are both complete zero-event batches, not errors.
func TestServerEventsBinEmpty(t *testing.T) {
	_, srv := newTestServer(t, Config{Shards: 1})
	for _, body := range []*bytes.Buffer{bytes.NewBuffer(nil), binBody(t, 0)} {
		res := postBin(t, srv, body, http.StatusOK)
		if res.Accepted != 0 || res.Truncated {
			t.Fatalf("empty batch result %+v", res)
		}
	}
	// Each body's end is a decode step: two steps, ⌈2/64⌉ samples.
	if got := metricValue(t, scrapeMetrics(t, srv), `cordial_stage_seconds_count{stage="decode"}`); got != 1 {
		t.Errorf("two frameless bodies left the decode stage at %v samples, want 1", got)
	}
}

// TestServerEventsBinCorrupt: a corrupted frame is a 400 — there is no way
// to resynchronise past it — but frames before it are already ingested.
func TestServerEventsBinCorrupt(t *testing.T) {
	engine, srv := newTestServer(t, Config{Shards: 1})
	body := binBody(t, 2, uerAt(testBank(1), 1, 0), uerAt(testBank(1), 2, 1),
		uerAt(testBank(1), 3, 2), uerAt(testBank(1), 4, 3))
	raw := body.Bytes()
	raw[len(raw)-1] ^= 0xFF // corrupt the last frame's payload: CRC mismatch
	res := postBin(t, srv, bytes.NewBuffer(raw), http.StatusBadRequest)
	if res.Accepted != 2 || !res.Truncated {
		t.Fatalf("ingest result %+v, want 2 accepted (first frame) and truncated", res)
	}
	if err := engine.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestServerEventsBinInvalidRecord: a record outside the configured
// geometry is rejected individually; the rest of the frame still lands.
func TestServerEventsBinInvalidRecord(t *testing.T) {
	engine, srv := newTestServer(t, Config{Shards: 1})
	bad := uerAt(testBank(1), 1, 0)
	bad.Class = ecc.Class(200) // not a loggable error class
	body := binBody(t, 0, uerAt(testBank(1), 1, 0), bad, uerAt(testBank(1), 2, 1))
	res := postBin(t, srv, body, http.StatusOK)
	if res.Accepted != 2 || res.Rejected != 1 || len(res.Errors) != 1 {
		t.Fatalf("ingest result %+v, want 2 accepted / 1 rejected", res)
	}
	if err := engine.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// withStrayBit sets bit 60 of record rec's packed address in a one-frame
// wire body — a bit no layout uses, which Unpack drops — and reseals the
// frame's CRC.
func withStrayBit(body []byte, rec int) []byte {
	const magic = 4 // "CBF2"; the frame header follows: u32 length | u32 CRC-32C
	payload := body[magic+8:]
	payload[rec*mcelog.WireRecordSize+8+7] |= 1 << 4 // the packed u64 is record bytes 8–15, little-endian
	binary.LittleEndian.PutUint32(body[magic+4:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return body
}

// TestServerEventsBinStrayAddressBits: a record whose packed address has
// bits outside the layout is rejected with the checked decoder's message,
// not ingested on the valid-looking bank those bits alias it onto; the rest
// of the frame lands.
func TestServerEventsBinStrayAddressBits(t *testing.T) {
	engine, srv := newTestServer(t, Config{Shards: 1})
	body := binBody(t, 0, uerAt(testBank(1), 1, 0), uerAt(testBank(1), 2, 1), uerAt(testBank(1), 3, 2))
	res := postBin(t, srv, bytes.NewBuffer(withStrayBit(body.Bytes(), 1)), http.StatusOK)
	if res.Accepted != 2 || res.Rejected != 1 || len(res.Errors) != 1 ||
		!strings.HasPrefix(res.Errors[0], "frame 1 record 1: ") || !strings.Contains(res.Errors[0], "outside the") {
		t.Fatalf("ingest result %+v, want 2 accepted and record 1 rejected for its stray bits", res)
	}
	if err := engine.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := engine.Stats(); st.Processed != 2 {
		t.Fatalf("processed %d events, want 2", st.Processed)
	}
}

// TestServerEventsBinNotOwned mirrors the JSONL consumed-prefix contract:
// the batch stops at the first record for a bank outside this node's
// ownership, everything before it is consumed, and the 503 carries the
// epoch so the router refreshes and resends the suffix.
func TestServerEventsBinNotOwned(t *testing.T) {
	engine, srv := newTestServer(t, Config{Shards: 1})
	ownedKey := testBank(1).BankKey()
	srv.SetOwnership(7, func(bankKey uint64) bool { return bankKey == ownedKey })
	body := binBody(t, 0, uerAt(testBank(1), 1, 0), uerAt(testBank(1), 2, 1),
		uerAt(testBank(2), 1, 2), uerAt(testBank(1), 3, 3))
	res := postBin(t, srv, body, http.StatusServiceUnavailable)
	if res.Accepted != 2 || res.NotOwned != 1 || res.Epoch != 7 {
		t.Fatalf("ingest result %+v, want 2 accepted / notOwned / epoch 7", res)
	}
	if consumed := res.Accepted + res.Rejected + res.Dropped; consumed != 2 {
		t.Fatalf("consumed prefix %d, want 2 (suffix must be resendable)", consumed)
	}
	if err := engine.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestServerEventsBinTooLarge: the body cap fails the request with 413 and
// reports what landed before the cap.
func TestServerEventsBinTooLarge(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 1})
	t.Cleanup(func() { e.Close() })
	srv := NewServer(e, ServerConfig{MaxBodyBytes: 64})
	var events []mcelog.Event
	for i := 0; i < 16; i++ {
		events = append(events, uerAt(testBank(1), i+1, i))
	}
	res := postBin(t, srv, binBody(t, 0, events...), http.StatusRequestEntityTooLarge)
	if !res.Truncated {
		t.Fatalf("ingest result %+v, want truncated", res)
	}
}

// TestServerEventsBinClosedEngine: binary ingest against a closed engine is
// a 503, not a panic.
func TestServerEventsBinClosedEngine(t *testing.T) {
	engine, srv := newTestServer(t, Config{Shards: 1})
	engine.Close()
	postBin(t, srv, binBody(t, 0, uerAt(testBank(1), 1, 0)), http.StatusServiceUnavailable)
}
