package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/stream"
)

// doorBody is one request body of the door matrix and the answer every door
// of its codec must give. Each expected error is worded as the serve node
// words it; a message only the serve node can give (a geometry refusal) is
// the node's at the router too, under the node's prefix and at the record's
// place in the batch the router forwarded.
type doorBody struct {
	name     string
	codec    mcelog.Codec
	body     []byte
	status   int
	accepted int
	rejected int
	trunc    bool
	errors   []doorError
}

type doorError struct {
	msg    string
	routed string // the router's wording when it differs: a node-side message
}

// TestIngestDoorMatrix posts one table of bodies to the four ingest doors —
// a serve node's JSONL and CBF routes and the router's — and holds every
// door of a body's codec to the body's one expected answer: status, counts,
// Truncated and messages.
func TestIngestDoorMatrix(t *testing.T) {
	const maxBody = 4096
	cp, cpSrv := startCP(t, CPConfig{})
	n1 := startNodeWith(t, cpSrv.URL, "n1", stream.ServerConfig{MaxBodyBytes: maxBody}, nil, nil)
	waitFor(t, "n1 registration", func() bool { return n1.agent.Epoch() == 1 && cp.Descriptor().Epoch == 1 })
	rt := NewRouter(RouterConfig{ControlPlane: cpSrv.URL, MaxBodyBytes: maxBody, Backoff: 10 * time.Millisecond, Logger: quiet})
	if err := rt.refreshRing(); err != nil {
		t.Fatal(err)
	}
	rtSrv := httptest.NewServer(rt)
	defer rtSrv.Close()

	var events []mcelog.Event
	for i := 0; i < 300; i++ {
		ev := clusterUER(clusterBank(i%16), 1+i/16, i)
		ev.Bits = mcelog.MakeErrBits(uint8(i), 1)
		events = append(events, ev)
	}
	outside := clusterUER(clusterBank(3), 32768, 0) // one row past the bank
	const geoRefusal = "mcelog: event address: hbm: row index 32768 out of range [0,32768)"

	lines := func(evs ...mcelog.Event) []string {
		var out []string
		for _, ev := range evs {
			line, err := mcelog.MarshalJSONEvent(ev)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(line))
		}
		return out
	}
	jsonl := func(ls ...string) []byte { return []byte(strings.Join(ls, "\n") + "\n") }
	wire := func(frameEvents int, evs ...mcelog.Event) []byte {
		var buf bytes.Buffer
		enc := mcelog.NewFrameEncoder(&buf, frameEvents)
		for _, ev := range evs {
			if err := enc.Add(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	const magic, hdr = 4, 8 // "CBF2", then per frame u32 length | u32 CRC-32C
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	reseal := func(body []byte, frameStart, frameLen int) {
		payload := body[frameStart+hdr : frameStart+hdr+frameLen]
		binary.LittleEndian.PutUint32(body[frameStart+4:], crc32.Checksum(payload, castagnoli))
	}

	// Stray bits: bit 60 of record 1's packed address, a bit no layout uses.
	stray := wire(0, events[:3]...)
	stray[magic+hdr+mcelog.WireRecordSize+8+7] |= 1 << 4
	reseal(stray, magic, 3*mcelog.WireRecordSize)
	strayMsg := func() string {
		rec := stray[magic+hdr+mcelog.WireRecordSize : magic+hdr+2*mcelog.WireRecordSize]
		_, err := mcelog.ParseRecordChecked(hbm.HBM2E, rec)
		return err.Error()
	}()

	// A corrupt second frame: frames of 5, a byte of frame 2's payload flipped.
	corrupt := wire(5, events[:15]...)
	frame2 := magic + hdr + 5*mcelog.WireRecordSize
	stored := binary.LittleEndian.Uint32(corrupt[frame2+4:])
	corrupt[frame2+hdr+3] ^= 0x40
	computed := crc32.Checksum(corrupt[frame2+hdr:frame2+hdr+5*mcelog.WireRecordSize], castagnoli)

	// Over the cap: JSONL lines padded to 128 bytes, so the cap falls on a
	// line boundary after line 32; frames of 10 records (198 bytes), so it
	// falls inside frame 21's payload.
	var padded []string
	for _, l := range lines(events[:40]...) {
		padded = append(padded, l[:len(l)-1]+strings.Repeat(" ", 127-len(l))+"}")
	}

	// A legacy CBF1 body: 17-byte records, no error bits.
	var v1 []byte
	for _, ev := range events[:4] {
		v1 = append(v1, mcelog.AppendWireRecord(nil, ev)[:17]...)
	}
	v1Frame := make([]byte, hdr, hdr+len(v1))
	binary.LittleEndian.PutUint32(v1Frame, uint32(len(v1)))
	binary.LittleEndian.PutUint32(v1Frame[4:], crc32.Checksum(v1, castagnoli))
	legacy := append(append([]byte("CBF1"), v1Frame...), v1...)

	tooLarge := "http: request body too large"
	bodies := []doorBody{
		{name: "clean", codec: mcelog.JSONL, body: jsonl(lines(events[:8]...)...), status: http.StatusOK, accepted: 8},
		{name: "clean", codec: mcelog.Wire, body: wire(3, events[:8]...), status: http.StatusOK, accepted: 8},
		{name: "blank lines", codec: mcelog.JSONL, body: jsonl(append([]string{"", lines(events[0])[0], ""}, lines(outside, events[1])...)...),
			status: http.StatusOK, accepted: 2, rejected: 1,
			errors: []doorError{{"line 4: " + geoRefusal, "node n1: frame 1 record 1: " + geoRefusal}}},
		{name: "malformed line", codec: mcelog.JSONL, body: jsonl(lines(events[0])[0], "not json", lines(events[1])[0]),
			status: http.StatusOK, accepted: 2, rejected: 1,
			errors: []doorError{{msg: "line 2: mcelog: decoding event: invalid character 'o' in literal null (expecting 'u')"}}},
		{name: "out of geometry", codec: mcelog.JSONL, body: jsonl(lines(events[0], events[1], outside)...),
			status: http.StatusOK, accepted: 2, rejected: 1,
			errors: []doorError{{"line 3: " + geoRefusal, "node n1: frame 1 record 2: " + geoRefusal}}},
		{name: "out of geometry", codec: mcelog.Wire, body: wire(2, events[0], events[1], outside),
			status: http.StatusOK, accepted: 2, rejected: 1,
			errors: []doorError{{"frame 2 record 0: " + geoRefusal, "node n1: frame 1 record 2: " + geoRefusal}}},
		{name: "stray address bits", codec: mcelog.Wire, body: stray, status: http.StatusOK, accepted: 2, rejected: 1,
			errors: []doorError{{msg: "frame 1 record 1: " + strayMsg}}},
		{name: "corrupt second frame", codec: mcelog.Wire, body: corrupt, status: http.StatusBadRequest, accepted: 5, trunc: true,
			errors: []doorError{{msg: fmt.Sprintf("after frame 1: mcelog: malformed binary frame: payload checksum mismatch: computed %#x, stored %#x", computed, stored)}}},
		{name: "over the cap", codec: mcelog.JSONL, body: jsonl(padded...), status: http.StatusRequestEntityTooLarge, accepted: 32, trunc: true,
			errors: []doorError{{msg: "after line 32: " + tooLarge}}},
		{name: "over the cap", codec: mcelog.Wire, body: wire(10, events...), status: http.StatusRequestEntityTooLarge, accepted: 200, trunc: true,
			errors: []doorError{{msg: "after frame 20: mcelog: malformed binary frame: truncated payload: " + tooLarge}}},
		{name: "legacy CBF1", codec: mcelog.Wire, body: legacy, status: http.StatusOK, accepted: 4},
	}

	for _, b := range bodies {
		path := map[mcelog.Codec]string{mcelog.JSONL: "/v1/events", mcelog.Wire: "/v1/events.bin"}[b.codec]
		for _, door := range []struct {
			name, url string
			routed    bool
		}{{"serve", n1.http.URL, false}, {"router", rtSrv.URL, true}} {
			t.Run(fmt.Sprintf("%s %s/%s", door.name, path, b.name), func(t *testing.T) {
				want := stream.IngestResult{Accepted: b.accepted, Rejected: b.rejected, Truncated: b.trunc, Epoch: 1}
				for _, e := range b.errors {
					msg := e.msg
					if door.routed && e.routed != "" {
						msg = e.routed
					}
					want.Errors = append(want.Errors, msg)
				}
				status, got := postBody(t, door.url+path, "application/octet-stream", bytes.NewBuffer(b.body))
				if status != b.status || !reflect.DeepEqual(got, want) {
					t.Fatalf("answered %d %+v\nwant %d %+v", status, got, b.status, want)
				}
			})
		}
	}
}
