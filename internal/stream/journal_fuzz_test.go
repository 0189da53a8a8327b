package stream

import (
	"bytes"
	"testing"

	"cordial/internal/hbm"
	"cordial/internal/mcelog"
)

// FuzzDecodeJournalRecord feeds decodeJournalRecord — the one reader of
// journal bytes and of the record suffix a peer hands over, which arrives
// with no checksum — arbitrary bytes. It must never panic; an event it accepts
// re-encodes to the same 19 bytes and a swap it accepts to the same 12; and
// nothing else is accepted: not 12 bytes without the swap magic, not a record
// of any other length. Seeded with TestJournalGolden's records and a swap.
func FuzzDecodeJournalRecord(f *testing.F) {
	for _, ev := range goldenSnapshotEvents() {
		f.Add(mcelog.AppendWireRecord(nil, ev))
	}
	f.Add(encodeSwapRecord(2))
	f.Add([]byte("CSWQ\x02\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		rec, version, isSwap, err := decodeJournalRecord(hbm.HBM2E, p)
		if err != nil {
			return
		}
		switch {
		case isSwap:
			if len(p) != swapRecordSize || !bytes.Equal(encodeSwapRecord(version), p) {
				t.Fatalf("%x accepted as a swap to version %d", p, version)
			}
		case len(p) != mcelog.WireRecordSize:
			t.Fatalf("%d bytes accepted as an event record", len(p))
		default:
			// The record the engine queues, and the event a fold sees.
			if again := rec.Append(nil); !bytes.Equal(again, p) {
				t.Fatalf("accepted record re-encodes differently:\n in  %x\n out %x", p, again)
			}
			if again := mcelog.AppendWireRecord(nil, rec.Event(hbm.HBM2E)); !bytes.Equal(again, p) {
				t.Fatalf("accepted event re-encodes differently:\n in  %x\n out %x", p, again)
			}
		}
	})
}
