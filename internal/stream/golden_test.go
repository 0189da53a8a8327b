package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files under testdata from the current code")

// goldenSnapshotEvents is a small fleet that reaches every kind of session
// bookkeeping the snapshot carries: CE-only banks (empty row sets), a bank
// below its budget, a row-spared bank with repeat predictions, a spared
// bank, and a bank whose very first event poisons its session (zero
// LastEvent, degraded).
func goldenSnapshotEvents() []mcelog.Event {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(bank, row int, ms int, class ecc.Class) mcelog.Event {
		return mcelog.Event{
			Time:  base.Add(time.Duration(ms) * time.Millisecond),
			Addr:  hbm.CellInBank(testBank(bank), row, 0),
			Class: class,
		}
	}
	return []mcelog.Event{
		at(10, 700, 0, ecc.ClassCE),
		at(10, 703, 1500, ecc.ClassCE),
		at(11, 90, 1500, ecc.ClassCE),
		at(1, 40, 2000, ecc.ClassUER),
		at(1, 41, 2001, ecc.ClassCE),
		at(1, 44, 2500, ecc.ClassUER),
		at(3, 9000, 3000, ecc.ClassUER),
		at(3, 9004, 3100, ecc.ClassUER),
		at(3, 9002, 3200, ecc.ClassUER),
		at(3, 9003, 3300, ecc.ClassUER),
		at(3, 9002, 3400, ecc.ClassUER),
		at(3, 8990, 9999, ecc.ClassUEO),
		at(2, 5, 4000, ecc.ClassUER),
		at(2, 6, 4001, ecc.ClassUER),
		at(2, 7, 4002, ecc.ClassUER),
		at(2, 8, 4003, ecc.ClassCE),
		at(5, 666, 5000, ecc.ClassCE),
		at(5, 12, 5001, ecc.ClassCE),
	}
}

// TestEngineSnapshotGolden pins the engine snapshot / handoff session layout
// byte for byte against a payload written before bankSession stopped storing
// a SessionStats and its row sets became lazily allocated sorted slices, and
// requires that payload to restore and re-encode unchanged.
func TestEngineSnapshotGolden(t *testing.T) {
	path := filepath.Join("testdata", "engine_snapshot.hex")
	strategy := &fakeStrategy{budget: 3, poisonRow: 666}
	e := newTestEngine(t, durCfg(t.TempDir(), 2, strategy))
	feed(t, e, goldenSnapshotEvents()...)
	got, _, err := e.encodeSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot payload differs from %s (%d vs %d bytes)", path, len(got), len(want))
	}

	fresh := newTestEngine(t, Config{Strategy: strategy, Shards: 3})
	defer fresh.Close()
	if err := fresh.restoreSnapshot(want); err != nil {
		t.Fatal(err)
	}
	again, _, err := fresh.encodeSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again[snapBodyOffset:], want[snapBodyOffset:]) {
		t.Fatal("restored golden snapshot re-encodes differently")
	}
}

// journalGoldenSHA256 is the SHA-256 of the one journal segment (638 bytes)
// the golden fleet leaves behind, generated at the commit before the four
// ingest functions became one: the single path must write the bytes the
// per-event and the batch path both wrote.
const journalGoldenSHA256 = "5318e973d504eb9fc7b6fd1c618038c5595545f155cedd51fdc38b858d6a40ff"

// TestJournalGolden pins the journal's bytes across the ingest rewrite, for
// both ingest shapes: one Ingest per event, and one IngestBatch.
func TestJournalGolden(t *testing.T) {
	for name, ingest := range map[string]func(*Engine) error{
		"Ingest": func(e *Engine) error {
			for _, ev := range goldenSnapshotEvents() {
				if err := e.Ingest(ev); err != nil {
					return err
				}
			}
			return nil
		},
		"IngestBatch": func(e *Engine) error {
			_, _, err := e.IngestBatch(goldenSnapshotEvents())
			return err
		},
	} {
		dir := t.TempDir()
		e := newTestEngine(t, durCfg(dir, 3, &fakeStrategy{budget: 3}))
		if err := ingest(e); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		seg, err := os.ReadFile(filepath.Join(dir, "wal-0000000000000001.seg"))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(seg)
		if got := hex.EncodeToString(sum[:]); got != journalGoldenSHA256 {
			t.Errorf("%s: journal segment (%d bytes) hashes to %s, want %s", name, len(seg), got, journalGoldenSHA256)
		}
	}
}
