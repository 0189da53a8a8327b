package stream

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cordial/internal/core"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/trace"
	"cordial/internal/wal"
)

// sessionStates captures every live bank's strategy-state image, keyed by
// bank key — the bit-identity oracle for handoff. It decodes an export, so a
// stored bank shows the image of the quiet session it stands for.
func sessionStates(t *testing.T, e *Engine) map[uint64][]byte {
	t.Helper()
	payload, err := e.ExportSessions(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, images, err := decodeSnapshotSessions(payload)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64][]byte)
	for _, im := range images {
		out[im.key] = im.blob
	}
	return out
}

// sessionStatsByKey snapshots every live session's stats, keyed by bank key.
func sessionStatsByKey(e *Engine) map[uint64]SessionStats {
	out := make(map[uint64]SessionStats)
	for _, st := range e.Sessions() {
		out[st.Bank.BankKey()] = st
	}
	return out
}

// TestHandoffPortabilityAcrossShardCounts is the snapshot+WAL-suffix
// portability gate: a source engine's persisted state (its last snapshot
// plus the journal suffix — exactly what a dead-node takeover reads off
// disk) imported into a fresh engine with a DIFFERENT shard count must
// reproduce every bank's strategy state bit-for-bit. It extends the PR 4
// crash≡no-crash suite across the transfer path: shard count is a local
// layout choice, so portable state must be invariant to it.
func TestHandoffPortabilityAcrossShardCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a pipeline")
	}
	pipe, err := trainedPipeline()
	if err != nil {
		t.Fatal(err)
	}
	strategy := &core.CordialStrategy{Pipeline: pipe, Geometry: hbm.DefaultGeometry}

	spec := trace.DefaultSpec(hbm.DefaultGeometry)
	spec.UERBanks = 10
	spec.BenignBanks = 8
	spec.Seed = 31
	fleet, err := trace.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	fleet.Log().Sort()
	evs := make([]mcelog.Event, fleet.Log().Len())
	for i := range evs {
		evs[i] = fleet.Log().At(i)
	}

	// Source: 4 shards, snapshot mid-stream so the journal suffix carries
	// real work (the import path must replay, not just decode).
	srcDir := t.TempDir()
	src, err := New(durCfg(srcDir, 4, strategy))
	if err != nil {
		t.Fatal(err)
	}
	half := len(evs) / 2
	for _, ev := range evs[:half] {
		if err := src.Ingest(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs[half:] {
		if err := src.Ingest(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	wantStates := sessionStates(t, src)
	wantStats := sessionStatsByKey(src)
	if len(wantStates) == 0 {
		t.Fatal("source engine has no sessions")
	}
	if err := src.Close(); err != nil { // the "node dies" moment
		t.Fatal(err)
	}

	// Takeover read: newest snapshot + full journal export off the dead
	// node's directory — per-session watermarks deduplicate the overlap.
	_, payload, err := wal.LoadLatestSnapshot(nil, srcDir)
	if err != nil {
		t.Fatal(err)
	}
	suffix, err := wal.ReadJournal(nil, srcDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(suffix) == 0 {
		t.Fatal("no journal suffix to replay — the test lost its point")
	}

	// Importer: 7 shards, its own durability directory.
	dst, err := New(durCfg(t.TempDir(), 7, strategy))
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	st, err := dst.ImportSessions(payload, suffix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Conflicts != 0 || st.Quarantined != 0 {
		t.Fatalf("import stats %+v: want no conflicts or quarantines", st)
	}
	if st.Sessions != len(wantStates) {
		t.Fatalf("imported %d sessions, want %d", st.Sessions, len(wantStates))
	}
	if st.Replayed == 0 {
		t.Fatal("import replayed nothing; suffix path untested")
	}

	gotStates := sessionStates(t, dst)
	for key, want := range wantStates {
		got, ok := gotStates[key]
		if !ok {
			t.Errorf("bank %#x missing after import", key)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("bank %#x strategy state differs after handoff (%d vs %d bytes)", key, len(got), len(want))
		}
	}
	if len(gotStates) != len(wantStates) {
		t.Errorf("importer has %d sessions, want %d", len(gotStates), len(wantStates))
	}
	gotStats := sessionStatsByKey(dst)
	for key, want := range wantStats {
		got := gotStats[key]
		if got.Events != want.Events || got.UEREvents != want.UEREvents ||
			got.DistinctUERRows != want.DistinctUERRows || got.Classified != want.Classified ||
			got.Class != want.Class || got.BankSpared != want.BankSpared ||
			got.RowsIsolated != want.RowsIsolated {
			t.Errorf("bank %#x stats diverged:\n got %+v\nwant %+v", key, got, want)
		}
	}

	// The importer snapshotted on import; a restart over its directory must
	// come back with the same state (import-before-ack durability).
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	reborn, err := New(durCfg(dst.cfg.Durability.Dir, 3, strategy))
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	rebornStates := sessionStates(t, reborn)
	if len(rebornStates) != len(wantStates) {
		t.Fatalf("reborn importer has %d sessions, want %d", len(rebornStates), len(wantStates))
	}
	for key, want := range wantStates {
		if !bytes.Equal(rebornStates[key], want) {
			t.Errorf("bank %#x state lost across importer restart", key)
		}
	}
}

// TestHandoffFilteredExportImport covers the live-rebalance shape: the
// source exports only the banks that move, the importer adopts only the
// banks it owns, and re-importing the same payload is a counted no-op.
func TestHandoffFilteredExportImport(t *testing.T) {
	src := newTestEngine(t, Config{Strategy: &fakeStrategy{budget: 3}, Shards: 2})
	defer src.Close()
	moved, kept := testBank(2), testBank(4)
	for i, bank := range []hbm.BankAddress{moved, kept} {
		for row := 1; row <= 4; row++ {
			if err := src.Ingest(uerAt(bank, row, i*10+row)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := src.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	movedKey := moved.BankKey()
	payload, err := src.ExportSessions(func(key uint64) bool { return key == movedKey })
	if err != nil {
		t.Fatal(err)
	}

	dst := newTestEngine(t, Config{Strategy: &fakeStrategy{budget: 3}, Shards: 3})
	defer dst.Close()
	st, err := dst.ImportSessions(payload, nil, func(key uint64) bool { return key == movedKey })
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 1 || st.Conflicts != 0 {
		t.Fatalf("import stats %+v, want exactly the moved session", st)
	}
	if _, ok := dst.Session(kept); ok {
		t.Error("importer adopted a bank outside the filter")
	}
	want := sessionStates(t, src)[movedKey]
	if got := sessionStates(t, dst)[movedKey]; !bytes.Equal(got, want) {
		t.Error("moved bank's state differs after filtered handoff")
	}

	// Double delivery (a control-plane retry) must be a counted no-op.
	st2, err := dst.ImportSessions(payload, nil, func(key uint64) bool { return key == movedKey })
	if err != nil {
		t.Fatal(err)
	}
	if st2.Sessions != 0 || st2.Conflicts != 1 {
		t.Fatalf("re-import stats %+v, want a pure conflict", st2)
	}
}

// TestHandoffSuffixCreatesUnseenSessions: a bank whose first error landed
// after the source's last snapshot exists only in the journal suffix; the
// importer must build its session from scratch and derive its actions.
func TestHandoffSuffixCreatesUnseenSessions(t *testing.T) {
	dst := newTestEngine(t, Config{Strategy: &fakeStrategy{budget: 3}, Shards: 2})
	defer dst.Close()

	bank := testBank(2) // even index: fake strategy bank-spares at budget
	var suffix []wal.Record
	for row := 1; row <= 4; row++ {
		ev := uerAt(bank, row, row)
		suffix = append(suffix, wal.Record{LSN: uint64(100 + row), Payload: mcelog.AppendWireRecord(nil, ev)})
	}
	// Empty-but-valid payload: a source that never snapshotted.
	empty, err := newTestEngine(t, Config{Strategy: &fakeStrategy{budget: 3}}).ExportSessions(nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dst.ImportSessions(empty, suffix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 1 || st.Replayed != 4 {
		t.Fatalf("import stats %+v, want one fresh session with 4 replayed events", st)
	}
	sess, ok := dst.Session(bank)
	if !ok {
		t.Fatal("suffix-only bank has no session")
	}
	if sess.Events != 4 || sess.UEREvents != 4 {
		t.Errorf("suffix-only session stats %+v", sess)
	}
	if st.Actions == 0 {
		t.Error("no actions re-derived from suffix replay")
	}
}

// TestHandoffSuffixQuarantine: a suffix event whose replay panics gets the
// live quarantine contract. The import counts it, the bank is installed
// degraded with its later events counted, the dead-letter file has the line,
// and the owning shard's cordial_events_quarantined_total moves on /metrics.
func TestHandoffSuffixQuarantine(t *testing.T) {
	dead := filepath.Join(t.TempDir(), "dead.jsonl")
	dst, srv := newTestServer(t, Config{Strategy: &fakeStrategy{budget: 3, poisonRow: 777}, Shards: 3, DeadLetterPath: dead})
	bank := testBank(3)
	var suffix []wal.Record
	for i, row := range []int{1, 777, 2, 3} {
		suffix = append(suffix, wal.Record{LSN: uint64(10 + i), Payload: mcelog.AppendWireRecord(nil, uerAt(bank, row, i))})
	}
	st, err := dst.ImportSessions(nil, suffix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Quarantined != 1 || st.Sessions != 1 || st.Actions != 0 {
		t.Fatalf("import stats %+v, want one quarantined event in one adopted session", st)
	}
	if sess, ok := dst.Session(bank); !ok || !sess.Degraded || sess.Events != 3 {
		t.Errorf("imported bank %+v (found %t), want degraded with three events counted", sess, ok)
	}
	text, err := os.ReadFile(dead)
	if err != nil || strings.Count(string(text), "\n") != 1 || !strings.Contains(string(text), "poisoned row 777") {
		t.Errorf("dead-letter file %q, %v", text, err)
	}
	if got := metricSum(t, scrapeMetrics(t, srv), "cordial_events_quarantined_total"); got != 1 {
		t.Errorf("cordial_events_quarantined_total = %v, want 1", got)
	}
}

// TestHandoffImportRejectsGarbage: payload and suffix corruption are hard
// errors, never partial adoption.
func TestHandoffImportRejectsGarbage(t *testing.T) {
	dst := newTestEngine(t, Config{Strategy: &fakeStrategy{budget: 3}})
	defer dst.Close()
	if _, err := dst.ImportSessions([]byte("junk-payload"), nil, nil); err == nil {
		t.Error("garbage payload accepted")
	}
	empty, err := dst.ExportSessions(func(uint64) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	// The suffix arrives from a peer as JSON with no checksum: a record must
	// be refused if no collector could have logged it, and one refused
	// record refuses the bundle, the good records before it included.
	good := mcelog.AppendWireRecord(nil, uerAt(testBank(2), 1, 1))
	poisoned := make([]byte, mcelog.WireRecordSize) // timestamp 0 …
	for i := 8; i < 16; i++ {
		poisoned[i] = 0xff // … address bits outside the layout, aliasing a real bank …
	}
	poisoned[16] = 9 // … and a class byte that is no ECC class
	preEpoch := mcelog.AppendWireRecord(nil, uerAt(testBank(2), 1, -60*365*24*3600))
	outOfGeometry := mcelog.AppendWireRecord(nil, uerAt(testBank(2), dst.Config().Geometry.RowsPerBank, 1))
	for name, rec := range map[string][]byte{
		"wrong length":                []byte("short"),
		"bad class and stray address": poisoned,
		"pre-epoch timestamp":         preEpoch,
		"row outside the geometry":    outOfGeometry,
	} {
		bad := []wal.Record{{LSN: 1, Payload: good}, {LSN: 2, Payload: rec}}
		if st, err := dst.ImportSessions(empty, bad, nil); err == nil {
			t.Errorf("%s: suffix record accepted: %+v", name, st)
		}
		if n := dst.Stats().SessionsLive; n != 0 {
			t.Errorf("%s: %d sessions adopted from garbage", name, n)
		}
	}
}

// TestHandoffReplayRespectsWatermarks: suffix records at or below a
// session's source watermark are already inside its snapshot image and
// must be skipped, or replay would double-apply them.
func TestHandoffReplayRespectsWatermarks(t *testing.T) {
	dir := t.TempDir()
	src, err := New(durCfg(dir, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	bank := testBank(3) // odd index: row-spare strategy, state keeps growing
	for row := 1; row <= 3; row++ {
		if err := src.Ingest(uerAt(bank, row, row)); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want := sessionStates(t, src)[bank.BankKey()]
	wantEvents := sessionStatsByKey(src)[bank.BankKey()].Events
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}

	_, payload, err := wal.LoadLatestSnapshot(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	// Full journal: every record here is below the snapshot watermark.
	suffix, err := wal.ReadJournal(nil, dir)
	if err != nil {
		t.Fatal(err)
	}

	dst := newTestEngine(t, Config{Strategy: &fakeStrategy{budget: 3}, Shards: 3})
	defer dst.Close()
	st, err := dst.ImportSessions(payload, suffix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed != 0 || st.Skipped != len(suffix) {
		t.Fatalf("import stats %+v: watermark should have skipped all %d records", st, len(suffix))
	}
	got := sessionStates(t, dst)[bank.BankKey()]
	if !bytes.Equal(got, want) {
		t.Error("watermark-covered replay changed session state")
	}
	if gotEvents := sessionStatsByKey(dst)[bank.BankKey()].Events; gotEvents != wantEvents {
		t.Errorf("events double-counted: %d, want %d", gotEvents, wantEvents)
	}
}

// TestDroppedBankStaysDropped: a durable engine that drops a bank restarts
// without it, though the bank's records are still in its journal and most of
// its three shards have seen none of them: the drop's snapshot is
// authoritative to its floor, and replay refuses a record at or below it of a
// bank the snapshot lacks. Another bank ingests all the while and comes back
// whole, whether its records landed before the drop, during it or after. The
// dropped bank's next event starts it afresh, and so it stays across another
// restart.
func TestDroppedBankStaysDropped(t *testing.T) {
	dir := t.TempDir()
	e, err := New(durCfg(dir, 3, nil))
	if err != nil {
		t.Fatal(err)
	}
	dropped, busy := testBank(3), testBank(5)
	for row := 1; row <= 4; row++ {
		if err := e.Ingest(uerAt(dropped, row, row)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	const busyEvents = 300
	ingested := make(chan error, 1)
	go func() {
		for i := 0; i < busyEvents; i++ {
			if err := e.Ingest(uerAt(busy, 1+i%7, i)); err != nil {
				ingested <- err
				return
			}
		}
		ingested <- nil
	}()
	if n, err := e.DropSessions(func(key uint64) bool { return key == dropped.BankKey() }); err != nil || n != 1 {
		t.Fatalf("dropped %d sessions, %v", n, err)
	}
	if err := <-ingested; err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		reborn, err := New(durCfg(dir, 3, nil))
		if err != nil {
			t.Fatal(err)
		}
		switch sess, ok := reborn.Session(dropped); {
		case i == 0 && ok:
			t.Fatalf("the dropped bank came back at restart with %d events", sess.Events)
		case i == 1 && (!ok || sess.Events != 1):
			t.Fatalf("the bank's next event did not start it afresh: %+v (found %t)", sess, ok)
		}
		if sess, ok := reborn.Session(busy); !ok || sess.Events != busyEvents {
			t.Fatalf("the other bank came back with %d of its %d events (found %t)", sess.Events, busyEvents, ok)
		}
		if i == 0 {
			if err := reborn.Ingest(uerAt(dropped, 9, 9)); err != nil {
				t.Fatal(err)
			}
		}
		if err := reborn.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBankMovesAwayAndBack: a bank handed from A to B and back to A — A
// restarted while the bank is away and again once it is back, each time with
// another shard count — ends with the state, stats and verdicts of one engine
// that saw its whole history. A's journal keeps the bank's first records
// throughout; the first restart must not bring the bank back from them, and
// the second must not fold them into the bank B handed back.
func TestBankMovesAwayAndBack(t *testing.T) {
	strategy := &fakeStrategy{budget: 3}
	moved, stays := testBank(3), testBank(5) // odd: row-spared at every UER past the budget
	key := moved.BankKey()
	isMoved := func(k uint64) bool { return k == key }
	uers := func(bank hbm.BankAddress, from, to int) []mcelog.Event {
		var evs []mcelog.Event
		for row := from; row <= to; row++ {
			evs = append(evs, uerAt(bank, row, row))
		}
		return evs
	}
	first := append(uers(moved, 1, 4), uers(stays, 1, 3)...)
	away := uers(moved, 5, 7)
	back := append(uers(moved, 8, 10), uers(stays, 4, 5)...)
	ingest := func(e *Engine, evs []mcelog.Event) {
		t.Helper()
		for _, ev := range evs {
			if err := e.Ingest(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Drain(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	var acts []Action
	closeEngine := func(e *Engine) {
		t.Helper()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		for _, a := range drainActions(e) {
			if a.Bank.BankKey() == key {
				acts = append(acts, a)
			}
		}
	}
	hand := func(from, to *Engine) {
		t.Helper()
		payload, err := from.ExportSessions(isMoved)
		if err != nil {
			t.Fatal(err)
		}
		if st, err := to.ImportSessions(payload, nil, isMoved); err != nil || st.Sessions != 1 {
			t.Fatalf("import: %+v, %v", st, err)
		}
		if n, err := from.DropSessions(isMoved); err != nil || n != 1 {
			t.Fatalf("dropped %d sessions, %v", n, err)
		}
	}

	ref := newTestEngine(t, Config{Strategy: strategy, Shards: 2})
	ingest(ref, append(append(append([]mcelog.Event(nil), first...), away...), back...))
	wantState, wantStats := sessionStates(t, ref)[key], sessionStatsByKey(ref)[key]
	closeEngine(ref)
	wantActs := actionKeys(nil, acts)
	acts = nil

	dir := t.TempDir()
	a, err := New(durCfg(dir, 2, strategy))
	if err != nil {
		t.Fatal(err)
	}
	b := newTestEngine(t, Config{Strategy: strategy, Shards: 3})
	defer b.Close()
	ingest(a, first)
	hand(a, b)
	closeEngine(a)
	if a, err = New(durCfg(dir, 3, strategy)); err != nil {
		t.Fatal(err)
	}
	if sess, ok := a.Session(moved); ok {
		t.Fatalf("the bank came back to A at restart with %d events", sess.Events)
	}
	ingest(b, away)
	hand(b, a)
	ingest(a, back)
	closeEngine(a)
	if a, err = New(durCfg(dir, 4, strategy)); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	if got := sessionStates(t, a)[key]; !bytes.Equal(got, wantState) {
		t.Errorf("the bank's state differs from the uninterrupted engine's")
	}
	if got := sessionStatsByKey(a)[key]; got.Events != wantStats.Events || got.UEREvents != wantStats.UEREvents ||
		got.DistinctUERRows != wantStats.DistinctUERRows || got.Classified != wantStats.Classified ||
		got.Class != wantStats.Class || got.RowsIsolated != wantStats.RowsIsolated || got.Actions != wantStats.Actions {
		t.Errorf("the bank's stats diverged:\n got %+v\nwant %+v", got, wantStats)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	for _, act := range drainActions(b) {
		if act.Bank.BankKey() == key {
			acts = append(acts, act)
		}
	}
	if diff := diffActions(actionKeys(nil, acts), wantActs); diff != "" {
		t.Error(diff)
	}
}
