package stream

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"cordial/internal/bincodec"
	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/features"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/trace"
	"cordial/internal/xrand"
)

// TestNodeWordRoundTrip: a node gives back exactly the observation and the
// reference it was made of, at the edges of every field — each registered
// profile's largest row, all 256 class bytes (an unknown one folds to
// ClassNone as ObsOf folds it), each of the 16 error bits alone and all
// together, and the largest reference — and setNext moves the reference alone.
func TestNodeWordRoundTrip(t *testing.T) {
	rows := []int32{0, 1, maxNodeRow}
	for _, name := range hbm.ProfileNames() {
		p, err := hbm.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		_, width := p.Layout.RowField()
		if width > nodeRowBits {
			t.Errorf("profile %s: a %d-bit row field does not fit a node's %d bits", name, width, nodeRowBits)
		}
		rows = append(rows, int32(p.Geometry.RowsPerBank-1), int32(1<<width-1))
	}
	bitsSet := []mcelog.ErrBits{0, 0xffff}
	for b := 0; b < 16; b++ {
		bitsSet = append(bitsSet, mcelog.ErrBits(1)<<b)
	}
	times := []int64{bincodec.UnsetTime, 0, 1, time.Date(2199, 12, 31, 23, 59, 59, 999999999, time.UTC).UnixNano(), -1}
	refs := []uint32{0, 1, chunkLen, maxNodeRef}
	for _, row := range rows {
		for c := 0; c <= 0xff; c++ {
			class := ecc.Class(c)
			for _, bits := range bitsSet {
				for _, ts := range times {
					o := features.MakeObs(ts, row, class, bits)
					if class > ecc.ClassUER && o != features.MakeObs(ts, row, ecc.ClassNone, bits) {
						t.Fatalf("class %d does not fold like ClassNone", c)
					}
					if !nodeHolds(o) {
						t.Fatalf("row %d does not fit a node", row)
					}
					for _, ref := range refs {
						n := nodeOf(o, ref)
						if got := n.obs(); got != o || n.next() != ref {
							t.Fatalf("node of (%+v, %d) reads back (%+v, %d)", o, ref, got, n.next())
						}
						for _, to := range refs {
							m := n
							m.setNext(to)
							if m.obs() != o || m.next() != to {
								t.Fatalf("setNext(%d) on (%+v, %d) reads back (%+v, %d)", to, o, ref, m.obs(), m.next())
							}
						}
					}
				}
			}
		}
	}
	for _, row := range []int32{maxNodeRow + 1, -1} {
		if nodeHolds(features.MakeObs(0, row, ecc.ClassCE, 0)) {
			t.Errorf("a node claims to hold row %d", row)
		}
	}
}

// fleetEvents is a fleet-shaped stream: mostly CE-only banks with a few events
// each and some failing banks, time-sorted.
func fleetEvents(t *testing.T, seed uint64) []mcelog.Event {
	t.Helper()
	spec := trace.DefaultSpec(hbm.DefaultGeometry)
	spec.UERBanks = 30
	spec.BenignBanks = 300
	spec.Seed = seed
	fleet, err := trace.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	fleet.Log().Sort()
	return fleet.Log().Events()
}

// runFleet feeds evs to a fresh engine over strategy in two halves, calling
// between after the first, and returns its per-bank action sequences (keyed by
// the bank's address, which no layout changes), its sessions by bank and the
// engine itself, closed.
func runFleet(t *testing.T, strategy core.Strategy, evs []mcelog.Event, between func(*Engine)) (map[string][]string, map[string]SessionStats, *Engine) {
	t.Helper()
	e := newTestEngine(t, Config{Strategy: strategy, Shards: 3, ActionBuffer: 1 << 16})
	half := len(evs) / 2
	for i, part := range [][]mcelog.Event{evs[:half], evs[half:]} {
		if i == 1 && between != nil {
			between(e)
		}
		if _, _, err := e.IngestBatch(part); err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(30 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	sessions := make(map[string]SessionStats)
	for _, st := range e.Sessions() {
		sessions[st.Bank.String()] = withoutFootprint(st)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return perBankActions(drainActions(e)), sessions, e
}

// formCount counts an engine's banks by store form.
func formCount(e *Engine) (stored, heap int) {
	for _, s := range e.shards {
		s.mu.Lock()
		s.store.each(func(sl *slot) {
			if sl.form() == slotStored {
				stored++
			} else {
				heap++
			}
		})
		s.mu.Unlock()
	}
	return stored, heap
}

// TestStoreLimitFallbacks: the two limits of the packed store are never
// crossed silently. New refuses a profile whose row field is wider than a
// node's (a synthetic 19-bit-row profile) and takes every registered one; a
// shard whose node references are exhausted promotes a stored bank instead of
// appending to it, and serves the same actions and sessions as the
// unconstrained engine over the same events.

func TestStoreLimitFallbacks(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a pipeline")
	}
	pipe, err := trainedPipeline() // trained under the default profile, before any other is active
	if err != nil {
		t.Fatal(err)
	}
	cordial := &core.CordialStrategy{Pipeline: pipe, Geometry: hbm.DefaultGeometry}
	evs := fleetEvents(t, 29)
	wantActs, wantSessions, ref := runFleet(t, cordial, evs, nil)
	if stored, _ := formCount(ref); stored == 0 || len(wantActs) == 0 {
		t.Fatalf("the reference stored %d banks and %d acted: not the coverage the test is for", stored, len(wantActs))
	}

	t.Run("wide-row-layout", func(t *testing.T) {
		g := hbm.DefaultGeometry
		g.RowsPerBank = 1 << 19
		wide, err := hbm.HBM2E.Derive("hbm2e-wide-rows", g)
		if err != nil {
			t.Fatal(err)
		}
		if _, width := wide.Layout.RowField(); width <= nodeRowBits {
			t.Fatalf("the derived layout's row field is %d bits", width)
		}
		if e, err := New(Config{Strategy: cordial, Profile: wide}); err == nil || !strings.Contains(err.Error(), "19-bit row field") {
			if e != nil {
				e.Close()
			}
			t.Errorf("New under a 19-bit row field: %v, want the refusal", err)
		}
		for _, name := range hbm.ProfileNames() { // hbm3's 17 bits is the widest
			p, _ := hbm.ProfileByName(name)
			newTestEngine(t, Config{Strategy: cordial, Profile: p}).Close()
		}
	})

	t.Run("node-references-exhausted", func(t *testing.T) {
		exhaust := func(e *Engine) {
			for _, s := range e.shards {
				s.mu.Lock()
				// Every reference handed out and none free: the nodes in use stay
				// where they are, but no append finds another.
				s.store.nodes.n, s.store.freeNode = maxNodeRef, 0
				s.mu.Unlock()
			}
		}
		acts, sessions, e := runFleet(t, cordial, evs, exhaust)
		if !reflect.DeepEqual(acts, wantActs) {
			t.Errorf("actions differ from the unconstrained engine's: %d banks acted, want %d", len(acts), len(wantActs))
		}
		if !reflect.DeepEqual(sessions, wantSessions) {
			t.Errorf("sessions differ from the unconstrained engine's")
		}
		// Banks that were stored at the exhaustion and logged again since have
		// promoted without a UER; the rest are still stored.
		promotedQuiet, stored := 0, 0
		for _, s := range e.shards {
			s.store.each(func(sl *slot) {
				if sl.form() == slotStored {
					stored++
				} else if bs := s.store.session(sl); bs.uerEvents == 0 && bs.events <= quietCap {
					promotedQuiet++
				}
			})
		}
		if promotedQuiet == 0 || stored == 0 {
			t.Errorf("%d quiet banks promoted by the exhausted store, %d still stored: not the coverage the test is for", promotedQuiet, stored)
		}
	})
}

// TestLiveActionEqualsReplayed: an event that reaches the engine with a
// non-UTC location or a monotonic clock reading yields the same action live
// as its journal record yields on crash replay — compared with ==, so the live
// action's time is its event's instant in UTC, exactly as the replayed one's.
func TestLiveActionEqualsReplayed(t *testing.T) {
	zone := time.FixedZone("UTC+5", 5*3600)
	wall := time.Date(2026, 3, 1, 12, 0, 0, 0, zone)
	mono := time.Now() // carries a monotonic reading
	var evs []mcelog.Event
	for i, bank := range []hbm.BankAddress{testBank(1), testBank(2), testBank(3), testBank(4)} {
		for row := 0; row < 4; row++ {
			at := wall.Add(time.Duration(10*i+row) * time.Minute)
			if i >= 2 {
				at = mono.Add(time.Duration(10*i+row) * time.Minute)
			}
			evs = append(evs, mcelog.Event{Time: at, Addr: hbm.CellInBank(bank, 100+row, 0), Class: ecc.ClassUER})
		}
	}
	type key struct {
		kind  string
		bank  hbm.BankAddress
		class string
		t     time.Time
		rows  string
	}
	perBank := func(acts []Action) map[hbm.BankAddress][]key {
		out := make(map[hbm.BankAddress][]key)
		for _, a := range acts {
			out[a.Bank] = append(out[a.Bank], key{a.Kind.String(), a.Bank, a.Class.String(), a.Time, fmt.Sprint(a.Rows)})
		}
		return out
	}

	dir := t.TempDir()
	live := newTestEngine(t, durCfg(dir, 2, nil))
	feed(t, live, evs...)
	live.Close() // no snapshot: the restart replays the whole journal
	want := drainActions(live)
	if len(want) != 6 { // a bank-spare for each even bank, two row-spares for each odd one
		t.Fatalf("%d live actions, want 6", len(want))
	}
	for _, a := range want {
		if a.Time.Location() != time.UTC || a.Time != a.Time.Round(0) {
			t.Errorf("live action time %v is not a UTC instant without a monotonic reading", a.Time)
		}
	}
	replay := newTestEngine(t, durCfg(dir, 3, nil))
	replay.Close()
	got := drainActions(replay)
	w, g := perBank(want), perBank(got)
	for bank, live := range w {
		if !slices.Equal(g[bank], live) { // key holds the time: == on time.Time
			t.Errorf("bank %v: replayed actions differ from the live ones:\n live   %v\n replay %v", bank, live, g[bank])
		}
	}
	if len(g) != len(w) {
		t.Errorf("%d banks acted on replay, %d live", len(g), len(w))
	}
}

// encodeImages re-encodes decoded session images into a snapshot payload.
func encodeImages(hdr snapshotHeader, images []sessionImage) []byte {
	out := &bincodec.Cursor{B: []byte(engineSnapMagic), What: snapWhat}
	out.B = append(out.B, engineSnapVersion)
	n := len(images)
	hdr.code(out, engineSnapVersion, &n)
	for i := range images {
		sc := &bincodec.Cursor{What: snapWhat}
		images[i].code(sc, engineSnapVersion)
		out.Bytes(&sc.B)
	}
	return out.B
}

// TestImageFirstEventMustBeOldest: a stored bank's first-event time is its
// oldest observation's, so a quiet image whose firstEvent says otherwise (a
// late event folded first, or an image this engine did not write) cannot be
// stored without changing it. It installs in the heap form — by restore and
// by import — as the session resumed from its log, with its stats intact, and
// re-encodes with that session's image in place of the quiet one.
func TestImageFirstEventMustBeOldest(t *testing.T) {
	cfg := Config{Strategy: unfittedCordial(t), Shards: 2}
	src := newTestEngine(t, cfg)
	if _, _, err := src.IngestBatch(quietFleet(3)); err != nil {
		t.Fatal(err)
	}
	feed(t, src)
	payload, _, err := src.encodeSnapshot(nil)
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	hdr, images, err := decodeSnapshotSessions(payload)
	if err != nil || len(images) != 3 {
		t.Fatalf("%d images, %v", len(images), err)
	}
	odd := &images[1]
	odd.firstEvent -= int64(time.Hour)
	crafted := encodeImages(hdr, images)
	oddBank := hbm.HBM2E.Layout.UnpackBank(odd.key)
	// It re-encodes as the crafted payload with the bank's quiet image replaced
	// by the image of a session fed its events: a has-state image, several
	// times the quiet image's size.
	sess := cfg.Strategy.NewSession(oddBank)
	for _, ev := range quietFleet(3) {
		if hbm.BankOf(ev.Addr) == oddBank {
			sess.OnEvent(ev)
		}
	}
	quietLen := len(odd.blob)
	if odd.blob, err = sess.EncodeState(); err != nil {
		t.Fatal(err)
	}
	want := encodeImages(hdr, images)
	t.Logf("the bank's image: %d B quiet, %d B re-encoded", quietLen, len(odd.blob))

	for name, restore := range map[string]func(*Engine) error{
		"restoreSnapshot": func(e *Engine) error { return e.restoreSnapshot(crafted) },
		"ImportSessions": func(e *Engine) error {
			_, err := e.ImportSessions(crafted, nil, nil)
			return err
		},
	} {
		dst := newTestEngine(t, cfg)
		if err := restore(dst); err != nil {
			t.Fatal(err)
		}
		if stored, heap := formCount(dst); stored != 2 || heap != 1 {
			t.Errorf("%s: %d stored and %d heap banks, want 2 and 1", name, stored, heap)
		}
		s := dst.shardFor(odd.key)
		if sl := s.store.find(odd.key); sl == nil || sl.form() != slotHeap {
			t.Errorf("%s: the bank whose first event is not its oldest is not in the heap form", name)
		}
		st, ok := dst.Session(oddBank)
		if !ok || st.FirstEvent.UnixNano() != odd.firstEvent || st.LastEvent.UnixNano() != odd.lastEvent ||
			st.Events != int(odd.events) || st.StateDeferred {
			t.Errorf("%s: %+v (found %t), the image says first %d, last %d, %d events", name, st, ok, odd.firstEvent, odd.lastEvent, odd.events)
		}
		if again, _, err := dst.encodeSnapshot(nil); err != nil || !bytes.Equal(again, want) {
			t.Errorf("%s: the engine re-encodes to %d bytes, want the crafted payload with the bank's eager image, %d bytes (%v)", name, len(again), len(want), err)
		}
		assertTotalsMatchRecount(t, name, dst)
		dst.Close()
	}
}

// TestRecordLayoutMatchesEvent: what the engine reads off a queued record
// without unpacking it — the bank key and a stored bank's observation — is
// what the event's own BankKey and ObsOf give, and the event a fold
// materialises is the ingested one at its UTC instant, under every registered
// profile, for every class byte a record can carry.
func TestRecordLayoutMatchesEvent(t *testing.T) {
	zone := time.FixedZone("UTC-1", -3600)
	for _, name := range hbm.ProfileNames() {
		p, err := hbm.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			l := newRecordLayout(p)
			r := xrand.New(5)
			g := p.Geometry
			for i := 0; i < 300; i++ {
				ev := mcelog.Event{
					Time:  time.Date(2026, 5, 1, 0, 0, i, 7, zone),
					Addr:  hbm.CellInBank(hbm.RandomBank(g, r), r.Intn(g.RowsPerBank), r.Intn(g.ColsPerBank)),
					Class: ecc.Class(i % 6),
					Bits:  mcelog.ErrBits(r.Intn(1 << 16)),
				}
				rec := mcelog.RecordOf(p, ev)
				if l.key(&rec) != p.Layout.BankKey(ev.Addr) || l.obs(&rec) != features.ObsOf(ev) {
					t.Fatalf("%s: %+v: key %#x obs %+v, the event's %#x and %+v", name, ev, l.key(&rec), l.obs(&rec), p.Layout.BankKey(ev.Addr), features.ObsOf(ev))
				}
				want := ev
				want.Time = ev.Time.UTC()
				if got := rec.Event(p); got != want {
					t.Fatalf("%s: record of %+v materialises as %+v", name, ev, got)
				}
			}
		}()
	}
}
