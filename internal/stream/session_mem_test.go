package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
)

// quietFleet is the population a fleet engine mostly holds: banks that log
// seven CEs over five rows and never a UER. Events come back in time order.
func quietFleet(banks int) []mcelog.Event {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	rows := [7]int{0, 3, 0, 9, 3, 17, 24}
	evs := make([]mcelog.Event, 0, banks*len(rows))
	for j, r := range rows {
		for i := 0; i < banks; i++ {
			bank := hbm.BankAddress{Node: uint32(i % 64), NPU: uint8(i / 64 % 8), HBM: uint8(i / 512 % 4), Channel: uint8(i / 2048 % 8), BankGroup: uint8(i / 16384 % 4)}
			evs = append(evs, mcelog.Event{
				Time:  base.Add(time.Duration(j)*time.Hour + time.Duration(i)*time.Millisecond),
				Addr:  hbm.CellInBank(bank, 100+i%1000+r, 0),
				Class: ecc.ClassCE,
				Bits:  mcelog.MakeErrBits(1<<(j%8), 1),
			})
		}
	}
	return evs
}

// unfittedCordial is the Cordial strategy over an unfitted pipeline: enough
// for CE-only banks and a bank's first UER, neither of which reaches a model.
func unfittedCordial(t testing.TB) *core.CordialStrategy {
	pipe, err := core.New(core.DefaultConfig(core.RandomForest))
	if err != nil {
		t.Fatal(err)
	}
	return &core.CordialStrategy{Pipeline: pipe, Geometry: hbm.DefaultGeometry}
}

// ingestChunks feeds evs to e 1 024 at a time and drains it.
func ingestChunks(t testing.TB, e *Engine, evs []mcelog.Event) {
	t.Helper()
	for i := 0; i < len(evs); i += 1024 {
		if _, _, err := e.IngestBatch(evs[i:min(i+1024, len(evs))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// perBankCost runs fn and returns the heap it left behind and the mallocs it
// made, per bank.
func perBankCost(banks int, fn func()) (heap, mallocs float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(banks), float64(after.Mallocs-before.Mallocs) / float64(banks)
}

// TestSessionHeapPerBank is the engine-level bytes-per-bank gate: the whole
// per-bank cost of a quiet bank with seven CEs under the default Cordial
// strategy — its index entry, its slot and its seven nodes in the shard's
// store (TestStoreLayout pins the slot at 24 B and the node at 16), with every
// chunk's and the index's slack counted in — stays under 160 B and a tenth of
// an allocation. So it does for a bank born while a shadow evaluation runs on
// a Cordial candidate: it is born stored too, and its twin waits for its
// promotion (such a bank held 628 B and cost 6.03 mallocs while core sessions
// kept a lazy log of their own, born in the heap form with a twin).
func TestSessionHeapPerBank(t *testing.T) {
	// Two run sets of three inline runs each, in the slot itself: 200 B. Every
	// hot_banks bank but one of 1 023 holds one UER run and one spared run;
	// fleet_mem's 200 promoted banks hold up to 20 spared runs (median 3) and
	// up to 47 UER runs (median 6), which spill to one heap slice of eight.
	// Three inline runs hold the median spared set: with one (168 B) every
	// other spared set spilled and fleet_mem's bytes per event stayed flat. A
	// row table in a slice of its own made it 112 B.
	if got := unsafe.Sizeof(bankSession{}); got > 200 {
		t.Errorf("bankSession is %d bytes, want ≤ 200", got)
	}
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes and counts")
	}
	const banks = 20000
	evs := quietFleet(banks)
	for _, shadow := range []bool{false, true} {
		t.Run(map[bool]string{false: "live", true: "under-a-shadow"}[shadow], func(t *testing.T) {
			fm := newFakeModels(1, 2)
			fm.versions[1], fm.versions[2] = unfittedCordial(t), unfittedCordial(t)
			e := newTestEngine(t, Config{Models: fm, Shards: 2})
			defer e.Close()
			if shadow {
				if err := e.StartShadow(2); err != nil {
					t.Fatal(err)
				}
			}
			heap, mallocs := perBankCost(banks, func() { ingestChunks(t, e, evs) })
			if got := e.Stats().SessionsLive; got != banks {
				t.Fatalf("%d sessions, want %d", got, banks)
			}
			t.Logf("%.0f B and %.2f mallocs per tracked bank", heap, mallocs)
			if heap > 160 {
				t.Errorf("a quiet bank holds %.0f B of heap, want ≤ 160", heap)
			}
			if mallocs > 0.1 {
				t.Errorf("a quiet bank cost %.2f mallocs, want ≤ 0.1", mallocs)
			}
			if st := e.Stats(); st.SessionsQuiet != banks {
				t.Errorf("%d of %d CE-only sessions are quiet", st.SessionsQuiet, banks)
			}
			if ss := e.ShadowStats(); shadow && (ss.Banks != banks || ss.Events != uint64(len(evs))) {
				t.Errorf("the shadow counted %d banks and %d events, want %d and %d", ss.Banks, ss.Events, banks, len(evs))
			}
		})
	}
	runtime.KeepAlive(evs)
}

// restoredSessionHistory is a bank that is quiet (CEs only) while its
// session is snapshotted or handed off, and only afterwards fails: three
// UERs at distinct rows (the third classifies it and predicts), a repeat, a
// fourth distinct UER (a second prediction overlapping the first) and a CE.
func restoredSessionHistory(bank hbm.BankAddress) (quiet, failing []mcelog.Event) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(min, row int, class ecc.Class) mcelog.Event {
		return mcelog.Event{Time: base.Add(time.Duration(min) * time.Minute), Addr: hbm.CellInBank(bank, row, 0), Class: class}
	}
	// The last quiet event arrives late (its timestamp precedes its
	// predecessor's): the engine folds events as they come, and a snapshot of
	// the bank must not mind.
	quiet = []mcelog.Event{at(0, 4000, ecc.ClassCE), at(7, 4003, ecc.ClassCE), at(7, 4000, ecc.ClassCE), at(90, 4010, ecc.ClassCE), at(30, 4003, ecc.ClassCE)}
	failing = []mcelog.Event{
		at(200, 4001, ecc.ClassUER), at(210, 4002, ecc.ClassUER), at(220, 4004, ecc.ClassUER),
		at(225, 4004, ecc.ClassUER), at(230, 4005, ecc.ClassUER), at(240, 4006, ecc.ClassCE),
	}
	return quiet, failing
}

// feedAndClose ingests evs, closes the engine and returns every action it
// emitted over its life plus the bank's final stats.
func feedAndClose(t *testing.T, e *Engine, bank hbm.BankAddress, evs []mcelog.Event) ([]Action, SessionStats) {
	t.Helper()
	feed(t, e, evs...)
	st, ok := e.Session(bank)
	if !ok {
		t.Fatalf("no session for bank %v", bank)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return drainActions(e), st
}

// v1Images makes a Cordial strategy write version-1 session images, as a
// node that predates quiet sessions does: every unclassified session, however
// quiet, as a full feature state.
type v1Images struct{ heapOnly }

func (s v1Images) NewSession(bank hbm.BankAddress) core.Session {
	return v1Session{s.Strategy.NewSession(bank)}
}

// heapOnly serves a strategy as a plain core.Strategy, without its
// ResumeSession: what a strategy that makes no quiet promise looks like to the
// engine, which then holds every bank in the heap form from birth.
type heapOnly struct{ core.Strategy }

type v1Session struct{ core.Session }

func (s v1Session) EncodeState() ([]byte, error) {
	blob, err := s.Session.EncodeState()
	if err == nil {
		blob[4] = 1 // a session image's version byte; versions 1 and 2 spell a state alike
	}
	return blob, err
}

// TestRestoredQuietSessionThenFails: a CE-only bank owns no row sets and,
// under Cordial, no session — only its observations in the store — and a
// snapshot or handoff image of it restores to one that owns none either. The first
// UER and the first sparing decision after the restore must then build them
// exactly as a session that never left memory does — same actions, same
// rows, same stats. (With maps, writing to the restored nil set is one bug
// this catches; a promotion that replays a restored log wrongly is another.)
// A version-1 image of the same bank, which carries a full state, must load
// too and fail the same way.
func TestRestoredQuietSessionThenFails(t *testing.T) {
	strategies := map[string]core.Strategy{"fake": &fakeStrategy{budget: 3}}
	if !testing.Short() {
		pipe, err := trainedPipeline()
		if err != nil {
			t.Fatal(err)
		}
		strategies["cordial"] = &core.CordialStrategy{Pipeline: pipe, Geometry: hbm.DefaultGeometry}
	}
	bank := testBank(1) // odd bank index: the fake strategy row-spares it
	quiet, failing := restoredSessionHistory(bank)
	for name, strategy := range strategies {
		ref := newTestEngine(t, Config{Strategy: strategy, Shards: 2})
		wantActions, wantStats := feedAndClose(t, ref, bank, append(append([]mcelog.Event(nil), quiet...), failing...))
		if name == "fake" && len(wantActions) != 2 {
			t.Fatalf("reference emitted %d actions, want the two row-spares", len(wantActions))
		}
		check := func(t *testing.T, e *Engine, wantDeferred bool) {
			t.Helper()
			if st, ok := e.Session(bank); !ok || st.Events != len(quiet) || st.DistinctUERRows != 0 || st.StateDeferred != wantDeferred {
				t.Fatalf("restored quiet session: %+v (found %t)", st, ok)
			}
			if es := e.Stats(); (es.SessionsQuiet == 1) != wantDeferred {
				t.Fatalf("%d quiet sessions after the restore, deferred=%t", es.SessionsQuiet, wantDeferred)
			}
			gotActions, gotStats := feedAndClose(t, e, bank, failing)
			if diff := diffActions(actionKeys(nil, gotActions), actionKeys(nil, wantActions)); diff != "" {
				t.Error(diff)
			}
			if len(gotActions) != len(wantActions) {
				t.Errorf("%d actions, want %d", len(gotActions), len(wantActions))
			}
			gotStats.StateBytes, wantStats.StateBytes = 0, 0 // table capacities differ after a restore
			if gotStats != wantStats {
				t.Errorf("stats diverged:\n got %+v\nwant %+v", gotStats, wantStats)
			}
		}

		t.Run(name+"/snapshot-restore", func(t *testing.T) {
			dir := t.TempDir()
			src := newTestEngine(t, durCfg(dir, 2, strategy))
			feed(t, src, quiet...)
			if _, err := src.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if err := src.Close(); err != nil {
				t.Fatal(err)
			}
			reborn := newTestEngine(t, durCfg(dir, 3, strategy))
			check(t, reborn, name == "cordial")
		})

		t.Run(name+"/handoff-import", func(t *testing.T) {
			src := newTestEngine(t, Config{Strategy: strategy, Shards: 2})
			defer src.Close()
			feed(t, src, quiet...)
			payload, err := src.ExportSessions(nil)
			if err != nil {
				t.Fatal(err)
			}
			dst := newTestEngine(t, Config{Strategy: strategy, Shards: 3})
			if st, err := dst.ImportSessions(payload, nil, nil); err != nil || st.Sessions != 1 {
				t.Fatalf("import: %+v, %v", st, err)
			}
			check(t, dst, name == "cordial")
		})

		if _, ok := strategy.(*core.CordialStrategy); ok {
			// The payloads a node at the commit before core sessions became
			// eager exported of the bank: its heap-form session's quiet image,
			// and a version-1 image of the same history.
			text, err := os.ReadFile(filepath.Join("testdata", "parent_session_images.hex"))
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Fields(string(text)) {
				t.Run(name+"/"+[]string{"parent-quiet-image", "parent-v1-image"}[i], func(t *testing.T) {
					payload, err := hex.DecodeString(line)
					if err != nil {
						t.Fatal(err)
					}
					dst := newTestEngine(t, Config{Strategy: strategy, Shards: 3})
					if st, err := dst.ImportSessions(payload, nil, nil); err != nil || st.Sessions != 1 {
						t.Fatalf("import: %+v, %v", st, err)
					}
					check(t, dst, i == 0)
				})
			}
		}
		if cordial, ok := strategy.(*core.CordialStrategy); ok {
			t.Run(name+"/v1-image-import", func(t *testing.T) {
				src := newTestEngine(t, Config{Strategy: v1Images{heapOnly{cordial}}, Shards: 2})
				defer src.Close()
				feed(t, src, quiet...)
				payload, err := src.ExportSessions(nil)
				if err != nil {
					t.Fatal(err)
				}
				dst := newTestEngine(t, Config{Strategy: strategy, Shards: 3})
				if st, err := dst.ImportSessions(payload, nil, nil); err != nil || st.Sessions != 1 {
					t.Fatalf("import: %+v, %v", st, err)
				}
				check(t, dst, false)
			})
		}
	}
}

// TestSnapshotRejectsUnsortedRowSets: the session row sets are binary
// searched, so an image whose lists are not strictly ascending 32-bit rows
// must fail to decode rather than load as a set that cannot find its members.
func TestSnapshotRejectsUnsortedRowSets(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 1})
	bank := testBank(1)
	for i, row := range []int{60001, 60002, 60003} {
		if err := e.Ingest(uerAt(bank, row, i)); err != nil {
			t.Fatal(err)
		}
	}
	feed(t, e)
	payload, _, err := e.encodeSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if _, images, err := decodeSnapshotSessions(payload); err != nil || len(images) != 1 {
		t.Fatalf("pristine payload: %d images, %v", len(images), err)
	}
	le64 := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	for name, to := range map[string]uint64{"duplicate": 60001, "descending": 59999, "beyond 32 bits": 1 << 40} {
		// 60002 first appears as the middle member of the UER row set.
		i := bytes.Index(payload, le64(60002))
		bad := append(append(append([]byte(nil), payload[:i]...), le64(to)...), payload[i+8:]...)
		if _, _, err := decodeSnapshotSessions(bad); err == nil {
			t.Errorf("%s row accepted", name)
		}
	}
}
