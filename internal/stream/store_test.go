package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"cordial/internal/bincodec"
	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/features"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/trace"
)

// logStrategy is the smallest core.QuietStrategy: a session is the log of the
// non-UER events it has seen, in order, plus the rows of its UERs. It decides
// nothing, so a test can read back exactly what the engine handed a session.
type logStrategy struct {
	// poisonAt, when set, makes ResumeSession panic on a log holding an
	// observation with that timestamp: a promotion that cannot resume.
	poisonAt time.Time
}

type logSession struct {
	strategy *logStrategy
	log      []features.Obs
	uerRows  []int32
}

func (s *logStrategy) Name() string { return "log" }

func (s *logStrategy) NewSession(hbm.BankAddress) core.Session { return &logSession{strategy: s} }

func (s *logStrategy) ResumeSession(_ hbm.BankAddress, log []features.Obs) core.Session {
	for _, o := range log {
		if !s.poisonAt.IsZero() && o.UnixNano() == s.poisonAt.UnixNano() {
			panic("cannot resume a poisoned log")
		}
	}
	return &logSession{strategy: s, log: slices.Clone(log)}
}

func (s *logSession) OnEvent(ev mcelog.Event) core.Decision {
	if ev.Class == ecc.ClassUER {
		s.uerRows = append(s.uerRows, int32(ev.Addr.Row))
	} else {
		s.log = append(s.log, features.ObsOf(ev))
	}
	return core.Decision{}
}

func (s *logSession) code(c *bincodec.Cursor) {
	features.CodeObs(c, &s.log, 1<<16)
	bincodec.Rows(c, &s.uerRows, false)
}

func (s *logSession) EncodeState() ([]byte, error) {
	c := &bincodec.Cursor{What: "log session"}
	s.code(c)
	return c.B, c.Err
}

func (s *logStrategy) RestoreSession(_ hbm.BankAddress, data []byte) (core.Session, error) {
	sess := &logSession{strategy: s}
	c := &bincodec.Cursor{B: data, Decode: true, What: "log session"}
	sess.code(c)
	return sess, c.Done()
}

// TestStoreLayout pins the two sizes the store's memory bill is made of and
// the size of a queue entry, and that none of them holds a Go pointer (the
// collector never scans a slot, a node or a shard's ring).
func TestStoreLayout(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 24 {
		t.Errorf("slot is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(obsNode{}); got != 16 {
		t.Errorf("obsNode is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(queued{}); got > 32 {
		t.Errorf("queued is %d bytes, want ≤ 32", got)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(slot{}), reflect.TypeOf(obsNode{}), reflect.TypeOf(queued{})} {
		var walk func(reflect.Type)
		walk = func(ft reflect.Type) {
			switch ft.Kind() {
			case reflect.Struct:
				for i := 0; i < ft.NumField(); i++ {
					walk(ft.Field(i).Type)
				}
			case reflect.Array:
				walk(ft.Elem())
			case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String, reflect.Interface, reflect.Chan, reflect.Func, reflect.UnsafePointer:
				t.Errorf("%v holds a %v", typ, ft)
			}
		}
		walk(typ)
	}
}

// refBank is the model of one bank: what it has logged, oldest first.
type refBank struct {
	log  []features.Obs
	uers int
}

// stored reports the form the engine must hold the bank in.
func (r *refBank) stored() bool { return r.uers == 0 && len(r.log) <= quietCap }

// checkStoreAgainst compares an engine, bank by bank and total by total, with
// the model: every lookup, every chain (oldest first, in the slot's nodes or
// in the session a promotion handed them to), the iteration, the totals and
// the store's own invariants.
func checkStoreAgainst(t *testing.T, when string, e *Engine, ref map[uint64]*refBank, gone []uint64) {
	t.Helper()
	keys := make([]uint64, 0, len(ref))
	var wantBytes int64
	for key, r := range ref {
		keys = append(keys, key)
		if r.stored() {
			wantBytes += int64(len(r.log) * nodeBytes)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	sessions := e.Sessions()
	if len(sessions) != len(keys) {
		t.Fatalf("%s: Sessions() lists %d banks, the model holds %d", when, len(sessions), len(keys))
	}
	for i, st := range sessions {
		r := ref[keys[i]]
		if st.Bank.BankKey() != keys[i] || st.Events != len(r.log)+r.uers || st.UEREvents != r.uers || st.StateDeferred != r.stored() {
			t.Fatalf("%s: bank %#x: %+v, the model has %d observations and %d UERs", when, keys[i], st, len(r.log), r.uers)
		}
		if got, ok := e.sessionByKey(keys[i]); !ok || got != st {
			t.Fatalf("%s: bank %#x: lookup (%t) %+v, iteration %+v", when, keys[i], ok, got, st)
		}
	}
	for _, key := range gone {
		if _, still := ref[key]; still {
			continue
		}
		if st, ok := e.sessionByKey(key); ok {
			t.Fatalf("%s: dropped bank %#x still found: %+v", when, key, st)
		}
	}
	nodes, banks := 0, 0
	for _, s := range e.shards {
		s.mu.Lock()
		st := &s.store
		banks += st.banks
		if st.banks > 0 && 2*st.banks > len(st.index) {
			t.Errorf("%s: index of %d entries holds %d banks", when, len(st.index), st.banks)
		}
		free := 0
		for ref := st.freeNode; ref != 0; ref = st.nodes.at(ref).next() {
			free++
		}
		nodes += int(st.nodes.n) - free
		st.each(func(sl *slot) {
			r := ref[sl.key]
			if r == nil {
				t.Fatalf("%s: store holds bank %#x, the model does not", when, sl.key)
			}
			var log []features.Obs
			if sl.form() == slotStored {
				log = st.log(sl, nil)
			} else {
				log = st.session(sl).sess.(*logSession).log
			}
			if (sl.form() == slotStored) != r.stored() || !slices.Equal(log, r.log) {
				t.Fatalf("%s: bank %#x (form %d): log of %d, the model's has %d (stored %t)", when, sl.key, sl.form(), len(log), len(r.log), r.stored())
			}
		})
		s.mu.Unlock()
	}
	if banks != len(ref) {
		t.Errorf("%s: stores count %d banks, the model %d", when, banks, len(ref))
	}
	if int64(nodes*nodeBytes) != wantBytes {
		t.Errorf("%s: %d nodes in use, the model's stored banks hold %d observations", when, nodes, wantBytes/int64(nodeBytes))
	}
	if got := e.Stats().FeatureStateBytes; got != wantBytes {
		t.Errorf("%s: FeatureStateBytes %d, the model's stored observations occupy %d", when, got, wantBytes)
	}
	assertTotalsMatchRecount(t, when, e)
}

// TestStoreModel drives seeded random insert / append / promote / drop /
// iterate / restore sequences through an engine and through a map of logs,
// and requires them to agree after every phase — across index growth,
// backward-shift deletion, free-list reuse of slots and nodes, chunk
// boundaries and the per-bank cap. A reader walks Sessions() and Session()
// throughout, which is what the -race leg in CI is for.
func TestStoreModel(t *testing.T) {
	const pool, steps = 5000, 40000
	rng := rand.New(rand.NewSource(23))
	strategy := &logStrategy{}
	newEngine := func() *Engine {
		e, err := New(Config{Strategy: strategy, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	var cur atomic.Pointer[Engine]
	e := newEngine()
	cur.Store(e)
	defer func() { cur.Load().Close() }()

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e := cur.Load()
			if i%1024 == 0 {
				e.Sessions()
			}
			e.Session(testBankN(i % pool))
		}
	}()
	defer reader.Wait()
	defer close(stop)

	ref := make(map[uint64]*refBank)
	var gone []uint64
	maxBanks, promotions := 0, make(map[ecc.Class]int) // by the class of the promoting event
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for step := 0; step < steps; step++ {
		bank := testBankN(rng.Intn(pool))
		if rng.Intn(10) == 0 {
			bank = testBankN(rng.Intn(8)) // a few hot banks reach the cap
		}
		key := bank.BankKey()
		switch op := rng.Intn(1000); {
		case op < 996: // an event: mostly CEs, now and then a bank's UER
			ev := mcelog.Event{
				Time:  base.Add(time.Duration(step) * time.Second),
				Addr:  hbm.CellInBank(bank, rng.Intn(4096), 0),
				Class: ecc.ClassCE,
				Bits:  mcelog.MakeErrBits(uint8(1+rng.Intn(255)), 1),
			}
			if rng.Intn(40) == 0 {
				ev.Class = ecc.ClassUER
			}
			if res := e.shardFor(key).lockedStep(stepEnv{epochs: e.epochList()}, []queued{{rec: mcelog.RecordOf(ev)}}); len(res.acts) != 0 || len(res.dead) != 0 {
				t.Fatalf("step %d: %d actions, dead letters %v", step, len(res.acts), res.dead)
			}
			r := ref[key]
			if r == nil {
				r = &refBank{}
				ref[key] = r
			}
			was := r.stored()
			if ev.Class == ecc.ClassUER {
				r.uers++
			} else {
				r.log = append(r.log, features.ObsOf(ev))
			}
			if was && !r.stored() {
				promotions[ev.Class]++
			}
			maxBanks = max(maxBanks, len(ref))
		case op < 999: // drop about an eighth of the banks
			salt := rng.Uint64()
			doomed := func(key uint64) bool { return mix64(key^salt)%8 == 0 }
			want := 0
			for key := range ref {
				if doomed(key) {
					want++
					delete(ref, key)
					gone = append(gone, key)
				}
			}
			if got, err := e.DropSessions(doomed); err != nil || got != want {
				t.Fatalf("step %d: dropped %d (%v), the model %d", step, got, err, want)
			}
		default: // restore: a fresh engine from this one's snapshot
			checkStoreAgainst(t, fmt.Sprintf("step %d, before a restore", step), e, ref, gone)
			payload, _, err := e.encodeSnapshot(nil)
			if err != nil {
				t.Fatal(err)
			}
			next := newEngine()
			if err := next.restoreSnapshot(payload); err != nil {
				t.Fatal(err)
			}
			again, _, err := next.encodeSnapshot(nil)
			if err != nil || !bytes.Equal(again, payload) {
				t.Fatalf("step %d: restored engine re-encodes differently (%v)", step, err)
			}
			cur.Store(next)
			e.Close()
			e = next
			checkStoreAgainst(t, fmt.Sprintf("step %d, after a restore", step), e, ref, gone)
			gone = gone[:0]
		}
	}
	checkStoreAgainst(t, "at the end", e, ref, gone)
	if maxBanks < 2*chunkLen || promotions[ecc.ClassUER] == 0 || promotions[ecc.ClassCE] == 0 {
		t.Errorf("the run peaked at %d banks and promoted %d at a UER, %d at the cap: not the coverage it is for",
			maxBanks, promotions[ecc.ClassUER], promotions[ecc.ClassCE])
	}
}

// testBankN is testBank over a space of 2^15 distinct banks.
func testBankN(i int) hbm.BankAddress {
	return hbm.BankAddress{Node: uint32(i % 64), NPU: uint8(i / 64 % 8), HBM: uint8(i / 512 % 4), Channel: uint8(i / 2048 % 8), BankGroup: uint8(i / 16384 % 4)}
}

// withoutFootprint is st without the fields that say how the bank's history
// is held — a stored bank's nodes or a session's feature state — which holding
// the same history another way changes.
func withoutFootprint(st SessionStats) SessionStats {
	st.StateBytes, st.StateRows, st.StateDeferred = 0, 0, false
	return st
}

// assertSameSessions requires two engines to hold the same banks with the same
// Sessions() apart from their footprints.
func assertSameSessions(t *testing.T, when string, got, want *Engine) {
	t.Helper()
	a, b := got.Sessions(), want.Sessions()
	if len(a) != len(b) {
		t.Fatalf("%s: %d sessions, want %d", when, len(a), len(b))
	}
	for i := range a {
		if withoutFootprint(a[i]) != withoutFootprint(b[i]) {
			t.Errorf("%s: sessions differ:\n got  %+v\n want %+v", when, a[i], b[i])
		}
	}
}

// quietStoreStream is TestQuietStoreEquivalence's stream, split in two halves.
// Beside a fleet-shaped stream (mostly CE-only banks with a few events each,
// some failing banks) it holds the restoredSessionHistory bank, a bank that
// logs CEs past the store's cap and then fails, the banks whose history ends
// right at a promotion boundary (quiet prefixes in the first half, failures in
// the second), and every scattered bank of the fleet fed a CE and a UER after
// its history.
func quietStoreStream(t *testing.T) (first, second []mcelog.Event) {
	t.Helper()
	spec := trace.DefaultSpec(hbm.DefaultGeometry)
	spec.UERBanks = 30
	spec.BenignBanks = 300
	spec.Seed = 23
	fleet, err := trace.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	fleet.Log().Sort()
	events := fleet.Log().Events() // a copy
	half := len(events) / 2
	first, second = events[:half:half], events[half:]
	quiet, failing := restoredSessionHistory(testBank(1))
	second = append(append(second, quiet...), failing...)
	capped := hbm.BankAddress{Node: 7, NPU: 7, HBM: 3, Channel: 7, BankGroup: 3, Bank: 3}
	last := events[len(events)-1].Time
	for i := 0; i < quietCap+6; i++ {
		second = append(second, mcelog.Event{Time: last.Add(time.Duration(i) * time.Minute), Addr: hbm.CellInBank(capped, 900+i%5, 0), Class: ecc.ClassCE})
	}
	for i := 0; i < 4; i++ {
		second = append(second, mcelog.Event{Time: last.Add(time.Duration(100+i) * time.Minute), Addr: hbm.CellInBank(capped, 901+i, 0), Class: ecc.ClassUER})
	}

	// ces is n CEs over a few rows, two per timestamp; failing is a burst of
	// UERs at distinct neighbouring rows, which classifies and predicts.
	n := 0
	edge := func(ces, failAt int, classes ...ecc.Class) {
		bank := hbm.BankAddress{Node: 127, NPU: uint8(n % 8), HBM: uint8(n / 8)}
		n++
		at := func(min, row int, class ecc.Class) mcelog.Event {
			return mcelog.Event{Time: last.Add(time.Duration(min) * time.Minute), Addr: hbm.CellInBank(bank, row, 0), Class: class, Bits: mcelog.MakeErrBits(uint8(1+row%7), 1)}
		}
		for i := 0; i < ces; i++ {
			first = append(first, at(i/2, 500+i%5*3, classes[0]))
		}
		for i := 0; failAt >= 0 && i < 5; i++ {
			second = append(second, at(failAt+i, 510+2*i, ecc.ClassUER), at(failAt+i, 511+2*i, ecc.ClassCE))
		}
	}
	edge(0, 0, ecc.ClassCE)    // first event a UER
	edge(30, 40, ecc.ClassCE)  // the UER is observation 31
	edge(31, 40, ecc.ClassCE)  // ... 32
	edge(32, 40, ecc.ClassCE)  // ... 33
	edge(100, 60, ecc.ClassCE) // a long quiet life
	edge(6, 2, ecc.ClassCE)    // the first UER ties the CEs: minute 2 holds CEs 4 and 5
	edge(40, -1, ecc.ClassUEO) // a UEO-only bank
	for _, bf := range fleet.Faults {
		if !bf.Class().IsAggregation() {
			end := bf.Events[len(bf.Events)-1].Time
			second = append(second,
				mcelog.Event{Time: end.Add(time.Hour), Addr: hbm.CellInBank(bf.Bank, 7, 0), Class: ecc.ClassCE},
				mcelog.Event{Time: end.Add(2 * time.Hour), Addr: hbm.CellInBank(bf.Bank, 9, 0), Class: ecc.ClassUER})
		}
	}
	return first, second
}

// quietStoreSnapshotSHA256 are the SHA-256s of the store engine's snapshot
// payloads in TestQuietStoreEquivalence, mid-stream and at the end, generated
// at the commit before core sessions became eager: which form holds a bank
// changes no byte a snapshot of the store holds.
var quietStoreSnapshotSHA256 = map[string]string{
	"mid-stream": "19c1038e439f55bd015cd0d7ff1f25c7df0a389333c0d38c2e5a314fdd5cb22d",
	"at the end": "69021a418da09f3119031cc2f0680251898dd004735eae7c190564db0f918fd1",
}

// TestQuietStoreEquivalence: quietStoreStream, through an engine under the
// Cordial strategy, which stores quiet banks, snapshots mid-stream and at the
// end to the payloads quietStoreSnapshotSHA256 pins. That the store changes
// no verdict is FuzzBankHistory's to hold.
func TestQuietStoreEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a pipeline")
	}
	pipe, err := trainedPipeline()
	if err != nil {
		t.Fatal(err)
	}
	first, second := quietStoreStream(t)
	e := newTestEngine(t, Config{Strategy: &core.CordialStrategy{Pipeline: pipe, Geometry: hbm.DefaultGeometry}, Shards: 3})
	defer e.Close()
	for _, half := range []struct {
		when string
		evs  []mcelog.Event
	}{{"mid-stream", first}, {"at the end", second}} {
		if _, _, err := e.IngestBatch(half.evs); err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		payload, _, err := e.encodeSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(payload); hex.EncodeToString(sum[:]) != quietStoreSnapshotSHA256[half.when] {
			t.Errorf("%s: the snapshot hashes to %x", half.when, sum)
		}
	}
}

// TestShadowOverStoredBanks: a bank born stored under a shadow evaluation,
// whose twin is resumed from its chain when it promotes, scores exactly as a
// bank born with both sessions. quietStoreStream's second half runs under two
// evaluations in turn — the second replacing the first, so banks born under
// the first get no twin from it — through the store engine and the heap-only
// one: identical ShadowStats for each evaluation, actions and Sessions().
func TestShadowOverStoredBanks(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a pipeline")
	}
	pipe, err := trainedPipeline()
	if err != nil {
		t.Fatal(err)
	}
	cordial := &core.CordialStrategy{Pipeline: pipe, Geometry: hbm.DefaultGeometry}
	first, second := quietStoreStream(t)
	third := len(second) / 3
	var engines [2]*Engine
	var stats [2][]ShadowStats
	for i, s := range []core.Strategy{cordial, heapOnly{cordial}} {
		fm := newFakeModels(1, 2)
		fm.versions[1], fm.versions[2] = s, s
		e := newTestEngine(t, Config{Models: fm, Shards: 3, ActionBuffer: 1 << 16})
		engines[i] = e
		ingestChunks(t, e, first)
		for _, part := range [][]mcelog.Event{second[:third], second[third:]} {
			if err := e.StartShadow(2); err != nil {
				t.Fatal(err)
			}
			ingestChunks(t, e, part)
			ss := e.ShadowStats()
			ss.Since = time.Time{}
			stats[i] = append(stats[i], ss)
		}
		e.StopShadow()
	}
	store, heap := engines[0], engines[1]
	if !reflect.DeepEqual(stats[0], stats[1]) {
		t.Errorf("shadow stats differ:\n store %+v\n heap  %+v", stats[0], stats[1])
	}
	if stats[0][1].Banks == 0 || stats[0][1].UEREvents == 0 || stats[0][1].Decisions == 0 {
		t.Errorf("the second evaluation scored too little to compare: %+v", stats[0][1])
	}
	if stored, _ := formCount(store); stored == 0 {
		t.Error("the store engine stores no bank")
	}
	assertSameSessions(t, "after the shadows", store, heap)
	store.Close()
	heap.Close()
	if got, want := perBankActions(drainActions(store)), perBankActions(drainActions(heap)); !reflect.DeepEqual(got, want) {
		t.Errorf("per-bank action sequences differ: %d banks acted with the store, %d without", len(got), len(want))
	}
}

// TestStoredBankKeepsItsVersion: a bank stored under version 1 is promoted
// under version 1 — by the strategy its slot pins, found in the shard's
// version table — after the active model has moved on to version 2.
func TestStoredBankKeepsItsVersion(t *testing.T) {
	fm := newFakeModels(1, 2)
	v1, v2 := &logStrategy{}, &logStrategy{}
	fm.versions[1], fm.versions[2] = v1, v2
	e, err := New(Config{Models: fm, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	old, young := testBank(1), testBank(2)
	ce := func(bank hbm.BankAddress, sec int) mcelog.Event {
		ev := uerAt(bank, 10+sec, sec)
		ev.Class = ecc.ClassCE
		return ev
	}
	ingest := func(evs ...mcelog.Event) {
		t.Helper()
		if _, _, err := e.IngestBatch(evs); err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	ingest(ce(old, 0), ce(old, 1))
	if _, err := e.SwapModel(2); err != nil {
		t.Fatal(err)
	}
	ingest(ce(old, 2), ce(young, 3), uerAt(old, 50, 4), uerAt(young, 50, 5))
	for bank, want := range map[hbm.BankAddress]*logStrategy{old: v1, young: v2} {
		s := e.shardFor(bank.BankKey())
		s.mu.Lock()
		sl := s.store.find(bank.BankKey())
		if sl == nil || sl.form() != slotHeap {
			t.Fatalf("bank %v not promoted: %+v", bank, sl)
		}
		sess := s.store.session(sl).sess.(*logSession)
		s.mu.Unlock()
		if sess.strategy != want {
			t.Errorf("bank %v promoted under the wrong version's strategy", bank)
		}
	}
	if st, _ := e.Session(old); st.ModelVersion != 1 || st.Events != 4 {
		t.Errorf("old bank: %+v", st)
	}
	if st, _ := e.Session(young); st.ModelVersion != 2 || st.Events != 2 {
		t.Errorf("young bank: %+v", st)
	}
	assertTotalsMatchRecount(t, "after both promotions", e)
}

// TestPromotionAllocs counts the mallocs of promoting a stored bank at its
// first UER under the Cordial strategy. A promotion collects the chain into
// the shard's reused buffer and the session resumed from it does not keep it:
// at the commit before, which handed the session a fresh log, it cost 11.
func TestPromotionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const banks = 2048
	e, _ := quietFleetEngine(t, banks)
	defer e.Close()
	uers := quietFleet(banks)[:banks] // one event of every bank
	for i := range uers {
		uers[i].Class, uers[i].Time = ecc.ClassUER, uers[i].Time.Add(24*time.Hour)
	}
	_, mallocs := perBankCost(banks, func() { ingestChunks(t, e, uers) })
	if stored, heap := formCount(e); stored != 0 || heap != banks {
		t.Fatalf("%d stored and %d heap banks after every bank's UER", stored, heap)
	}
	t.Logf("%.2f mallocs per promotion", mallocs)
	if math.Round(mallocs) > 10 {
		t.Errorf("a promotion costs %.2f mallocs, want ≤ 10", mallocs)
	}
}

// quietFleetSnapshotSHA256 is the SHA-256 of the snapshot payload (5 600 037
// bytes) of an engine holding quietFleet(20000), generated at the commit
// before the snapshot writer stopped building a session per stored bank.
const quietFleetSnapshotSHA256 = "fc8a2d0667fb0e414bd124fa88ec49bed5d69c73ffef6352d910bedc94a13a53"

// quietFleetEngine is an engine over unfittedCordial holding quietFleet(banks)
// in its stores, and its configuration.
func quietFleetEngine(t *testing.T, banks int) (*Engine, Config) {
	t.Helper()
	cfg := Config{Strategy: unfittedCordial(t), Shards: 2}
	e := newTestEngine(t, cfg)
	ingestChunks(t, e, quietFleet(banks))
	return e, cfg
}

// TestSnapshotQuietBanksAllocation: a snapshot of 20 000 quiet banks encodes
// each stored bank from its chain into the writer's one arena, building no
// session — at most 0.05 allocations per bank, all of them the arena's, the
// index's and the payload's growth — and writes the bytes the session-building
// writer wrote.
func TestSnapshotQuietBanksAllocation(t *testing.T) {
	const banks = 20000
	e, _ := quietFleetEngine(t, banks)
	defer e.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	payload, _, err := e.encodeSnapshot(nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perBank := float64(after.Mallocs-before.Mallocs) / banks
	t.Logf("%.4f mallocs per stored bank", perBank)
	if !raceEnabled && perBank > 0.05 {
		t.Errorf("%.3f mallocs per stored bank, want ≤ 0.05", perBank)
	}
	if sum := sha256.Sum256(payload); hex.EncodeToString(sum[:]) != quietFleetSnapshotSHA256 {
		t.Errorf("the snapshot payload (%d bytes) hashes to %x", len(payload), sum)
	}
}

// TestRestoreHeapBanksAllocation: restoring a snapshot of 4 096 promoted banks
// — seven CEs and a UER each, five rows in every feature state — builds each
// bank's session with its feature state decoded in place, one allocation that
// holds the state's rows too, plus the decoder's garbage: its section lists
// and the cross-checks it derives from the table. 13.0 mallocs per bank
// measured by either path, gated at 13.5; decoding into a state of its own and
// a row table of its own, then copying the state into the session, made 15.
// The restored engine's next snapshot is the one it booted from, byte for
// byte.
func TestRestoreHeapBanksAllocation(t *testing.T) {
	const banks = 4096
	src, cfg := quietFleetEngine(t, banks)
	uers := quietFleet(banks)[:banks] // one event of every bank
	for i := range uers {
		uers[i].Class, uers[i].Time = ecc.ClassUER, uers[i].Time.Add(24*time.Hour)
	}
	ingestChunks(t, src, uers)
	if stored, heap := formCount(src); stored != 0 || heap != banks {
		t.Fatalf("%d stored and %d heap banks after every bank's UER", stored, heap)
	}
	payload, _, err := src.encodeSnapshot(nil)
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	for name, restore := range map[string]func(*Engine) error{
		"restoreSnapshot": func(e *Engine) error { return e.restoreSnapshot(payload) },
		"ImportSessions": func(e *Engine) error {
			_, err := e.ImportSessions(payload, nil, nil)
			return err
		},
	} {
		dst, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := restore(dst); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perBank := float64(after.Mallocs-before.Mallocs) / banks
		t.Logf("%s: %.3f mallocs per restored bank", name, perBank)
		if !raceEnabled && perBank > 13.5 {
			t.Errorf("%s: %.2f mallocs per restored promoted bank, want ≤ 13.5", name, perBank)
		}
		if st := dst.Stats(); st.SessionsLive != banks || st.SessionsQuiet != 0 {
			t.Errorf("%s: %d sessions, %d quiet, want %d and none", name, st.SessionsLive, st.SessionsQuiet, banks)
		}
		again, _, err := dst.encodeSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, payload) {
			t.Errorf("%s: the restored engine's snapshot differs from the one it was given (%d vs %d bytes)", name, len(again), len(payload))
		}
		dst.Close()
	}
}

// TestRestoreQuietBanksAllocation: restoring a snapshot of 20 000 quiet banks
// places each bank in its shard's store without a session or a log of its
// own — at most 0.2 allocations per bank, all of them the decoder's and the
// store's chunks — and the restored engine's next snapshot is the one it
// booted from, byte for byte.
func TestRestoreQuietBanksAllocation(t *testing.T) {
	const banks = 20000
	src, cfg := quietFleetEngine(t, banks)
	payload, _, err := src.encodeSnapshot(nil)
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	for name, restore := range map[string]func(*Engine) error{
		"restoreSnapshot": func(e *Engine) error { return e.restoreSnapshot(payload) },
		"ImportSessions": func(e *Engine) error {
			_, err := e.ImportSessions(payload, nil, nil)
			return err
		},
	} {
		dst, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := restore(dst); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perBank := float64(after.Mallocs-before.Mallocs) / banks
		t.Logf("%s: %.3f mallocs per restored bank", name, perBank)
		if !raceEnabled && perBank > 0.2 {
			t.Errorf("%s: %.2f mallocs per restored quiet bank, want ≤ 0.2", name, perBank)
		}
		if st := dst.Stats(); st.SessionsLive != banks || st.SessionsQuiet != banks {
			t.Errorf("%s: %d sessions, %d quiet, want %d", name, st.SessionsLive, st.SessionsQuiet, banks)
		}
		again, _, err := dst.encodeSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		// An import zeroes the watermarks (there are none here: no journal) and
		// keeps everything else, so both re-encode to the payload.
		if !bytes.Equal(again, payload) {
			t.Errorf("%s: the restored engine's snapshot differs from the one it was given (%d vs %d bytes)", name, len(again), len(payload))
		}
		dst.Close()
	}
}
