package stream

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/faultsim"
	"cordial/internal/features"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
)

// fakeStrategy is a deterministic stand-in for the Cordial pipeline: after
// budget distinct UER rows it bank-spares banks with an even bank index
// and, for odd ones, isolates the anchor row and its successor at every
// subsequent UER (re-isolating the anchor to exercise dedupe).
type fakeStrategy struct {
	budget int
	// poisonRow, when non-zero, makes OnEvent panic on any event at that
	// row — the supervision tests' stand-in for a session-poisoning bug.
	poisonRow int
	// poisonLogRow, when non-zero, plants the panic earlier than it fires: a
	// non-UER event at that row is absorbed, and the bank's first UER then
	// panics — the stand-in for a quiet session whose promotion replay hits
	// an observation it cannot fold.
	poisonLogRow int
	// gate, when non-nil, holds every OnEvent until it is closed: the shard
	// consumers stall on their first event, so queues fill deterministically.
	gate chan struct{}
	// footprint gives sessions a feature-state footprint (24 bytes until the
	// first UER, a tracked row per UER row, released once bank-spared), so the
	// engine's byte, row and released totals move.
	footprint bool
}

func (f *fakeStrategy) Name() string { return "fake" }

// quietFake is a fakeStrategy whose CE-only banks the engine keeps in its
// stores: a session resumes by folding the logged events.
type quietFake struct{ *fakeStrategy }

func (q quietFake) ResumeSession(bank hbm.BankAddress, log []features.Obs) core.Session {
	sess := q.NewSession(bank)
	for _, o := range log {
		sess.OnEvent(mcelog.Event{Time: time.Unix(0, o.UnixNano()), Addr: hbm.Address{Row: int(o.Row())}, Class: o.Class(), Bits: o.Bits()})
	}
	return sess
}

func (f *fakeStrategy) NewSession(bank hbm.BankAddress) core.Session {
	return &fakeSession{strategy: f, bank: bank, rows: make(map[int]bool)}
}

type fakeSession struct {
	strategy   *fakeStrategy
	bank       hbm.BankAddress
	rows       map[int]bool
	classified bool
	class      faultsim.Class
	poisonLog  bool // an event at poisonLogRow is waiting for the first UER
}

func (s *fakeSession) Class() (faultsim.Class, bool) { return s.class, s.classified }

func (s *fakeSession) StateFootprint() (features.StateFootprint, bool) {
	switch {
	case !s.strategy.footprint || s.classified && s.class == faultsim.ClassScattered:
		return features.StateFootprint{}, s.strategy.footprint
	case len(s.rows) == 0:
		return features.StateFootprint{ApproxBytes: 24}, false
	}
	return features.StateFootprint{ApproxBytes: 100 + 16*len(s.rows), TrackedRows: len(s.rows)}, false
}

func (s *fakeSession) OnEvent(e mcelog.Event) core.Decision { return s.Decide(e, nil) }

func (s *fakeSession) Decide(e mcelog.Event, _ *core.DecisionBuffer) core.Decision {
	if s.strategy.gate != nil {
		<-s.strategy.gate
	}
	if s.strategy.poisonRow != 0 && e.Addr.Row == s.strategy.poisonRow {
		panic(fmt.Sprintf("poisoned row %d", e.Addr.Row))
	}
	if e.Class != ecc.ClassUER {
		s.poisonLog = s.poisonLog || s.strategy.poisonLogRow != 0 && e.Addr.Row == s.strategy.poisonLogRow
		return core.Decision{}
	}
	if s.poisonLog {
		panic(fmt.Sprintf("replaying poisoned row %d", s.strategy.poisonLogRow))
	}
	s.rows[e.Addr.Row] = true
	if len(s.rows) < s.strategy.budget {
		return core.Decision{}
	}
	if !s.classified {
		s.classified = true
		if s.bank.Bank%2 == 0 {
			s.class = faultsim.ClassScattered
			return core.Decision{SpareBank: true}
		}
		s.class = faultsim.ClassSingleRow
	}
	if s.class == faultsim.ClassScattered {
		return core.Decision{}
	}
	return core.Decision{IsolateRows: []int{e.Addr.Row, e.Addr.Row + 1}}
}

// testBank returns a distinct bank address; even/odd i controls the fake
// strategy's bank-spare vs row-spare behaviour via the bank index.
func testBank(i int) hbm.BankAddress {
	return hbm.BankAddress{Node: uint32(i % 8), NPU: uint8(i / 8 % 8), BankGroup: uint8(i / 64 % 4), Bank: uint8(i % 4)}
}

// uerAt builds a UER event in bank at the given row and second offset.
func uerAt(bank hbm.BankAddress, row, sec int) mcelog.Event {
	return mcelog.Event{
		Time:  time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(sec) * time.Second),
		Addr:  hbm.CellInBank(bank, row, 0),
		Class: ecc.ClassUER,
	}
}

// newTestEngine builds an engine from cfg, over the fake strategy when cfg
// names none, and fails t if New does.
func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Strategy == nil {
		cfg.Strategy = &fakeStrategy{budget: 3}
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// feed ingests evs into e one at a time and waits until e has folded them.
func feed(t testing.TB, e *Engine, evs ...mcelog.Event) {
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

// drainActions collects the whole action stream after Close.
func drainActions(e *Engine) []Action {
	var out []Action
	for a := range e.Actions() {
		out = append(out, a)
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	base := Config{Strategy: &fakeStrategy{budget: 3}}.withDefaults()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no model source", func(c *Config) { c.Strategy = nil; c.Models = nil }},
		{"zero shards", func(c *Config) { c.Shards = -1 }},
		{"negative queue", func(c *Config) { c.QueueDepth = -5 }},
		{"negative buffer", func(c *Config) { c.ActionBuffer = -1 }},
		{"bad policy", func(c *Config) { c.Policy = IngestPolicy(9) }},
		{"bad geometry", func(c *Config) { c.Geometry.RowsPerBank = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatalf("config %+v validated", cfg)
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("defaulted config invalid: %v", err)
	}
}

func TestEngineActionsAndDedupe(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 4})
	even, odd := testBank(2), testBank(1) // Bank field 2 (even) and 1 (odd)

	// Even bank: three distinct UER rows -> one bank-spare, then nothing.
	for i, row := range []int{10, 20, 30, 40} {
		if err := e.Ingest(uerAt(even, row, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Odd bank: rows 100..102 cross the budget, then a repeat of row 102
	// re-predicts {102,103} which must not re-emit.
	for i, row := range []int{100, 101, 102, 102} {
		if err := e.Ingest(uerAt(odd, row, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	actions := drainActions(e)

	var bankSpares, rowSpares int
	var isolated []int
	for _, a := range actions {
		switch a.Kind.String() {
		case "bank-spare":
			bankSpares++
			if a.Bank != even {
				t.Errorf("bank-spare on %v, want %v", a.Bank, even)
			}
			if a.Class != faultsim.ClassScattered {
				t.Errorf("bank-spare class %v", a.Class)
			}
		case "row-spare":
			rowSpares++
			if a.Bank != odd {
				t.Errorf("row-spare on %v, want %v", a.Bank, odd)
			}
			isolated = append(isolated, a.Rows...)
		default:
			t.Errorf("unexpected action kind %v", a.Kind)
		}
	}
	if bankSpares != 1 {
		t.Errorf("bank spares = %d, want 1", bankSpares)
	}
	// Budget crossing at row 102 isolates {102,103}; the repeat event
	// re-predicts the same rows and must emit nothing new.
	sort.Ints(isolated)
	if want := []int{102, 103}; fmt.Sprint(isolated) != fmt.Sprint(want) {
		t.Errorf("isolated rows %v, want %v", isolated, want)
	}
	if rowSpares != 1 {
		t.Errorf("row-spare actions = %d, want 1 (dedupe failed)", rowSpares)
	}
}

func TestEngineSessionStats(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 2})
	bank := testBank(1)
	for i, row := range []int{5, 6, 7} {
		if err := e.Ingest(uerAt(bank, row, i)); err != nil {
			t.Fatal(err)
		}
	}
	// A CE in the same bank counts as an event but not a UER.
	ce := uerAt(bank, 8, 3)
	ce.Class = ecc.ClassCE
	if err := e.Ingest(ce); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	st, ok := e.Session(bank)
	if !ok {
		t.Fatal("no session for bank")
	}
	if st.Events != 4 || st.UEREvents != 3 || st.DistinctUERRows != 3 {
		t.Errorf("stats %+v: want 4 events, 3 UERs, 3 rows", st)
	}
	if !st.Classified || st.Class != faultsim.ClassSingleRow {
		t.Errorf("stats %+v: want classified single-row", st)
	}
	if st.RowsIsolated != 2 || st.Actions != 1 {
		t.Errorf("stats %+v: want 2 rows isolated in 1 action", st)
	}
	if st.FirstEvent.After(st.LastEvent) {
		t.Errorf("window inverted: %v .. %v", st.FirstEvent, st.LastEvent)
	}
	if _, ok := e.Session(testBank(7)); ok {
		t.Error("session reported for untouched bank")
	}
	if n := e.Stats().SessionsLive; n != 1 {
		t.Errorf("%d live sessions, want 1", n)
	}

	es := e.Stats()
	if es.Ingested != 4 || es.Processed != 4 || es.SessionsLive != 1 {
		t.Errorf("engine stats %+v", es)
	}
	if es.Process.Count != 1 { // four folds are ⌈4/64⌉ samples: the first
		t.Errorf("process latency snapshot %+v", es.Process)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineDropPolicy(t *testing.T) {
	gate := make(chan struct{}) // the consumer stalls on its first event
	e := newTestEngine(t, Config{
		Shards:     1,
		QueueDepth: 1,
		Policy:     IngestDrop,
		Strategy:   &fakeStrategy{budget: 3, gate: gate},
	})
	bank := testBank(1)
	var dropped int
	for i := 0; i < 64; i++ {
		err := e.Ingest(uerAt(bank, i, i))
		switch {
		case err == nil:
		case errors.Is(err, ErrDropped):
			dropped++
		default:
			t.Fatal(err)
		}
	}
	if dropped == 0 {
		t.Error("no events dropped despite full queue and stalled consumer")
	}
	close(gate)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	drainActions(e)
	st := e.Stats()
	if st.Dropped != uint64(dropped) {
		t.Errorf("stats.Dropped = %d, want %d", st.Dropped, dropped)
	}
	if st.Ingested+st.Dropped != 64 {
		t.Errorf("ingested %d + dropped %d != 64", st.Ingested, st.Dropped)
	}
	if st.Processed != st.Ingested {
		t.Errorf("processed %d != ingested %d after Close", st.Processed, st.Ingested)
	}
}

func TestEngineActionOverflow(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 1, ActionBuffer: 1})
	// Two banks each emit one bank-spare; with a buffer of one and no
	// consumer, the first is evicted for the second.
	for i := 0; i < 2; i++ {
		bank := testBank(2 + 4*i) // even bank indices -> bank-spare
		for j, row := range []int{1, 2, 3} {
			if err := e.Ingest(uerAt(bank, row, j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	actions := drainActions(e)
	if len(actions) != 1 {
		t.Fatalf("got %d buffered actions, want 1", len(actions))
	}
	st := e.Stats()
	if st.ActionsDropped != 1 || st.ActionsEmitted != 2 {
		t.Errorf("emitted %d dropped %d, want 2/1", st.ActionsEmitted, st.ActionsDropped)
	}
}

func TestEngineIngestAfterClose(t *testing.T) {
	e := newTestEngine(t, Config{})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(uerAt(testBank(1), 1, 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ingest after Close = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineConcurrentIngest hammers the engine from many goroutines while
// stats and session snapshots are read concurrently; run under -race this
// is the engine's data-race gate.
func TestEngineConcurrentIngest(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 8, QueueDepth: 64})
	const (
		producers = 8
		perBank   = 24
	)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			bank := testBank(p)
			for i := 0; i < perBank; i++ {
				if err := e.Ingest(uerAt(bank, i, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	// Concurrent readers.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = e.Stats()
				_, _ = e.Session(testBank(3))
				_ = e.Stats().SessionsLive
			}
		}
	}()
	consumed := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range e.Actions() {
			consumed++
		}
	}()

	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	close(stop)
	rg.Wait()

	st := e.Stats()
	if st.Ingested != producers*perBank {
		t.Errorf("ingested %d, want %d", st.Ingested, producers*perBank)
	}
	if st.Processed != st.Ingested {
		t.Errorf("processed %d != ingested %d", st.Processed, st.Ingested)
	}
	if st.SessionsLive != producers {
		t.Errorf("sessions %d, want %d", st.SessionsLive, producers)
	}
	if uint64(consumed)+st.ActionsDropped != st.ActionsEmitted {
		t.Errorf("consumed %d + dropped %d != emitted %d",
			consumed, st.ActionsDropped, st.ActionsEmitted)
	}
}

// TestEnginePerBankOrder checks FIFO processing per bank: event times seen
// by a session never go backwards when ingested in order from one
// goroutine, even with many banks interleaved across shards.
func TestEnginePerBankOrder(t *testing.T) {
	rec := &recordingStrategy{times: make(map[uint64][]time.Time)}
	e := newTestEngine(t, Config{Shards: 4, Strategy: rec})
	const banks, events = 16, 32
	for i := 0; i < events; i++ {
		for b := 0; b < banks; b++ {
			if err := e.Ingest(uerAt(testBank(b), i, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	drainActions(e)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.times) != banks {
		t.Fatalf("recorded %d banks, want %d", len(rec.times), banks)
	}
	for key, ts := range rec.times {
		if len(ts) != events {
			t.Errorf("bank %x saw %d events, want %d", key, len(ts), events)
		}
		for i := 1; i < len(ts); i++ {
			if ts[i].Before(ts[i-1]) {
				t.Fatalf("bank %x events out of order at %d", key, i)
			}
		}
	}
}

// recordingStrategy records per-bank event arrival order.
type recordingStrategy struct {
	mu    sync.Mutex
	times map[uint64][]time.Time
}

func (r *recordingStrategy) Name() string { return "recording" }

func (r *recordingStrategy) NewSession(bank hbm.BankAddress) core.Session {
	return &recordingSession{r: r, key: bank.BankKey()}
}

func (r *recordingStrategy) RestoreSession(hbm.BankAddress, []byte) (core.Session, error) {
	return nil, errNoImage
}

// featureless supplies the session methods of a test session that assigns no
// class, holds no feature state and has no image.
type featureless struct{}

var errNoImage = errors.New("a test session without an image")

func (featureless) Class() (faultsim.Class, bool) { return 0, false }

func (featureless) StateFootprint() (features.StateFootprint, bool) {
	return features.StateFootprint{}, false
}

func (featureless) EncodeState() ([]byte, error) { return nil, errNoImage }

type recordingSession struct {
	featureless
	r   *recordingStrategy
	key uint64
}

func (s *recordingSession) OnEvent(e mcelog.Event) core.Decision { return s.Decide(e, nil) }

func (s *recordingSession) Decide(e mcelog.Event, _ *core.DecisionBuffer) core.Decision {
	s.r.mu.Lock()
	s.r.times[s.key] = append(s.r.times[s.key], e.Time)
	s.r.mu.Unlock()
	return core.Decision{}
}

func TestMix64Spreads(t *testing.T) {
	// Bank keys differ only in high-ish bits (row/col zeroed); the mixer
	// must spread sequential banks across shards reasonably evenly.
	const shards = 8
	counts := make([]int, shards)
	for i := 0; i < 1024; i++ {
		counts[mix64(testBank(i).BankKey())%shards]++
	}
	for s, n := range counts {
		if n == 0 {
			t.Errorf("shard %d received no banks", s)
		}
	}
}

// TestSessionsSortedByBankKey: Sessions lists every live session once, in
// ascending bank-key order, and — the session no longer stores its bank —
// each under the address its events carried.
func TestSessionsSortedByBankKey(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 3})
	defer e.Close()
	want := make(map[hbm.BankAddress]bool)
	for i := 40; i > 0; i-- {
		bank := testBank(7 * i)
		want[bank] = true
		if err := e.Ingest(uerAt(bank, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	feed(t, e)
	sessions := e.Sessions()
	if len(sessions) != len(want) {
		t.Fatalf("%d sessions listed, want %d", len(sessions), len(want))
	}
	for i, st := range sessions {
		if !want[st.Bank] || st.Events != 1 {
			t.Errorf("session %d: %+v is not one of the ingested banks", i, st)
		}
		if i > 0 && sessions[i-1].Bank.BankKey() >= st.Bank.BankKey() {
			t.Errorf("session %d out of order: key %#x after %#x", i, st.Bank.BankKey(), sessions[i-1].Bank.BankKey())
		}
		if one, ok := e.Session(st.Bank); !ok || one != st {
			t.Errorf("Session(%v) = %+v, listed as %+v", st.Bank, one, st)
		}
	}
}
