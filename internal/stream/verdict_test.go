package stream

import (
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/faultsim"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/xrand"
)

// hotBankEvents is the benchmark's hot_banks shape, time-sorted: each bank has
// a slowly drifting CE cluster and a UER at a new row every 10th event, so its
// first UER rows are adjacent (an aggregation failure) and it predicts at a
// tenth of its events.
func hotBankEvents(banks, perBank int, seed uint64) []mcelog.Event {
	rng := xrand.New(seed)
	geo := hbm.DefaultGeometry
	start := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	var evs []mcelog.Event
	for b := 0; b < banks; b++ {
		bank := hbm.RandomBank(geo, rng)
		baseRow := 64 + rng.Intn(geo.RowsPerBank-256)
		offset := time.Duration(rng.Intn(300_000)) * time.Millisecond
		for i := 0; i < perBank; i++ {
			row, class := baseRow+i/10, ecc.ClassCE
			if i%10 == 9 {
				class = ecc.ClassUER
			} else {
				row += rng.Intn(4)
			}
			evs = append(evs, mcelog.Event{
				Time:  start.Add(offset + time.Duration(i)*30*time.Second),
				Addr:  hbm.CellInBank(bank, row, rng.Intn(geo.ColsPerBank)),
				Class: class,
			})
		}
	}
	slices.SortStableFunc(evs, func(a, b mcelog.Event) int { return a.Time.Compare(b.Time) })
	return evs
}

// TestActionRowsSurviveSlabRollover: emitted rows are carved from a shard's
// append-only slab. Over more than four slabs, every action's rows still read
// what they read when the action was received, and appending to one action's
// rows copies them rather than writing into the next action's.
func TestActionRowsSurviveSlabRollover(t *testing.T) {
	// Neighbor Rows isolates the 8 rows around each UER; 9 rows apart, no two
	// UERs of a bank share a row, so every UER emits 8 fresh rows.
	strategy := &core.NeighborRowsStrategy{Radius: 4, Geometry: hbm.DefaultGeometry}
	e := newTestEngine(t, Config{Strategy: strategy, Shards: 1, ActionBuffer: 1 << 12})
	const banks, perBank = 4, 200
	var got []Action
	var atReceipt [][]int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range e.Actions() {
			got = append(got, a)
			atReceipt = append(atReceipt, slices.Clone(a.Rows))
		}
	}()
	for i := 0; i < perBank; i++ {
		for b := 0; b < banks; b++ {
			if err := e.Ingest(uerAt(testBank(b), 16+9*i, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	<-done

	rows, adjacent := 0, 0
	for i, a := range got {
		rows += len(a.Rows)
		if !slices.Equal(a.Rows, atReceipt[i]) {
			t.Fatalf("action %d's rows read %v, %v at receipt", i, a.Rows, atReceipt[i])
		}
		if cap(a.Rows) != len(a.Rows) {
			t.Fatalf("action %d's rows have capacity %d for %d rows", i, cap(a.Rows), len(a.Rows))
		}
		if i > 0 && addr(a.Rows) == addr(got[i-1].Rows)+uintptr(len(got[i-1].Rows))*unsafe.Sizeof(0) {
			adjacent++
		}
	}
	if len(got) != banks*perBank || rows <= 4*slabInts+slabInts {
		t.Fatalf("%d actions, %d rows: not the coverage the test is for", len(got), rows)
	}
	if adjacent < len(got)/2 {
		t.Fatalf("only %d of %d actions' rows follow their predecessor's in memory: not carved from a slab", adjacent, len(got))
	}
	for i := 0; i+1 < len(got); i++ {
		_ = append(got[i].Rows, -1, -1, -1)
		if !slices.Equal(got[i+1].Rows, atReceipt[i+1]) {
			t.Fatalf("appending to action %d's rows changed action %d's to %v", i, i+1, got[i+1].Rows)
		}
	}
}

// addr is the address of rows' first element.
func addr(rows []int) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(rows))) }

// TestPredictingFoldAllocs pins the mallocs of a predicting fold on a warmed
// engine: a UER at a new row of an aggregation bank. The decision goes into
// the shard's buffer and the fresh rows into its slab, so what is left is the
// amortised growth of the row tables (the feature state's and the bank's) and
// a slab now and then: 0.02 per fold measured, where each such fold used to
// make four (the probabilities, the rows, the BlockPrediction and the fresh
// rows) on top of that growth.
func TestPredictingFoldAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a pipeline")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	pipe, err := trainedPipeline()
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, Config{Strategy: &core.CordialStrategy{Pipeline: pipe, Geometry: hbm.DefaultGeometry}, Shards: 1, ActionBuffer: 1 << 12})
	defer e.Close()
	// The test folds on its own goroutine, as the shard's consumer would; the
	// consumer stays idle, for nothing is queued.
	s := e.shards[0]
	process := func(ev mcelog.Event) { e.consume(s, []queued{{rec: mcelog.RecordOf(hbm.HBM2E, ev)}}) }

	warm := hotBankEvents(1, 300, 7)
	for _, ev := range warm {
		process(ev)
	}
	last := warm[len(warm)-1]
	if st, ok := e.Session(hbm.BankOf(last.Addr)); !ok || !st.Classified || !st.Class.IsAggregation() {
		t.Fatalf("the hot bank is not a classified aggregation bank: %+v", st)
	}

	// UERs at new rows just past the bank's cluster: every fold predicts, and
	// the windows overlap as a real bank's do.
	const folds = 400
	next := func() mcelog.Event {
		ev := last
		ev.Class, ev.Addr.Row, ev.Time = ecc.ClassUER, last.Addr.Row+1, last.Time.Add(time.Minute)
		last = ev
		return ev
	}
	for i := 0; i < folds/4; i++ { // warms the buffer, the pooled scratch and the slab
		process(next())
	}
	actsBefore := e.actions.queued()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < folds; i++ {
		process(next())
	}
	runtime.ReadMemStats(&m1)
	perFold := float64(m1.Mallocs-m0.Mallocs) / folds
	t.Logf("%.3f mallocs per predicting fold, %d actions", perFold, e.actions.queued()-actsBefore)
	if e.actions.queued()-actsBefore < folds/4 {
		t.Fatalf("%d actions over %d folds: not the coverage the test is for", e.actions.queued()-actsBefore, folds)
	}
	if perFold > 0.05 {
		t.Errorf("a predicting fold makes %.3f mallocs, want at most 0.05", perFold)
	}
}

// TestHotBankAllocs pins the mallocs a whole hot_banks bank costs a warmed
// engine, from its first CE to its 120th event: its slot, its promotion to a
// session holding its feature state and the state's first 16 rows at its first
// UER, one classification and a dozen predictions; the engine's UER and spared
// rows are one run each, held in the bank's slot. 1.3 per bank measured; a row
// table of its own, made at 16 rows at once, made it 2.3–2.4, growing it from
// 4 made it 4.3, an engine row table outside the slot 6.3, four
// sorted row sets in the feature state, two in the engine and a classification
// into fresh slices 24.1, and a separate feature state, budget-row array and
// bankSession with a row table grown one doubling at a time 13.1.
func TestHotBankAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a pipeline")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	pipe, err := trainedPipeline()
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, Config{Strategy: &core.CordialStrategy{Pipeline: pipe, Geometry: hbm.DefaultGeometry}, Shards: 1, ActionBuffer: 1 << 14})
	defer e.Close()
	// The test folds on its own goroutine, as the shard's consumer would, in
	// consumer-sized batches.
	s := e.shards[0]
	fold := func(evs []mcelog.Event) {
		batch := make([]queued, 0, consumerBatch)
		for i, ev := range evs {
			batch = append(batch, queued{rec: mcelog.RecordOf(hbm.HBM2E, ev)})
			if len(batch) == consumerBatch || i == len(evs)-1 {
				e.consume(s, batch)
				batch = batch[:0]
			}
		}
	}
	const banks, perBank = 64, 120
	fold(hotBankEvents(banks, perBank, 5)) // warms the store, the scratch, the buffer and the slab
	evs := hotBankEvents(banks, perBank, 6)
	actsBefore := e.metrics.actionsEmitted.Value()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fold(evs)
	runtime.ReadMemStats(&m1)
	perBankMallocs := float64(m1.Mallocs-m0.Mallocs) / banks
	acts := e.metrics.actionsEmitted.Value() - actsBefore
	t.Logf("%.2f mallocs per hot bank, %d actions", perBankMallocs, acts)
	if st := e.Stats(); st.SessionsLive != 2*banks || acts < banks*perBank/20 {
		t.Fatalf("%d sessions and %d actions: not the coverage the test is for", st.SessionsLive, acts)
	}
	if perBankMallocs > 2 {
		t.Errorf("a hot bank costs %.2f mallocs, want at most 2", perBankMallocs)
	}
}

// TestPromotedBankAllocs pins the allocation budget of one promoted bank: a
// hot-bank lifetime — 120 events, a UER every 10th at adjacent rows — run
// through shardState.step, which stores the bank, promotes it at its first
// UER, classifies it at its third and predicts at each UER after. One
// allocation: the session with its feature state inside and the state's first
// 16 rows inside that. The bankSession sits in the store's heap chunks with
// its UER rows and spared rows in it, one run each, and the budget rows are
// ranks in the feature table's entries; chunks, the index and the rows slab
// amortise below one allocation per bank. A row table of its own, made at 16
// rows, made it two; grown at 4, 8 and 16 rows, four; and with an engine row
// table outside the slot, grown at the first UER and at the first prediction,
// six.
func TestPromotedBankAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a pipeline")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	pipe, err := trainedPipeline()
	if err != nil {
		t.Fatal(err)
	}
	env := stepEnv{epochs: []modelEpoch{{version: 1, strategy: &core.CordialStrategy{Pipeline: pipe, Geometry: hbm.DefaultGeometry}}}}
	st := newShardState(newRecordLayout(hbm.HBM2E))
	const warm, runs = 8, 100
	lives := make([][]queued, warm+runs+1) // AllocsPerRun runs once more to warm up
	for i := range lives {
		for _, ev := range hotBankEvents(1, 120, uint64(i+1)) {
			lives[i] = append(lives[i], queued{rec: mcelog.RecordOf(hbm.HBM2E, ev)})
		}
	}
	acts, next := 0, 0
	life := func() {
		acts += len(st.step(env, lives[next]).acts)
		next++
	}
	for next < warm { // warms the decision buffer, the pooled scratch and the step's buffers
		life()
	}
	perBank := testing.AllocsPerRun(runs, life)
	st.store.eachSession(func(bs *bankSession) {
		if !bs.classified || !faultsim.Class(bs.class).IsAggregation() || bs.actions < 5 {
			t.Fatalf("a bank classified=%t class=%v with %d actions: not the lifetime the test is for", bs.classified, faultsim.Class(bs.class), bs.actions)
		}
	})
	t.Logf("%v allocations per promoted bank, %d actions over %d banks", perBank, acts, next)
	if next != len(lives) || st.store.banks != len(lives) {
		t.Fatalf("%d lifetimes run, %d banks held, want %d", next, st.store.banks, len(lives))
	}
	if perBank > 1 {
		t.Errorf("a promoted bank costs %v allocations, want at most 1", perBank)
	}
}
