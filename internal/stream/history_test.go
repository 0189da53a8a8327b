package stream

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"cordial/internal/bincodec"
	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/features"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/sparing"
	"cordial/internal/trace"
	"cordial/internal/xrand"
)

// fixture fits a small Random Forest pipeline on a trace fleet of failing
// banks, once per test binary, under the default profile. trainedPipeline is
// FuzzBankHistory's version 1; tinyPipeline its version 2 and the artefact
// the crash property's registry stores for every version.
func fixture(banks int, seed uint64, trees, depth int) func() (*core.Pipeline, error) {
	return sync.OnceValues(func() (*core.Pipeline, error) {
		spec := trace.DefaultSpec(hbm.DefaultGeometry)
		spec.UERBanks, spec.BenignBanks, spec.Seed = banks, 0, seed
		fleet, err := trace.Generate(spec)
		cfg := core.DefaultConfig(core.RandomForest)
		cfg.Params = core.ModelParams{Trees: trees, Depth: depth}
		pipe, _ := core.New(cfg)
		if err == nil {
			err = pipe.Fit(fleet.Faults)
		}
		return pipe, err
	})
}

var trainedPipeline, tinyPipeline = fixture(80, 11, 12, 8), fixture(20, 3, 2, 3)

// cordialForm is a strategy that serves sessions every way the engine asks,
// as *core.CordialStrategy does, and undecided everything the engine reads of
// a Cordial session but Decide.
type cordialForm interface {
	core.QuietStrategy
	core.DurableStrategy
}

type undecided interface {
	core.ClassifiedSession
	core.InstrumentedSession
	core.DurableSession
}

// sessionsAs serves cordialForm's sessions, new, resumed and restored,
// through as.
type sessionsAs struct {
	cordialForm
	as func(core.Session) core.Session
}

func (s sessionsAs) NewSession(bank hbm.BankAddress) core.Session {
	return s.as(s.cordialForm.NewSession(bank))
}

func (s sessionsAs) ResumeSession(bank hbm.BankAddress, log []features.Obs) core.Session {
	return s.as(s.cordialForm.ResumeSession(bank, log))
}

func (s sessionsAs) RestoreSession(bank hbm.BankAddress, data []byte) (core.Session, error) {
	sess, err := s.cordialForm.RestoreSession(bank, data)
	if err != nil {
		return nil, err
	}
	return s.as(sess), nil
}

// onEventSession hides a Cordial session's Decide, so that the engine decides
// through OnEvent, as it does for a baseline. poisonSession panics at a UER on
// its row, inside the session, as a strategy's bug would.
type onEventSession struct{ undecided }

type poisonSession struct {
	undecided
	row int
}

func (s poisonSession) Decide(ev mcelog.Event, buf *core.DecisionBuffer) core.Decision {
	if ev.Class == ecc.ClassUER && ev.Addr.Row == s.row {
		panic(fmt.Sprintf("poisoned row %d", s.row))
	}
	return core.Decide(s.undecided, ev, buf)
}

func (s poisonSession) OnEvent(ev mcelog.Event) core.Decision { return s.Decide(ev, nil) }

// actionKey names an action by what it decides: its kind, bank and class, the
// time of the event it answers and its rows, ascending. The oracle, the crash
// property and the handoff tests compare action streams by it.
func actionKey(a Action) string {
	rows := slices.Clone(a.Rows)
	slices.Sort(rows)
	return fmt.Sprintf("%v|%v|%v|%d|%v", a.Kind, a.Bank, a.Class, a.Time.UnixNano(), rows)
}

// actionKeys adds the keys of acts to set (a new one when set is nil) and
// returns it: replay re-derives an action at least once, so action streams
// that crossed a restart compare as deduplicated sets.
func actionKeys(set map[string]bool, acts []Action) map[string]bool {
	if set == nil {
		set = make(map[string]bool)
	}
	for _, a := range acts {
		set[actionKey(a)] = true
	}
	return set
}

// diffActions names a key one set holds and the other lacks, or nothing when
// they are equal.
func diffActions(got, want map[string]bool) string {
	for k := range want {
		if !got[k] {
			return fmt.Sprintf("%d actions, want %d; missing %s", len(got), len(want), k)
		}
	}
	for k := range got {
		if !want[k] {
			return fmt.Sprintf("%d actions, want %d; unexpected %s", len(got), len(want), k)
		}
	}
	return ""
}

// perBankActions reduces an action stream to each bank's sequence, keyed by
// the bank's address, which no layout changes.
func perBankActions(acts []Action) map[string][]string {
	out := make(map[string][]string)
	for _, a := range acts {
		out[a.Bank.String()] = append(out[a.Bank.String()], actionKey(a))
	}
	return out
}

// historyBank is bank i of a FuzzBankHistory stream under the active profile.
func historyBank(i int) hbm.BankAddress {
	return hbm.RandomBank(hbm.ActiveProfile().Geometry, xrand.New(uint64(i)+1))
}

// historyEvents decodes a FuzzBankHistory body into its stream.
func historyEvents(body []byte) []mcelog.Event {
	geo := hbm.ActiveProfile().Geometry
	steps := [8]time.Duration{0, time.Second, 30 * time.Second, time.Minute, 13 * time.Minute, time.Hour, 24 * time.Hour, 30 * 24 * time.Hour}
	classes := [4]ecc.Class{ecc.ClassCE, ecc.ClassUEO, ecc.ClassUER, ecc.ClassCE}
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	last := [8]int{500, 1500, 2500, 3500, 4500, 5500, 6500, 7500}
	var evs []mcelog.Event
	emit := func(bank, row int, class ecc.Class) {
		row = geo.ClampRow(row)
		evs = append(evs, mcelog.Event{Time: now, Addr: hbm.CellInBank(historyBank(bank), row, 0), Class: class, Bits: mcelog.MakeErrBits(uint8(1+row%7), 1)})
	}
	for ; len(body) >= 2; body = body[2:] {
		bank, class, n := int(body[0]&7), classes[body[0]>>3&3], int(body[1]&63)
		now = now.Add(steps[body[0]>>5])
		switch body[1] >> 6 {
		case 0:
			last[bank] = geo.ClampRow(last[bank] + n - 32)
			emit(bank, last[bank], class)
		case 1:
			if last[bank] = n % 32; n >= 32 {
				last[bank] = geo.RowsPerBank - 1 - n%32
			}
			emit(bank, last[bank], class)
		case 2:
			for i := 0; i <= n; i++ {
				emit(bank, last[bank]+i%5*3, class)
				now = now.Add(time.Duration(i%2) * time.Minute)
			}
		case 3:
			for i := 0; i <= n%8; i++ {
				emit(bank, last[bank]+2*i, ecc.ClassUER)
				emit(bank, last[bank]+2*i+1, ecc.ClassCE)
				now = now.Add(time.Minute)
			}
			last[bank] = geo.ClampRow(last[bank] + 2*(n%8+1))
		}
	}
	return evs
}

// offlineHistory is the oracle's reference. Each bank's events, in stream
// order, go through a fresh session of the version its first event's position
// binds (epochAt), by OnEvent, under the engine's emission rules: the bank is
// spared once, each row is isolated once, and an action carries the bank's
// class as of the action. An event whose OnEvent panics emits nothing and
// degrades its bank, which from then on only counts its events. It returns the
// actions' keys, each bank's SessionStats without footprints, and how many
// events panicked.
func offlineHistory(evs []mcelog.Event, epochs []modelEpoch) (acts map[string]bool, stats map[hbm.BankAddress]*SessionStats, dead int) {
	type bank struct {
		sess            core.Session
		st              *SessionStats
		uerRows, spared map[int]bool
	}
	banks := make(map[hbm.BankAddress]*bank)
	acts, stats = make(map[string]bool), make(map[hbm.BankAddress]*SessionStats)
	for i, ev := range evs {
		addr := hbm.BankOf(ev.Addr)
		b := banks[addr]
		if b == nil {
			ep := epochAt(epochs, uint64(i+1))
			stats[addr] = &SessionStats{Bank: addr, ModelVersion: ep.version, FirstEvent: bincodec.TimeOf(ev.Time.UnixNano())}
			b = &bank{ep.strategy.NewSession(addr), stats[addr], map[int]bool{}, map[int]bool{}}
			banks[addr] = b
		}
		var d core.Decision
		if !b.st.Degraded && !func() bool {
			defer func() { _ = recover() }()
			d = b.sess.OnEvent(ev)
			return true
		}() {
			b.st.Degraded, dead = true, dead+1
			continue
		}
		b.st.Events++
		b.st.LastEvent = bincodec.TimeOf(ev.Time.UnixNano())
		if b.st.Degraded {
			continue
		}
		if ev.Class == ecc.ClassUER {
			b.st.UEREvents++
			b.uerRows[ev.Addr.Row] = true
		}
		if class, fired := b.sess.(core.ClassifiedSession).Class(); fired && !b.st.Classified {
			b.st.Class, b.st.Classified = class, true
		}
		_, b.st.StateReleased = b.sess.(core.InstrumentedSession).StateFootprint()
		act := Action{Kind: sparing.ActionBankSpare, Bank: addr, Class: b.st.Class, Time: ev.Time}
		if d.SpareBank && !b.st.BankSpared {
			b.st.BankSpared, acts[actionKey(act)] = true, true
			b.st.Actions++
		}
		act.Kind = sparing.ActionRowSpare
		for _, r := range d.IsolateRows {
			if !b.spared[r] {
				b.spared[r] = true
				act.Rows = append(act.Rows, r)
			}
		}
		if len(act.Rows) > 0 {
			acts[actionKey(act)] = true
			b.st.Actions++
		}
		b.st.DistinctUERRows, b.st.RowsIsolated = len(b.uerRows), len(b.spared)
	}
	return acts, stats, dead
}

// stepNode is one engine of FuzzBankHistory's fleet: the state its
// shard folds into, and around it what a daemon keeps — its journal (the
// records it folded, at positions in its own namespace), its epoch table and
// its newest snapshot.
type stepNode struct {
	st         *shardState
	epochs     []modelEpoch
	lsn        uint64 // the last journal position handed out
	journal    []queued
	snap       []byte // the newest snapshot payload; nil before the first
	snapLSN    uint64 // the journal position it covers
	snapEpochs int    // len(epochs) when it was taken
}

// stepSim drives the nodes' shard states through one input's schedule.
type stepSim struct {
	t      *testing.T
	rng    *rand.Rand
	layout recordLayout
	load   imageLoader
	nodes  []*stepNode
	owner  map[uint64]int
	acts   map[string]bool
}

// step steps batch through n, under a replay's snapshot floor (0 for live
// records).
func (s *stepSim) step(n *stepNode, batch []queued, floor uint64) {
	actionKeys(s.acts, n.st.step(stepEnv{epochs: n.epochs, floor: floor}, batch).acts)
}

// ingest journals evs on their owners, swapping the model in every node's
// table when the stream reaches swapAt, and steps each node's share in one
// batch.
func (s *stepSim) ingest(evs []mcelog.Event, first, swapAt int, v2 core.Strategy) {
	groups := make([][]queued, len(s.nodes))
	for i, ev := range evs {
		if first+i == swapAt {
			for _, n := range s.nodes {
				n.epochs = append(n.epochs[:len(n.epochs):len(n.epochs)], modelEpoch{version: 2, sinceLSN: n.lsn, strategy: v2})
			}
		}
		rec := mcelog.RecordOf(ev)
		key := s.layout.key(&rec)
		o, ok := s.owner[key]
		if !ok {
			o = int(mix64(key) % uint64(len(s.nodes)))
			s.owner[key] = o
		}
		n := s.nodes[o]
		n.lsn++
		q := queued{rec: rec, lsn: n.lsn}
		n.journal = append(n.journal, q)
		groups[o] = append(groups[o], q)
	}
	for i, g := range groups {
		if len(g) > 0 {
			s.step(s.nodes[i], g, 0)
		}
	}
}

// encode is the node's snapshot payload, through the engine's writer.
func (s *stepSim) encode(n *stepNode, filter func(uint64) bool) []byte {
	var w snapshotWriter
	if err := w.add(n.st, filter); err != nil {
		s.t.Fatal(err)
	}
	payload, err := w.payload(n.st.appliedLSN, n.epochs[len(n.epochs)-1])
	if err != nil {
		s.t.Fatal(err)
	}
	return payload
}

func (s *stepSim) snapshot(n *stepNode) {
	n.snap, n.snapLSN, n.snapEpochs = s.encode(n, nil), n.lsn, len(n.epochs)
}

// decode is the floor of a payload and the images of it that filter takes.
func (s *stepSim) decode(payload []byte, filter func(uint64) bool) (uint64, []sessionImage) {
	hdr, images, err := decodeSnapshotSessions(payload)
	if err != nil {
		s.t.Fatal(err)
	}
	return hdr.floor, slices.DeleteFunc(images, func(im sessionImage) bool { return !filter(im.key) })
}

// tail is the node's journal past its snapshot, plus a random overlap of
// records the snapshot already covers, of the banks filter takes.
func (s *stepSim) tail(n *stepNode, filter func(uint64) bool) []queued {
	from := uint64(0)
	if n.snap != nil {
		from = n.snapLSN - min(n.snapLSN, uint64(s.rng.Intn(60)))
	}
	var out []queued
	for _, q := range n.journal {
		if q.lsn > from && filter(s.layout.key(&q.rec)) {
			out = append(out, q)
		}
	}
	return out
}

// crash restarts a node as the engine's recovery does: its newest snapshot
// restored into a fresh state, its journal replayed from a little before it
// under the snapshot's floor in batches of 1–300, and the state then complete
// to the journal's end.
func (s *stepSim) crash(n *stepNode) {
	all := func(uint64) bool { return true }
	st := newShardState(s.layout)
	var floor uint64
	if n.snap != nil {
		var images []sessionImage
		floor, images = s.decode(n.snap, all)
		for i := range images {
			if err := st.restore(&s.load, &images[i]); err != nil {
				s.t.Fatal(err)
			}
		}
	}
	n.st = st
	for qs := s.tail(n, all); len(qs) > 0; {
		k := min(len(qs), 1+s.rng.Intn(300))
		s.step(n, qs[:k], floor)
		qs = qs[k:]
	}
	st.appliedLSN = max(st.appliedLSN, n.lsn)
}

// handoff moves about a third of src's banks to dst: exported from src's live
// state with its journal tail as the suffix (every record of which the
// watermarks or the floor refuse), or — when src's newest snapshot predates no
// model swap, so that banks the suffix gives birth to bind the version they
// were born under — from that snapshot with the journal past it, as a takeover
// reads a dead node's directory. src drops them and keeps their records in its
// journal, as a node does; dst imports them through the ImportSessions path: a
// scratch state, one step over the suffix under the payload's floor, adopt. A
// bank the import loses shows in the nodes' images.
func (s *stepSim) handoff(src, dst *stepNode) {
	salt := s.rng.Uint64()
	moved := func(key uint64) bool { return mix64(key^salt)%3 == 0 }
	payload := s.encode(src, moved)
	if src.snap != nil && src.snapEpochs == len(src.epochs) && s.rng.Intn(2) == 0 {
		payload = src.snap
	}
	floor, images := s.decode(payload, moved)
	suffix := s.tail(src, moved)
	src.st.store.each(func(sl *slot) {
		if moved(sl.key) {
			src.st.drop(sl)
		}
	})
	scratch, res, err := replayImport(s.layout, &s.load, images, suffix, stepEnv{epochs: dst.epochs[len(dst.epochs)-1:], floor: floor})
	if err != nil {
		s.t.Fatal(err)
	}
	actionKeys(s.acts, res.acts)
	scratch.store.each(func(sl *slot) {
		if dst.st.store.find(sl.key) != nil {
			s.t.Fatalf("bank %#x is on both nodes", sl.key)
		}
		dst.st.adopt(scratch, sl)
		s.owner[sl.key] = slices.Index(s.nodes, dst)
	})
	s.snapshot(src) // DropSessions and ImportSessions each snapshot
	s.snapshot(dst)
}

// images is every bank's snapshot record with its watermark zeroed: a
// watermark is a position in whichever journal the bank last folded from.
func (s *stepSim) images(nodes []*stepNode) map[uint64][]byte {
	out := make(map[uint64][]byte)
	all := func(uint64) bool { return true }
	for _, n := range nodes {
		_, images := s.decode(s.encode(n, nil), all)
		for _, im := range images {
			if _, dup := out[im.key]; dup {
				s.t.Fatalf("bank %#x is on two nodes", im.key)
			}
			im.lastLSN = 0
			c := &bincodec.Cursor{What: snapWhat}
			im.code(c, engineSnapVersion)
			out[im.key] = c.B
		}
	}
	return out
}

// stepFleet is one seed's event stream: failing banks (a UER in five), quiet
// banks and CE-heavy banks that cross the store's cap, each on a few rows, one
// second apart.
func stepFleet(rng *rand.Rand) []mcelog.Event {
	nb, n := 16+rng.Intn(40), 300+rng.Intn(1200)
	first := rng.Intn(1 << 14)
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	evs := make([]mcelog.Event, n)
	for i := range evs {
		b := min(rng.Intn(nb), rng.Intn(nb)) // a few hot banks
		ev := mcelog.Event{
			Time:  start.Add(time.Duration(i) * time.Second),
			Addr:  hbm.CellInBank(historyBank(first+b), 100+40*b+rng.Intn(12), 0),
			Class: ecc.ClassCE,
			Bits:  mcelog.MakeErrBits(uint8(1+rng.Intn(255)), 1),
		}
		if b%3 == 0 && rng.Intn(5) == 0 {
			ev.Class = ecc.ClassUER
		}
		evs[i] = ev
	}
	return evs
}

// historySeeds is FuzzBankHistory's seed corpus: forty stepFleets across the
// forms, shard counts, swap points and profiles; three trace fleets; the edges
// of a bank's quiet life in every form, a bank each (a first event that is a
// UER, a UER at observation 31, 32 and 33, a long quiet life, a first UER tied
// with a CE, a UEO-only bank, a spared bank fed more); and bursts at both
// edges of the geometry under both profiles.
func historySeeds() [][]byte {
	var seeds [][]byte
	for i := range 40 {
		flags := byte(4 + i%4/3)
		if i%10 == 9 {
			flags &^= 4
		}
		seeds = append(seeds, []byte{byte(i + 1), 0, byte(40 + 37*i), byte(i), byte(i / 2), flags})
	}
	for i, flags := range []byte{2, 3, 6} {
		seeds = append(seeds, []byte{byte(7 + i), 0, byte(100 + 50*i), byte(i + 2), byte(i), flags})
	}
	const ce, ueo, uer, step, edge, run, burst = 0, 1, 2, 0, 1, 2, 3
	ops := func(ops ...[5]int) (body []byte) {
		for _, o := range ops { // bank, class, time step, mode, n
			body = append(body, byte(o[0]|o[1]<<3|o[2]<<5), byte(o[3]<<6|o[4]))
		}
		return body
	}
	quiet := ops([5]int{0, uer, 0, burst, 4},
		[5]int{1, ce, 1, run, 29}, [5]int{1, ce, 4, burst, 4},
		[5]int{2, ce, 1, run, 30}, [5]int{2, ce, 4, burst, 4},
		[5]int{3, ce, 1, run, 31}, [5]int{3, ce, 4, burst, 4},
		[5]int{4, ce, 1, run, 63}, [5]int{4, ce, 1, run, 36}, [5]int{4, ce, 5, burst, 4},
		[5]int{5, ce, 1, run, 4}, [5]int{5, ce, 0, burst, 4},
		[5]int{6, ueo, 1, run, 39},
		[5]int{7, ce, 1, burst, 6}, [5]int{7, ce, 5, edge, 7}, [5]int{7, uer, 5, edge, 9}, [5]int{7, uer, 6, step, 40})
	for form := range 3 {
		seeds = append(seeds, append([]byte{byte(form), 0, byte(255 - 90*form), byte(form + 1), byte(form), 0}, quiet...))
	}
	edges := ops([5]int{0, uer, 1, edge, 0}, [5]int{0, ce, 1, burst, 7}, [5]int{0, uer, 1, edge, 1},
		[5]int{1, uer, 1, edge, 32}, [5]int{1, ce, 1, burst, 7}, [5]int{1, uer, 0, edge, 33},
		[5]int{2, ce, 0, edge, 63}, [5]int{2, uer, 0, step, 32}, [5]int{2, uer, 0, step, 32}, [5]int{2, ce, 2, burst, 2})
	for profile := range byte(2) {
		seeds = append(seeds, append([]byte{3, 0, 128, 2, 0, profile | 4}, edges...))
	}
	return seeds
}

// FuzzBankHistory is the verdict oracle: a bank's verdicts are a function of
// its history, and no serving form changes that function — store or heap
// form, Decide or OnEvent, snapshot and replay, handoff or takeover, model
// swap, shard count, profile. An input's first six bytes (zeros where it is
// shorter) are its schedule:
//
//	0–1  the seed of the random ops: batches, snapshots, restores, handoffs;
//	2    where in the stream version 1 (trainedPipeline, 12 trees) is
//	     swapped for version 2 (tinyPipeline, 2 trees), out of 255;
//	3    the Engine's shard count, 1 + b%5;
//	4    the form, b%3: Cordial, Decide hidden, the quiet store hidden;
//	5    flags: 1 ddr5-dimm; 2 a small trace.Generate fleet for the body;
//	     4 a poisoned row, the first UER's of the stream's second half.
//
// The body is up to 256 ops of two bytes over eight banks, or a stepFleet
// when empty.
// Byte one is the bank (bits 0–2), the class (3–4: CE, UEO, UER, CE) and the
// time step before the op (5–7: none, a tie, up to 30 days). Byte two's top
// bits say what the op does with its low six, n: 0 one event n−32 rows from
// the bank's last; 1 one event at row n%32 from the geometry's bottom edge,
// or its top when n ≥ 32; 2 a run of n+1 events over five rows, two a minute;
// 3 a burst of n%8+1 UERs at neighbouring rows a minute apart, each with a CE
// on the next row.
//
// The stream goes through one uninterrupted shard step, through stepSim's
// nodes under the schedule, and through one Engine. Every bank's final image
// on the nodes, watermark aside, must equal the uninterrupted step's; all
// three must emit exactly offlineHistory's actions (the nodes deduplicated,
// as a replay re-derives actions; the Engine each once); the step must
// dead-letter what the reference panics on; and the Engine's SessionStats,
// footprint aside, must equal the reference's.
func FuzzBankHistory(f *testing.F) {
	for _, seed := range historySeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkBankHistory(t, data) })
}

// checkBankHistory holds the stream an input decodes into to the oracle, as
// FuzzBankHistory's comment sets out, and returns how many actions the
// reference emits for it.
func checkBankHistory(t *testing.T, data []byte) int {
	defer func() {
		if t.Failed() {
			t.Logf("input %x", data)
		}
	}()
	h := make([]byte, 6)
	body := data[copy(h, data):]
	var pipes [2]*core.Pipeline // fitted under the default profile, before any other is active
	for i, fit := range []func() (*core.Pipeline, error){trainedPipeline, tinyPipeline} {
		var err error
		if pipes[i], err = fit(); err != nil {
			t.Fatal(err)
		}
	}
	if h[5]&1 != 0 {
		defer hbm.ActivateProfile(hbm.ActivateProfile(hbm.DDR5DIMM))
	}
	seed := int64(h[0]) | int64(h[1])<<8
	rng := rand.New(rand.NewSource(seed))
	evs := historyEvents(body[:min(len(body), 512)])
	if h[5]&2 != 0 {
		spec := trace.DefaultSpec(hbm.ActiveProfile().Geometry)
		spec.UERBanks, spec.BenignBanks, spec.Seed = 2+int(seed%4), 6, uint64(seed)
		fleet, err := trace.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		fleet.Log().Sort()
		evs = fleet.Log().Events()
	} else if len(evs) == 0 {
		evs = stepFleet(rng)
	}
	at := slices.IndexFunc(evs[len(evs)/2:], func(ev mcelog.Event) bool { return ev.Class == ecc.ClassUER })
	models := newFakeModels(1, 2)
	for i, pipe := range pipes {
		var s cordialForm = &core.CordialStrategy{Pipeline: pipe, Geometry: hbm.ActiveProfile().Geometry}
		if h[5]&4 != 0 && at >= 0 {
			row := evs[len(evs)/2+at].Addr.Row
			s = sessionsAs{s, func(sess core.Session) core.Session { return poisonSession{sess.(undecided), row} }}
		}
		switch v := uint64(i + 1); h[4] % 3 {
		case 0:
			models.versions[v] = s
		case 1:
			models.versions[v] = sessionsAs{s, func(sess core.Session) core.Session { return onEventSession{sess.(undecided)} }}
		case 2:
			models.versions[v] = heapOnly{s}
		}
	}
	swapAt := int(h[2]) * len(evs) / 255
	epochs := []modelEpoch{{version: 1, strategy: models.versions[1]}, {version: 2, sinceLSN: uint64(swapAt), strategy: models.versions[2]}}
	want, wantStats, dead := offlineHistory(evs, epochs)
	checkSteps(t, rng, evs, swapAt, epochs, want, dead)
	checkEngine(t, evs, swapAt, 1+int(h[3]%5), models, want, wantStats)
	return len(want)
}

// checkSteps holds one uninterrupted shard step and stepSim's nodes under
// rng's schedule to the reference, and the nodes' images to the step's.
func checkSteps(t *testing.T, rng *rand.Rand, evs []mcelog.Event, swapAt int, epochs []modelEpoch, want map[string]bool, dead int) {
	layout := newRecordLayout(hbm.ActiveProfile().Layout)
	ref := newShardState(layout)
	batch := make([]queued, len(evs))
	for i, ev := range evs {
		batch[i] = queued{rec: mcelog.RecordOf(ev), lsn: uint64(i + 1)}
	}
	res := ref.step(stepEnv{epochs: epochs}, batch)
	if diff := diffActions(actionKeys(nil, res.acts), want); diff != "" || len(res.dead) != dead {
		t.Fatalf("one uninterrupted step: %s; %d dead letters, the reference %d", diff, len(res.dead), dead)
	}

	resolve := func(v uint64) (core.DurableStrategy, error) {
		return epochs[min(v, 2)-1].strategy.(core.DurableStrategy), nil
	}
	s := &stepSim{t: t, rng: rng, layout: layout, load: imageLoader{resolve: resolve},
		owner: make(map[uint64]int), acts: make(map[string]bool)}
	for i, nodes := 0, 2+rng.Intn(3); i < nodes; i++ {
		s.nodes = append(s.nodes, &stepNode{st: newShardState(layout), epochs: epochs[:1], lsn: uint64(i) << 20})
	}
	for next := 0; next < len(evs); {
		n := s.nodes[rng.Intn(len(s.nodes))]
		switch op := rng.Intn(20); {
		case op < 12:
			k := min(len(evs)-next, 1+rng.Intn(300))
			s.ingest(evs[next:next+k], next, swapAt, epochs[1].strategy)
			next += k
		case op < 15:
			s.snapshot(n)
		case op < 17:
			s.crash(n)
		default:
			if dst := s.nodes[rng.Intn(len(s.nodes))]; dst != n {
				s.handoff(n, dst)
			}
		}
	}
	got, wantImages := s.images(s.nodes), s.images([]*stepNode{{st: ref, epochs: epochs}})
	if len(got) != len(wantImages) {
		t.Fatalf("%d banks across the nodes, %d in the uninterrupted step", len(got), len(wantImages))
	}
	for key, w := range wantImages {
		if !bytes.Equal(got[key], w) {
			t.Fatalf("bank %#x differs from the uninterrupted step", key)
		}
	}
	if diff := diffActions(s.acts, want); diff != "" {
		t.Fatalf("the nodes: %s", diff)
	}
}

// checkEngine holds one Engine of shards, swapped to version 2 at swapAt, to
// the reference.
func checkEngine(t *testing.T, evs []mcelog.Event, swapAt, shards int, models ModelSource, want map[string]bool, wantStats map[hbm.BankAddress]*SessionStats) {
	e, err := New(Config{Models: models, Shards: shards, ActionBuffer: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	for i, part := range [][]mcelog.Event{evs[:swapAt], evs[swapAt:]} {
		if i == 1 && len(part) > 0 {
			if err := e.Drain(30 * time.Second); err != nil {
				t.Fatal(err)
			}
			if _, err := e.SwapModel(2); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := e.IngestBatch(part); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	acts := drainActions(e)
	if got := actionKeys(nil, acts); len(got) != len(acts) || diffActions(got, want) != "" {
		t.Fatalf("the engine at %d shards emitted %d actions: %s", shards, len(acts), diffActions(got, want))
	}
	sessions := e.Sessions()
	if len(sessions) != len(wantStats) {
		t.Fatalf("the engine holds %d banks, the reference %d", len(sessions), len(wantStats))
	}
	for _, st := range sessions {
		if w := wantStats[st.Bank]; w == nil || withoutFootprint(st) != *w {
			t.Fatalf("bank %v in the engine:\n got  %+v\n want %+v", st.Bank, withoutFootprint(st), w)
		}
	}
}

// The tests below run the oracle over inputs of one flavor each, a test per
// hand-written suite it replaced, so that each kept its name and its reach.

// historyFlavor runs checkBankHistory over n inputs, input i's schedule being
// header(i) with an empty body, and fails when they emit no more than n
// actions: not the coverage a flavor is for.
func historyFlavor(t *testing.T, n int, header func(i int) [6]byte) {
	t.Helper()
	actions := 0
	for i := range n {
		h := header(i)
		actions += checkBankHistory(t, h[:])
	}
	if actions <= n {
		t.Errorf("%d inputs emitted %d actions: not the coverage the test is for", n, actions)
	}
}

// inputs is n, or n/5 under -short.
func inputs(n int) int {
	if testing.Short() {
		return max(n/5, 1)
	}
	return n
}

// TestShardStepInterleavings: stepFleets under seeded schedules of batches,
// snapshots, restores, handoffs and a model swap, with a poisoned row, across
// 1–5 shards.
func TestShardStepInterleavings(t *testing.T) {
	historyFlavor(t, inputs(200), func(i int) [6]byte {
		seed := i + 1
		return [6]byte{byte(seed), byte(seed >> 8), byte(37 * seed), byte(seed), 0, 4}
	})
}

// TestOnlineOfflineEquivalence: trace.Generate fleets of failing and benign
// banks under hbm2e, the engine at 1–5 shards.
func TestOnlineOfflineEquivalence(t *testing.T) {
	historyFlavor(t, inputs(20), func(i int) [6]byte {
		return [6]byte{byte(12 + i), 0, byte(255 - 23*i), byte(i), 0, 2}
	})
}

// TestOnlineOfflineEquivalenceDDR5: the same under ddr5-dimm, trace fleets
// and stepFleets.
func TestOnlineOfflineEquivalenceDDR5(t *testing.T) {
	historyFlavor(t, inputs(20), func(i int) [6]byte {
		return [6]byte{byte(13 + i), 0, byte(255 - 23*i), byte(i), 0, 1 | byte(i%2)<<1}
	})
}

// TestDecideEqualsOnEvent: each input served through Decide and with Decide
// hidden, so that the engine decides through OnEvent, both held to the one
// reference; hot-banks are stepFleets, fleet trace fleets.
func TestDecideEqualsOnEvent(t *testing.T) {
	pipe, err := trainedPipeline()
	if err != nil {
		t.Fatal(err)
	}
	cordial := &core.CordialStrategy{Pipeline: pipe, Geometry: hbm.DefaultGeometry}
	wrapped := sessionsAs{cordial, func(sess core.Session) core.Session { return onEventSession{sess.(undecided)} }}
	if _, ok := wrapped.NewSession(hbm.BankAddress{}).(core.BufferedSession); ok {
		t.Fatal("the wrapper does not hide Decide")
	}
	if _, ok := any(wrapped).(core.QuietStrategy); !ok {
		t.Fatal("the wrapper hides the quiet store from the engine")
	}
	for name, flags := range map[string]byte{"hot-banks": 0, "fleet": 2} {
		t.Run(name, func(t *testing.T) {
			historyFlavor(t, inputs(2*10), func(i int) [6]byte {
				return [6]byte{byte(31 + i/2), 0, byte(200 - 9*i), byte(i / 2), byte(i % 2), flags}
			})
		})
	}
}
