package stream

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"cordial/internal/bincodec"
	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/faultsim"
	"cordial/internal/features"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
)

// stepStrategy is a quiet, durable strategy that decides, cheap enough for
// hundreds of seeded runs: a session is its bank's observation log and its
// distinct UER rows. From the budget-th row on it classifies the bank and
// isolates each UER's row and the next; from the spareAt-th it spares the
// bank. A UER at poisonRow panics. The test's two model versions differ in
// budget and spareAt, so a bank bound to the wrong version decides
// differently.
type stepStrategy struct {
	budget, spareAt int
	poisonRow       int32
}

type stepSession struct {
	strategy *stepStrategy
	log      []features.Obs
	rows     []int32
}

func (s *stepStrategy) Name() string { return "step" }

func (s *stepStrategy) NewSession(hbm.BankAddress) core.Session { return &stepSession{strategy: s} }

func (s *stepStrategy) ResumeSession(_ hbm.BankAddress, log []features.Obs) core.Session {
	return &stepSession{strategy: s, log: slices.Clone(log)}
}

func (s *stepSession) OnEvent(ev mcelog.Event) core.Decision {
	if ev.Class != ecc.ClassUER {
		s.log = append(s.log, features.ObsOf(ev))
		return core.Decision{}
	}
	row := int32(ev.Addr.Row)
	if row == s.strategy.poisonRow {
		panic(fmt.Sprintf("poisoned row %d", row))
	}
	if !slices.Contains(s.rows, row) {
		s.rows = append(s.rows, row)
	}
	var d core.Decision
	if len(s.rows) >= s.strategy.budget {
		d.IsolateRows = []int{int(row), int(row) + 1}
	}
	d.SpareBank = len(s.rows) >= s.strategy.spareAt
	return d
}

func (s *stepSession) Class() (faultsim.Class, bool) {
	return faultsim.ClassSingleRow, len(s.rows) >= s.strategy.budget
}

func (s *stepSession) code(c *bincodec.Cursor) {
	features.CodeObs(c, &s.log, 1<<16)
	bincodec.Rows(c, &s.rows, false)
}

func (s *stepSession) EncodeState() ([]byte, error) {
	c := &bincodec.Cursor{What: "step session"}
	s.code(c)
	return c.B, c.Err
}

func (s *stepStrategy) RestoreSession(_ hbm.BankAddress, data []byte) (core.Session, error) {
	sess := &stepSession{strategy: s}
	c := &bincodec.Cursor{B: data, Decode: true, What: "step session"}
	sess.code(c)
	return sess, c.Done()
}

// stepNode is one engine of the interleaving test's fleet: the state its
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

// stepSim drives the nodes' shard states through one seed's schedule.
type stepSim struct {
	t      *testing.T
	rng    *rand.Rand
	layout recordLayout
	load   imageLoader
	nodes  []*stepNode
	owner  map[uint64]int
	acts   map[string]bool
	// steps counts step calls, refused the records they refused.
	steps, refused int
}

// addActs adds a step's actions to the deduplicated set: replay re-derives
// actions at least once.
func addActs(set map[string]bool, acts []Action) {
	for _, a := range acts {
		set[fmt.Sprintf("%v|%v|%v|%d|%v", a.Kind, a.Bank, a.Class, a.Time.UnixNano(), a.Rows)] = true
	}
}

func (s *stepSim) step(n *stepNode, batch []queued) {
	res := n.st.step(stepEnv{epochs: n.epochs}, batch)
	s.steps, s.refused = s.steps+1, s.refused+res.refused
	addActs(s.acts, res.acts)
}

// stepRandom steps qs through n in batches of random size, 1–300.
func (s *stepSim) stepRandom(n *stepNode, qs []queued) {
	for len(qs) > 0 {
		k := min(len(qs), 1+s.rng.Intn(300))
		s.step(n, qs[:k])
		qs = qs[k:]
	}
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
			s.step(s.nodes[i], g)
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

// decode is the images of a payload that filter takes.
func (s *stepSim) decode(payload []byte, filter func(uint64) bool) []sessionImage {
	_, images, err := decodeSnapshotSessions(payload)
	if err != nil {
		s.t.Fatal(err)
	}
	return slices.DeleteFunc(images, func(im sessionImage) bool { return !filter(im.key) })
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

// crash restarts a node: its newest snapshot restored into a fresh state and
// its journal replayed from a little before it.
func (s *stepSim) crash(n *stepNode) {
	all := func(uint64) bool { return true }
	st := newShardState(s.layout)
	if n.snap != nil {
		images := s.decode(n.snap, all)
		for i := range images {
			if err := st.restore(&s.load, &images[i]); err != nil {
				s.t.Fatal(err)
			}
		}
	}
	n.st = st
	s.stepRandom(n, s.tail(n, all))
}

// handoff moves about a third of src's banks to dst: exported from src's live
// state with its journal tail as the suffix (every record of which the
// watermarks refuse), or — when src's newest snapshot predates no model swap,
// so that banks the suffix gives birth to bind the version they were born
// under — from that snapshot with the journal past it, as a takeover reads a
// dead node's directory. src drops them; dst imports them through the
// ImportSessions path: a scratch state, one step over the suffix, adopt.
func (s *stepSim) handoff(src, dst *stepNode) (takeover bool) {
	salt := s.rng.Uint64()
	moved := func(key uint64) bool { return mix64(key^salt)%3 == 0 }
	payload := s.encode(src, moved)
	if takeover = src.snap != nil && src.snapEpochs == len(src.epochs) && s.rng.Intn(2) == 0; takeover {
		payload = src.snap
	}
	images, suffix := s.decode(payload, moved), s.tail(src, moved)

	var want []uint64
	src.st.store.each(func(sl *slot) {
		if moved(sl.key) {
			want = append(want, sl.key)
			src.st.drop(sl)
		}
	})
	src.journal = slices.DeleteFunc(src.journal, func(q queued) bool { return moved(s.layout.key(&q.rec)) })

	scratch, res, err := replayImport(s.layout, &s.load, images, suffix, dst.epochs[len(dst.epochs)-1])
	if err != nil {
		s.t.Fatal(err)
	}
	s.steps, s.refused = s.steps+1, s.refused+res.refused
	addActs(s.acts, res.acts)
	var got []uint64
	scratch.store.each(func(sl *slot) {
		if dst.st.store.find(sl.key) != nil {
			s.t.Fatalf("bank %#x is on both nodes", sl.key)
		}
		got = append(got, sl.key)
		dst.st.adopt(scratch, sl)
		s.owner[sl.key] = slices.Index(s.nodes, dst)
	})
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		s.t.Fatalf("the import holds %d banks, the source gave away %d", len(got), len(want))
	}
	s.snapshot(src) // DropSessions and ImportSessions each snapshot
	s.snapshot(dst)
	return takeover
}

// images is every bank's snapshot record with its watermark zeroed: a
// watermark is a position in whichever journal the bank last folded from.
func (s *stepSim) images(nodes []*stepNode) map[uint64][]byte {
	out := make(map[uint64][]byte)
	all := func(uint64) bool { return true }
	for _, n := range nodes {
		for _, im := range s.decode(s.encode(n, nil), all) {
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
// banks and CE-heavy banks that cross the store's cap, each on a few rows,
// one second apart, with one UER at the poisoned row.
func stepFleet(rng *rand.Rand, poisonRow int) []mcelog.Event {
	nb, n := 16+rng.Intn(40), 300+rng.Intn(1200)
	first := rng.Intn(1 << 14)
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	evs := make([]mcelog.Event, n)
	for i := range evs {
		b := min(rng.Intn(nb), rng.Intn(nb)) // a few hot banks
		bank := testBankN(first + b)
		ev := mcelog.Event{
			Time:  start.Add(time.Duration(i) * time.Second),
			Addr:  hbm.CellInBank(bank, 100+40*b+rng.Intn(12), 0),
			Class: ecc.ClassCE,
			Bits:  mcelog.MakeErrBits(uint8(1+rng.Intn(255)), 1),
		}
		if b%3 == 0 && rng.Intn(5) == 0 {
			ev.Class = ecc.ClassUER
		}
		evs[i] = ev
	}
	for i := n / 4; i < n; i++ {
		if evs[i].Class == ecc.ClassUER {
			evs[i].Addr.Row = poisonRow
			break
		}
	}
	return evs
}

// TestShardStepInterleavings runs the real shard step through seeded
// schedules of everything that surrounds it in production — batches of random
// size, snapshot and restore through the engine's encoder and decoder with a
// replay of the journal from before the snapshot, handoffs of random bank
// subsets through the import path with a suffix, one model swap, a poisoned
// row — across a few nodes with journals in their own position namespaces, in
// virtual time: no clock, no sleep, no goroutine. Every bank's final snapshot
// record (watermark aside) and the deduplicated action set must equal one
// uninterrupted step over the whole stream.
func TestShardStepInterleavings(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	const poisonRow = 4000
	v1 := &stepStrategy{budget: 2, spareAt: 6, poisonRow: poisonRow}
	v2 := &stepStrategy{budget: 3, spareAt: 5, poisonRow: poisonRow}
	layout := newRecordLayout(hbm.ActiveProfile().Layout)
	resolve := func(v uint64) (core.DurableStrategy, error) {
		if v == 2 {
			return v2, nil
		}
		return v1, nil
	}
	steps, refused, ops := 0, 0, map[string]int{}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		evs := stepFleet(rng, poisonRow)
		swapAt := rng.Intn(len(evs))

		ref := newShardState(layout)
		batch := make([]queued, len(evs))
		for i, ev := range evs {
			batch[i] = queued{rec: mcelog.RecordOf(ev), lsn: uint64(i + 1)}
		}
		epochs := []modelEpoch{{version: 1, strategy: v1}, {version: 2, sinceLSN: uint64(swapAt), strategy: v2}}
		wantActs := make(map[string]bool)
		refRes := ref.step(stepEnv{epochs: epochs}, batch)
		addActs(wantActs, refRes.acts)
		if len(refRes.dead) != 1 {
			t.Fatalf("seed %d: %d dead letters in the uninterrupted run, want the poisoned row's", seed, len(refRes.dead))
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
				s.ingest(evs[next:next+k], next, swapAt, v2)
				next += k
				ops["batch"]++
			case op < 15:
				s.snapshot(n)
				ops["snapshot"]++
			case op < 17:
				s.crash(n)
				ops["restore"]++
			default:
				dst := s.nodes[rng.Intn(len(s.nodes))]
				if dst != n && s.handoff(n, dst) {
					ops["takeover"]++
				} else if dst != n {
					ops["export"]++
				}
			}
		}
		if got, want := s.images(s.nodes), s.images([]*stepNode{{st: ref, epochs: epochs}}); len(got) != len(want) {
			t.Fatalf("seed %d: %d banks across the nodes, %d in the uninterrupted run", seed, len(got), len(want))
		} else {
			for key, w := range want {
				if !bytes.Equal(got[key], w) {
					t.Fatalf("seed %d: bank %#x differs from the uninterrupted run", seed, key)
				}
			}
		}
		for k := range wantActs {
			if !s.acts[k] {
				t.Fatalf("seed %d: action %s missing", seed, k)
			}
		}
		if len(s.acts) != len(wantActs) {
			t.Fatalf("seed %d: %d distinct actions, %d in the uninterrupted run", seed, len(s.acts), len(wantActs))
		}
		steps, refused = steps+s.steps, refused+s.refused
	}
	t.Logf("%d seeds, %d steps, %d records refused by a watermark; %v", seeds, steps, refused, ops)
	if refused == 0 || ops["takeover"] == 0 || ops["export"] == 0 || ops["restore"] == 0 {
		t.Errorf("not the coverage the test is for")
	}
}
