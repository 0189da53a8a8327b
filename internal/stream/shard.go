package stream

import (
	"fmt"
	"sync/atomic"

	"cordial/internal/bincodec"
	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/faultsim"
	"cordial/internal/features"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/obs"
	"cordial/internal/rowset"
	"cordial/internal/sparing"
)

// shardState is everything a shard's events fold into: the bankStore that holds
// its banks, the running totals with the version table, the highest journal
// position folded, and the buffers step hands its verdicts out through. The
// holder of the owning shard's mu writes it; an import's scratch state has no
// other holder.
type shardState struct {
	store bankStore
	// appliedLSN is the journal position the banks are complete to: every
	// journaled record of theirs at or below it has been folded into them or
	// refused. The minimum across shards is a snapshot's floor, which bounds
	// WAL retention and which replay holds the snapshot authoritative to.
	appliedLSN uint64
	totals     shardTotals
	layout     recordLayout
	// acts and dead are step's result buffers: a step's caller has emitted and
	// quarantined what they hold before the next step reuses them.
	acts []Action
	dead []DeadLetter
	// verdicts is the memory the folds decide into and carve their actions'
	// rows from.
	verdicts verdictBuffers
	// chain is scratch for a stored bank's observations, collected or decoded
	// to resume a session from (which does not keep them), to store, encode or
	// move the bank.
	chain []features.Obs
	// shadowGen is the shadow evaluation the shadowed marks of the store's
	// slots refer to: the last one a step ran under (zero before the first).
	shadowGen uint64
	// foldStage times the folds of admitted events, once the state is the
	// live consumer's; replay and import fold untimed.
	foldStage *obs.Stage
}

func newShardState(layout recordLayout) *shardState {
	st := &shardState{layout: layout}
	st.store.init()
	return st
}

// recordLayout is the engine's profile and what the engine reads of its
// packed-address layout, once, at New: a record's bank key is its packed
// address with the row and column bits cleared, and its row is read straight
// from those bits.
type recordLayout struct {
	prof     *hbm.Profile
	bankMask uint64
	rowShift uint
	rowMask  uint64
}

func newRecordLayout(p *hbm.Profile) recordLayout {
	shift, width := p.Layout.RowField()
	return recordLayout{prof: p, bankMask: p.Layout.BankMask(), rowShift: shift, rowMask: 1<<width - 1}
}

// bank is the bank a key names.
func (l *recordLayout) bank(key uint64) hbm.BankAddress { return l.prof.Layout.UnpackBank(key) }

// key is the record's bank key: its address's hbm.Address.BankKey.
func (l *recordLayout) key(r *mcelog.Record) uint64 { return r.Packed & l.bankMask }

// obs is the record's observation: features.ObsOf of its event.
func (l *recordLayout) obs(r *mcelog.Record) features.Obs {
	return features.MakeObs(r.UnixNano, int32(r.Packed>>l.rowShift&l.rowMask), ecc.Class(r.Class), mcelog.ErrBits(r.Bits))
}

// verdictBuffers is the memory a shard's folds hand verdicts off through: the
// decision buffer its sessions decide into, which the next fold reuses, and an
// append-only slab the fresh rows of its emitted actions are copied to. A slab
// is never written below its length, so rows carved from it stay valid for as
// long as an action holds them; a full slab is left to those actions and a new
// one started.
type verdictBuffers struct {
	dec  core.DecisionBuffer
	slab []int
}

// slabInts is the size of a rows slab: one malloc per 1 024 emitted rows,
// where each action would cost its own, and 8 KiB pinned at most by the
// actions a slab is left to.
const slabInts = 1024

// carve returns an empty slice with room for n rows, carved from the slab with
// its capacity clipped to n. A row set larger than a slab gets its own array.
func (v *verdictBuffers) carve(n int) []int {
	if n > slabInts {
		return make([]int, 0, n)
	}
	if cap(v.slab)-len(v.slab) < n {
		v.slab = make([]int, 0, slabInts)
	}
	l := len(v.slab)
	v.slab = v.slab[:l+n]
	return v.slab[l : l : l+n]
}

// total names one of a shard's running totals over its sessions.
type total int

const (
	totalSessions total = iota
	totalStateBytes
	totalStateRows
	totalReleased
	totalQuiet
	totalDegraded
	numTotals
)

// shardTotals are the running totals over one shard's banks. Only the holder
// of the shard's mu writes them — so writes never race each other and the
// totals always equal a recount of the store — but they are atomics so that
// Stats, the gauges, readiness and /statsz read them without the lock: each
// value is consistent on its own, and no two are read at one instant (what
// the counters beside them already promise).
type shardTotals struct {
	n [numTotals]atomic.Int64
	// byVersion is the shard's version table: one entry per model version a
	// bank of the shard is or was pinned to, in order of first sight, never
	// reordered — a store slot names its version by index. A shard meets a new
	// version once per model swap, so the table is copy-on-write: readers load
	// it and read the counts, the writer replaces it to grow it.
	byVersion atomic.Pointer[[]*versionCount]
}

// versionCount is one model version in a shard: how many of the shard's banks
// are pinned to it, and the strategy that serves it — held here so that a
// stored bank's promotion never has to resolve a model. (A version names one
// strategy for the engine's life: strategyFor resolves by version alone.)
// Readers without the shard's mu read version and n only.
type versionCount struct {
	version  uint64
	n        atomic.Int64
	strategy core.Strategy
	// quiet is strategy as a core.QuietStrategy, nil when it is none: banks
	// pinned to such a version take the heap form from birth.
	quiet core.QuietStrategy
}

// contribution is what one bank adds to each total.
type contribution [numTotals]int64

func (bs *bankSession) contribution() contribution {
	c := contribution{totalSessions: 1, totalStateBytes: int64(bs.stateBytes), totalStateRows: int64(bs.stateRows)}
	if bs.stateReleased {
		c[totalReleased] = 1
	}
	if bs.stateDeferred {
		c[totalQuiet] = 1
	}
	if bs.degraded {
		c[totalDegraded] = 1
	}
	return c
}

// move applies the net change of one bank's contribution, touching only the
// totals that changed.
func (t *shardTotals) move(from, to contribution) {
	for i := range t.n {
		if d := to[i] - from[i]; d != 0 {
			t.n[i].Add(d)
		}
	}
}

// versions returns the version table.
func (t *shardTotals) versions() []*versionCount {
	if p := t.byVersion.Load(); p != nil {
		return *p
	}
	return nil
}

// version returns the table entry at index ver.
func (t *shardTotals) version(ver uint32) *versionCount { return t.versions()[ver] }

// versionIndex returns the table index of version, adding it — served by
// strat — on first sight.
func (t *shardTotals) versionIndex(version uint64, strat core.Strategy) uint32 {
	table := t.versions()
	for i, vc := range table {
		if vc.version == version {
			return uint32(i)
		}
	}
	if len(table) == maxVersions {
		panic(fmt.Sprintf("stream: a shard has met %d model versions, more than a slot can name", maxVersions))
	}
	vc := &versionCount{version: version, strategy: strat}
	vc.quiet, _ = strat.(core.QuietStrategy)
	grown := append(table[:len(table):len(table)], vc)
	t.byVersion.Store(&grown)
	return uint32(len(table))
}

// view returns the bookkeeping of the bank in sl: the heap session's own, or
// what a stored bank's slot and chain amount to (sess is then nil). A stored
// bank and a session that has folded the same events show the same bookkeeping
// apart from stateBytes, which for a stored bank is the bytes of its nodes.
func (st *shardState) view(sl *slot) bankSession {
	if sl.form() == slotHeap {
		return *st.store.session(sl)
	}
	first, last := int64(bincodec.UnsetTime), int64(bincodec.UnsetTime)
	if sl.ref != 0 {
		first, last = st.store.oldest(sl).t, st.store.nodes.at(sl.ref).t
	}
	return bankSession{
		lastLSN:       sl.lastLSN,
		version:       st.totals.version(sl.ver()).version,
		firstEvent:    first,
		lastEvent:     last,
		events:        int64(sl.count()),
		stateBytes:    int32(sl.count()) * int32(nodeBytes),
		stateDeferred: true,
	}
}

// storable reports whether a quiet bank's bookkeeping is exactly the view of a
// store slot holding log — whether the stored form would lose nothing.
// A slot keeps no first-event time of its own: it is the oldest observation's.
func storable(bs *bankSession, log []features.Obs) bool {
	first, last := int64(bincodec.UnsetTime), int64(bincodec.UnsetTime)
	if n := len(log); n > 0 {
		first, last = log[0].UnixNano(), log[n-1].UnixNano()
	}
	return len(log) <= quietCap && bs.events == int64(len(log)) && bs.firstEvent == first && bs.lastEvent == last &&
		bs.shadow == nil && !bs.degraded && !bs.classified && bs.class == 0 && !bs.bankSpared &&
		bs.uerEvents == 0 && bs.actions == 0 && bs.uerRows.Count() == 0 && bs.spared.Count() == 0
}

// quietCap is the most observations a stored bank holds; the next event
// promotes it. At core.QuietLogMax a stored bank's chain always encodes as a
// quiet image.
const quietCap = core.QuietLogMax

// addStored puts a quiet bank into the store in the stored form, pinned to the
// version at table index ver, and addHeap one in the heap form; drop takes a
// bank of either form out again. Each keeps the totals in step. addStored's
// log is one the store holds.
func (st *shardState) addStored(key uint64, ver uint32, lastLSN uint64, log []features.Obs) *slot {
	sl := st.store.insert(key)
	sl.meta, sl.lastLSN = ver<<verShift|slotStored, lastLSN
	for _, o := range log {
		st.store.appendObs(sl, o)
	}
	st.added(sl, lastLSN)
	return sl
}

func (st *shardState) addHeap(key uint64, ver uint32, bs *bankSession) *slot {
	sl := st.store.insert(key)
	sl.meta = ver << verShift
	st.added(sl, st.store.setHeap(sl, bs).lastLSN)
	return sl
}

func (st *shardState) added(sl *slot, lastLSN uint64) {
	st.totals.version(sl.ver()).n.Add(1)
	v := st.view(sl)
	st.totals.move(contribution{}, v.contribution())
	if lastLSN > st.appliedLSN {
		st.appliedLSN = lastLSN
	}
}

func (st *shardState) drop(sl *slot) {
	st.totals.version(sl.ver()).n.Add(-1)
	v := st.view(sl)
	st.totals.move(v.contribution(), contribution{})
	st.store.remove(sl)
}

// addQuiet puts a bank that has logged nothing but log into the store, pinned
// to a version whose strategy is a core.QuietStrategy: in the stored form when
// its bookkeeping im is storable and the store holds log, otherwise in the heap
// form, as the session the strategy resumes from log — what a promotion would
// make of the stored bank — with im copied.
func (st *shardState) addQuiet(key uint64, ver uint32, im *bankSession, log []features.Obs) {
	if storable(im, log) && st.store.holds(log) {
		st.addStored(key, ver, im.lastLSN, log)
		return
	}
	bs := *im
	bs.sess = st.totals.version(ver).quiet.ResumeSession(st.layout.bank(key), log)
	bs.measureState()
	st.addHeap(key, ver, &bs)
}

// bankSession couples a strategy session with the bookkeeping the engine
// layers on top: the heap form of a bank, which a bank takes at its first UER
// (see bankStore). It carries compact counters (SessionStats is built from
// them on demand by stats) and two row sets held by value, whose runs own no
// memory until one set outgrows its inline runs. The bank's address is not
// stored: it is the slot's key, unpacked where needed.
type bankSession struct {
	sess core.Session
	// shadow is the candidate-model twin while a shadow evaluation that
	// saw this session's birth is running; nil otherwise.
	shadow *shadowSession
	// lastLSN is the newest journal record applied to this session; replay
	// skips records at or below it. Tracked per session (not per shard) so
	// recovery stays correct even if the shard count changes across
	// restarts.
	lastLSN uint64
	// version is the model version the session is pinned to.
	version uint64
	// firstEvent and lastEvent are Unix nanoseconds; lastEvent is
	// bincodec.UnsetTime until an event has been folded.
	firstEvent, lastEvent int64
	events                int64
	uerEvents, actions    uint32
	// stateBytes/stateRows/stateReleased mirror the strategy session's
	// feature-state footprint as of the last fold. stateDeferred marks the view
	// of a stored bank: a heap session's is always false.
	stateBytes, stateRows int32
	class                 uint8 // faultsim.Class, valid when classified
	classified            bool
	bankSpared            bool
	stateReleased         bool
	stateDeferred         bool
	degraded              bool
	// uerRows holds every row a UER has landed on, spared every row an
	// emitted action has isolated.
	uerRows, spared rowset.Runs
}

// stats builds the public snapshot of the bank's session.
func (bs *bankSession) stats(bank hbm.BankAddress) SessionStats {
	return SessionStats{
		Bank:            bank,
		Events:          int(bs.events),
		UEREvents:       int(bs.uerEvents),
		DistinctUERRows: bs.uerRows.Count(),
		Classified:      bs.classified,
		Class:           faultsim.Class(bs.class),
		BankSpared:      bs.bankSpared,
		RowsIsolated:    bs.spared.Count(),
		Actions:         int(bs.actions),
		FirstEvent:      bincodec.TimeOf(bs.firstEvent),
		LastEvent:       bincodec.TimeOf(bs.lastEvent),
		StateBytes:      int(bs.stateBytes),
		StateRows:       int(bs.stateRows),
		StateReleased:   bs.stateReleased,
		StateDeferred:   bs.stateDeferred,
		ModelVersion:    bs.version,
		Degraded:        bs.degraded,
	}
}

// measureState refreshes the footprint mirror from the strategy session.
func (bs *bankSession) measureState() {
	fp, released := bs.sess.StateFootprint()
	bs.stateBytes, bs.stateRows = int32(fp.ApproxBytes), int32(fp.TrackedRows)
	bs.stateReleased = released
}

// stepEnv is what a caller hands step beside the batch: all that differs
// between the live consumer, boot replay and a handoff import.
type stepEnv struct {
	// epochs is the model epoch table a bank born in the batch binds from
	// (epochAt): the epoch in force at its first event's journal position, the
	// newest for an event without one. The live consumer and replay pass the
	// engine's table; an import passes its active epoch alone, for a handoff
	// suffix's positions are the source's.
	epochs []modelEpoch
	// shadow is the running shadow evaluation, nil for none: a bank born in the
	// batch gets a twin on its candidate, and the current twins are fed.
	shadow *shadowEval
	// floor is the floor of the snapshot a replay or an import restored the
	// banks from, zero for none. The snapshot holds every bank with a
	// journaled record at or below it but the banks dropped before it was
	// taken, so such a record of a bank the state lacks is refused: a dropped
	// bank stays dropped.
	floor uint64
}

// stepResult is what came of a step. acts and dead are the state's buffers,
// valid until its next step.
type stepResult struct {
	// acts are the actions to emit, in fold order.
	acts []Action
	// dead are the events whose fold panicked, to quarantine.
	dead []DeadLetter
	// refused counts journaled events at or below their bank's watermark.
	refused int
}

// step folds a batch of queued events, in order, into st's banks. It is the
// only code that admits, promotes or folds an event. For each event:
//
//   - a journaled event at or below env.floor of a bank not held is refused:
//     the bank was dropped before the snapshot the state was restored from;
//   - a bank not seen before is born (newBank), binding its model epoch;
//   - a journaled event at or below its bank's watermark is refused (admit);
//   - a non-UER event of a stored bank with room in its chain is one append to
//     the chain, its row read straight from the record's packed address: no
//     strategy is called, so nothing can panic;
//   - every other event goes through the bank's session (fold), a stored bank
//     first promoted — also when the shard has no node left for the append.
func (st *shardState) step(env stepEnv, batch []queued) stepResult {
	res := stepResult{acts: st.acts[:0], dead: st.dead[:0]}
	if se := env.shadow; se != nil && se.gen != st.shadowGen {
		// The marks name one evaluation: a bank born under an earlier one gets
		// no twin from this one, as a heap bank's stale twin is released.
		if st.shadowGen != 0 {
			st.store.each(func(sl *slot) { sl.meta &^= shadowedBit })
		}
		st.shadowGen = se.gen
	}
	for i := range batch {
		q := &batch[i]
		key := st.layout.key(&q.rec)
		sl := st.store.find(key)
		if sl == nil {
			if q.lsn != 0 && q.lsn <= env.floor {
				res.refused++
				continue
			}
			sl = st.newBank(&env, key, q)
		}
		var bs *bankSession
		last := &sl.lastLSN
		if sl.form() == slotHeap {
			bs = st.store.session(sl)
			last = &bs.lastLSN
		}
		if !st.admit(last, q.lsn) {
			res.refused++
			continue
		}
		t0 := st.foldStage.Start()
		if bs == nil && q.rec.Class != uint8(ecc.ClassUER) && sl.count() < quietCap && st.store.appendObs(sl, st.layout.obs(&q.rec)) {
			st.totals.n[totalStateBytes].Add(int64(nodeBytes))
			if env.shadow != nil && sl.shadowed() {
				env.shadow.events.Add(1) // what its twin would have folded
			}
		} else {
			st.fold(&env, sl, bs, q, &res)
		}
		st.foldStage.Stop(t0)
	}
	st.acts, st.dead = res.acts, res.dead
	return res
}

// admit applies the replay watermark to a journaled event (lsn != 0): a record
// at or below the bank's watermark is already in the image the bank was
// restored from and is refused; otherwise the watermark advances — before the
// event is folded, so a poisoned event is never replayed into its bank again
// after a restart. The watermark is tracked per bank (not per shard) so
// recovery stays correct even if the shard count changes across restarts.
// Either way the record is accounted for, and appliedLSN passes it.
func (st *shardState) admit(last *uint64, lsn uint64) bool {
	if lsn == 0 {
		return true
	}
	if lsn > st.appliedLSN {
		st.appliedLSN = lsn
	}
	if lsn <= *last {
		return false
	}
	*last = lsn
	return true
}

// newBank starts the bank whose first event is q's. This is the swap point: a
// bank binds the epoch env names for q's position and stays pinned to it for
// life, so replay recreates each bank under the version it was born under. The
// bank is born stored when its strategy — and a running shadow evaluation's
// candidate — can resume a session from a log and its store can take q as its
// first observation; otherwise it is born with its session. Under a shadow
// evaluation a stored bank is marked shadowed, and its candidate twin is
// resumed from the same chain as the bank when it promotes (fold): the twin
// sees the bank's full history either way.
func (st *shardState) newBank(env *stepEnv, key uint64, q *queued) *slot {
	ep := epochAt(env.epochs, q.lsn)
	ver := st.totals.versionIndex(ep.version, ep.strategy)
	se := env.shadow
	if se != nil {
		se.banks.Add(1)
	}
	if st.totals.version(ver).quiet != nil && (se == nil || se.quiet != nil) && q.rec.Class != uint8(ecc.ClassUER) && st.store.canAppend() {
		sl := st.addStored(key, ver, 0, nil)
		if se != nil {
			sl.meta |= shadowedBit
		}
		return sl
	}
	bank := st.layout.bank(key)
	bs := &bankSession{sess: ep.strategy.NewSession(bank), version: ep.version, firstEvent: q.rec.UnixNano, lastEvent: bincodec.UnsetTime}
	if se != nil {
		bs.shadow = se.newShadowSession(bank, nil)
	}
	return st.addHeap(key, ver, bs)
}

// fold runs one admitted event through its bank's session — bs, or, for a
// stored bank (bs nil), the session a promotion resumes from the bank's chain
// — and then through the bank's shadow twin. The session sees the event its
// record unpacks to: exactly what a replay of the journaled record shows it.
//
// A panic anywhere in the strategy, resuming or folding, is caught: the event
// becomes a dead letter and its actions are discarded, the bank is degraded —
// it keeps counting its traffic but stops feeding its strategy session, whose
// state may be mid-mutation (a promotion that panicked leaves a fresh session,
// so snapshots still encode the bank) — and the batch goes on: one poisoned
// event must never take the daemon down.
func (st *shardState) fold(env *stepEnv, sl *slot, bs *bankSession, q *queued, res *stepResult) {
	promote := bs == nil
	twin := promote && sl.shadowed() && env.shadow != nil
	var before contribution
	switch {
	case promote:
		// The chain, oldest first, is what the session resumes from, and its
		// nodes go back to the free list.
		v := st.view(sl)
		before = v.contribution()
		v.stateBytes, v.stateDeferred = 0, false // measureState's to say
		st.chain = st.store.log(sl, st.chain)
		st.store.freeLog(sl)
		bs = st.store.setHeap(sl, &v)
	case bs.degraded:
		bs.events++
		bs.lastEvent = q.rec.UnixNano
		return
	default:
		before = bs.contribution()
	}
	// The totals take the fold's net change to the bank. Deferred calls run
	// last-in first-out: the recover, then the totals, which therefore count a
	// bank the recover degraded.
	defer func() { st.totals.move(before, bs.contribution()) }()
	n := len(res.acts)
	defer func() {
		if r := recover(); r != nil {
			if bs.sess == nil { // the promotion's resume panicked
				bs.sess = st.totals.version(sl.ver()).strategy.NewSession(st.layout.bank(sl.key))
				bs.measureState()
			}
			bs.degraded = true
			res.acts = res.acts[:n]
			res.dead = append(res.dead, st.deadLetterOf(q, r))
		}
	}()
	if promote {
		bs.sess = st.totals.version(sl.ver()).quiet.ResumeSession(st.layout.bank(sl.key), st.chain)
		bs.measureState()
		if twin {
			bs.shadow = env.shadow.newShadowSession(st.layout.bank(sl.key), st.chain)
		}
	}
	ev := q.rec.Event(st.layout.prof)
	// Shadow scoring needs the primary's pre-fold coverage: was this UER's
	// row (or the whole bank) already isolated when the event arrived?
	var primCoveredUER bool
	if bs.shadow != nil && ev.Class == ecc.ClassUER {
		primCoveredUER = bs.bankSpared || bs.spared.Has(ev.Addr.Row)
	}
	res.acts = foldEvent(bs, ev, res.acts, &st.verdicts)
	if bs.shadow == nil {
		return
	}
	if se := env.shadow; se != nil && bs.shadow.gen == se.gen {
		primSpareBank, primFresh := false, 0
		for _, a := range res.acts[n:] {
			switch a.Kind {
			case sparing.ActionBankSpare:
				primSpareBank = true
			case sparing.ActionRowSpare:
				primFresh += len(a.Rows)
			}
		}
		se.foldShadow(bs.shadow, ev, &st.verdicts.dec, primCoveredUER, primSpareBank, primFresh)
	} else {
		bs.shadow = nil // evaluation over or superseded; release the twin
	}
}

// deadLetterOf is the dead-letter entry of an event whose processing
// panicked with r.
func (st *shardState) deadLetterOf(q *queued, r any) DeadLetter {
	ev := q.rec.Event(st.layout.prof)
	return DeadLetter{
		Time:   ev.Time,
		Bank:   hbm.BankOf(ev.Addr).String(),
		Addr:   q.rec.Packed,
		Row:    ev.Addr.Row,
		Class:  ev.Class.String(),
		LSN:    q.lsn,
		Reason: fmt.Sprint(r),
	}
}

// foldEvent runs one event through a bank session: the strategy's decision
// into vb's buffer, the engine's session bookkeeping (counts, class,
// feature-state footprint) and action derivation with per-bank row dedupe; the
// actions are appended to out, their rows carved from vb's slab. A panic from
// the strategy session unwinds through here with the session's counters
// partially updated; fold degrades the session.
func foldEvent(bs *bankSession, ev mcelog.Event, out []Action, vb *verdictBuffers) []Action {
	d := bs.sess.Decide(ev, &vb.dec)

	bs.events++
	bs.lastEvent = ev.Time.UnixNano()
	if ev.Class == ecc.ClassUER {
		bs.uerEvents++
		bs.uerRows.Add(ev.Addr.Row)
	}
	if !bs.classified {
		if class, fired := bs.sess.Class(); fired {
			bs.classified = true
			bs.class = uint8(class)
		}
	}
	bs.measureState()

	if d.SpareBank && !bs.bankSpared {
		bs.bankSpared = true
		bs.sess = core.Released(bs.sess)
		bs.actions++
		out = append(out, Action{
			Kind:  sparing.ActionBankSpare,
			Bank:  hbm.BankOf(ev.Addr),
			Class: faultsim.Class(bs.class),
			Time:  ev.Time,
		})
	}
	if len(d.IsolateRows) > 0 {
		// Emit each row at most once per bank: repeat predictions of an
		// already-isolated row are no-ops, exactly as the offline sparing
		// engine treats them. The same dedupe makes recovery's at-least-once
		// replay convergent: re-derived actions for already-spared rows are
		// suppressed here.
		// Consecutive windows of a bank overlap almost entirely, so count
		// first and carve fresh to the few rows that are new. The decision's
		// own rows are not handed on: they are the buffer's, and a whole
		// window's array held by every retained action would pin far more
		// than the fresh rows.
		n := 0
		for _, r := range d.IsolateRows {
			if !bs.spared.Has(r) {
				n++
			}
		}
		if n > 0 {
			fresh := vb.carve(n)
			for _, r := range d.IsolateRows {
				if bs.spared.Add(r) {
					fresh = append(fresh, r)
				}
			}
			bs.actions++
			out = append(out, Action{
				Kind:  sparing.ActionRowSpare,
				Bank:  hbm.BankOf(ev.Addr),
				Rows:  fresh,
				Class: faultsim.Class(bs.class),
				Time:  ev.Time,
			})
		}
	}
	return out
}
