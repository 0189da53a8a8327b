// Package stream is Cordial's fleet-scale online prediction engine: the
// piece that turns the trained pipeline into a service. Events from the
// whole fleet are ingested concurrently, routed to one of N shards by
// packed bank address, and replayed through per-bank strategy sessions —
// the exact same sessions the offline evaluator drives — so the online
// feature vectors match offline training bit-for-bit. The moment a bank
// crosses the first-3-UER budget the pipeline fires and the engine emits
// typed mitigation Actions (row-spare / bank-spare) on a bounded output
// channel.
//
// Concurrency model: each shard owns its banks — a bankStore (store.go) that
// holds a CE-only bank as a slot and a chain of observations and a bank that
// has logged a UER as a session — and is mutated only by the holder of the
// shard's mutex, on the live path its single consumer goroutine; the mutex
// makes the store readable for inspection (GET /v1/banks/{addr}) without
// stopping the world. Ingest is wait-free apart from the queue send; per-bank
// event order is preserved because one bank always hashes to the same shard
// and shard queues are FIFO.
//
// Per-event inference cost: a UER on an aggregation bank triggers one
// window prediction, which the pipeline issues as one BlockVectorsInto fill
// and one PredictBatchInto over all 16 block vectors — pooled scratch, the
// forest's single node arena walked tree-major on the consumer's own
// goroutine. The session decides into the shard's decision buffer and the
// emitted rows are carved from the shard's slab (verdictBuffers), so the shard
// consumer's critical path stays short and allocation-free under burst load.
package stream

import (
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

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

// IngestPolicy selects what Ingest does when a shard queue is full. Both
// values are in use (cordial-serve -policy block|drop), so it stays an option.
type IngestPolicy int

const (
	// IngestBlock applies backpressure: Ingest waits for queue space.
	IngestBlock IngestPolicy = iota
	// IngestDrop sheds load: Ingest drops the event, counts it, and
	// returns ErrDropped.
	IngestDrop
)

// String names the policy.
func (p IngestPolicy) String() string {
	switch p {
	case IngestBlock:
		return "block"
	case IngestDrop:
		return "drop"
	default:
		return fmt.Sprintf("IngestPolicy(%d)", int(p))
	}
}

// Sentinel errors returned by Ingest.
var (
	// ErrClosed is returned by Ingest after Close.
	ErrClosed = errors.New("stream: engine closed")
	// ErrDropped is returned under IngestDrop when a full queue sheds the
	// event.
	ErrDropped = errors.New("stream: event dropped (shard queue full)")
)

// Config configures an Engine. Strategy is required; everything else has a
// serviceable default.
type Config struct {
	// Strategy supplies per-bank prediction sessions (normally
	// core.CordialStrategy over a fitted pipeline). Shorthand for a
	// single-model engine: when Models is nil, the engine wraps Strategy in
	// StaticModels. Ignored when Models is set.
	Strategy core.Strategy
	// Models resolves strategies by version — the swap point of the online
	// retraining loop. New sessions bind the source's active model at
	// creation; SwapModel changes what "active" means without touching
	// existing sessions. Normally a *registry.Registry.
	Models ModelSource
	// Geometry validates incoming addresses. Zero means the active
	// topology profile's geometry.
	Geometry hbm.Geometry
	// Shards is the number of session shards (and consumer goroutines).
	// Zero means GOMAXPROCS.
	Shards int
	// QueueDepth is the per-shard input queue capacity. Zero means 1024.
	QueueDepth int
	// ActionBuffer is the output channel capacity. Zero means 4096. When
	// the consumer falls behind, the oldest queued action is dropped to
	// admit the newest (counted in EngineStats.ActionsDropped) so a slow
	// reader can never wedge a shard.
	ActionBuffer int
	// Policy selects the full-queue behaviour of Ingest.
	Policy IngestPolicy
	// Durability configures the WAL + snapshot layer. The zero value (no
	// Dir) runs the engine purely in memory; with a Dir the Strategy must
	// implement core.DurableStrategy so sessions can be checkpointed.
	Durability DurabilityConfig
	// DeadLetterPath, when set, appends quarantined events (events whose
	// processing panicked) as JSON lines to this file. Quarantine happens
	// with or without the file; the file preserves the evidence.
	DeadLetterPath string
	// DeadLetterRotation caps the quarantine trail on disk (file-size
	// rotation plus count/age pruning of rotated files). The zero value
	// applies the package defaults; it only matters with DeadLetterPath.
	DeadLetterRotation DeadLetterRotation
	// Metrics is the registry the engine registers its instruments in.
	// Nil means a fresh private registry — instrumentation is always on
	// (the instruments ARE the engine's counters); passing a registry only
	// controls where they are visible. Exposed via Engine.Metrics for the
	// HTTP /metrics endpoint.
	Metrics *obs.Registry
	// Logger receives the engine's structured diagnostics (retention
	// failures, quarantines). Nil means slog.Default().
	Logger *slog.Logger
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Models == nil && c.Strategy != nil {
		c.Models = StaticModels(c.Strategy)
	}
	if c.Shards == 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 1024
	}
	if c.ActionBuffer == 0 {
		c.ActionBuffer = 4096
	}
	if c.Geometry == (hbm.Geometry{}) {
		c.Geometry = hbm.ActiveProfile().Geometry
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Models == nil {
		return fmt.Errorf("stream: no model source (set Strategy or Models)")
	}
	active, _ := c.Models.ActiveModel()
	if active == nil {
		return fmt.Errorf("stream: model source has no active model")
	}
	if c.Shards < 1 {
		return fmt.Errorf("stream: shard count %d < 1", c.Shards)
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("stream: queue depth %d < 1", c.QueueDepth)
	}
	if c.ActionBuffer < 1 {
		return fmt.Errorf("stream: action buffer %d < 1", c.ActionBuffer)
	}
	if c.Policy != IngestBlock && c.Policy != IngestDrop {
		return fmt.Errorf("stream: invalid ingest policy %d", int(c.Policy))
	}
	if c.Durability.Dir != "" {
		if _, ok := active.(core.DurableStrategy); !ok {
			return fmt.Errorf("stream: durability configured but strategy %T cannot restore sessions", active)
		}
	}
	return c.Geometry.Validate()
}

// Action is one mitigation the engine recommends, emitted on the output
// channel the moment the pipeline decides it.
type Action struct {
	// Kind is the mitigation mechanism (row-spare or bank-spare).
	Kind sparing.ActionKind
	// Bank is the affected bank.
	Bank hbm.BankAddress
	// Rows lists newly isolated rows for row-granular actions; nil for
	// bank sparing. Rows already isolated by an earlier action on the same
	// bank are not re-emitted. Rows is read-only: it is carved from a slab
	// that other actions' rows share. Its capacity is its length, so an
	// append copies rather than writing into a neighbour's rows.
	Rows []int
	// Class is the failure class the pipeline assigned the bank.
	Class faultsim.Class
	// Time is the timestamp of the event that triggered the action.
	Time time.Time
}

// Engine is the sharded online prediction engine. Construct with New; all
// exported methods are safe for concurrent use.
type Engine struct {
	cfg    Config
	shards []*shard
	start  time.Time

	actions   chan Action
	metrics   engineMetrics
	batchPool sync.Pool // *batchScratch, sized to the shard count
	layout    recordLayout

	// walAppendErrs / lastAppendErr track journal-append failures for
	// readiness: a serving daemon that cannot persist intake is not ready.
	walAppendErrs atomic.Uint64
	lastAppendErr atomic.Value // string; "" once an append succeeds again

	// epochs is the copy-on-write model epoch table ([]modelEpoch, oldest
	// first); the tail is what new sessions bind. Written by SwapModel
	// (under snapMu) and boot-time recovery; read lock-free on the session
	// creation path.
	epochs atomic.Value

	// shadow holds the current *shadowEval (nil-typed when none) and
	// shadowGen numbers evaluations so stale per-session twins are inert.
	shadow    atomic.Value
	shadowGen atomic.Uint64

	// classifications counts pattern-stage classification flips (a session
	// deciding its bank's class for the first time); the lifecycle manager
	// uses it as an activity signal for drift-check scheduling.
	classifications atomic.Uint64

	// Durability state; all nil/zero when no WAL directory is configured.
	wal               *walJournal
	snapMu            sync.Mutex    // serialises Snapshot
	snapSeq           atomic.Uint64 // written under snapMu, read without it
	recoveredSessions int           // set before consumers start
	recoveredEvents   uint64

	dead *deadLetterLog

	mu     sync.RWMutex // guards closed against in-flight Ingest sends
	closed bool
	wg     sync.WaitGroup
}

// queued is one event in a shard queue: its record — the 19 bytes the wire
// and the journal carry, packed once at ingest or read straight from a
// checked journal record — and its WAL position (0 when the journal is
// disabled). 32 bytes and no pointer, so a ring of them is never scanned by
// the collector.
type queued struct {
	rec mcelog.Record
	lsn uint64
}

// recordLayout is what the engine reads of the active profile's packed-address
// layout, once, at New: a record's bank key is its packed address with the
// row and column bits cleared, and its row is read straight from those bits.
type recordLayout struct {
	bankMask uint64
	rowShift uint
	rowMask  uint64
}

func newRecordLayout(l hbm.Layout) recordLayout {
	shift, width := l.RowField()
	return recordLayout{bankMask: l.BankMask(), rowShift: shift, rowMask: 1<<width - 1}
}

// key is the record's bank key: its address's hbm.Address.BankKey.
func (l *recordLayout) key(r *mcelog.Record) uint64 { return r.Packed & l.bankMask }

// obs is the record's observation: features.ObsOf of its event.
func (l *recordLayout) obs(r *mcelog.Record) features.Obs {
	return features.MakeObs(r.UnixNano, int32(r.Packed>>l.rowShift&l.rowMask), ecc.Class(r.Class), mcelog.ErrBits(r.Bits))
}

// shard is one session partition, consumed by a single goroutine. The
// counters are per-shard obs instruments (labelled shard="i") registered
// by registerMetrics; they are the only copy of these counts.
type shard struct {
	in          *eventRing
	processed   *obs.Counter
	dropped     *obs.Counter
	quarantined *obs.Counter

	// ingestMu serialises journal-append + enqueue so queue order equals
	// LSN order within the shard (the invariant replay depends on). Only
	// taken on the durable ingest path.
	ingestMu sync.Mutex

	mu    sync.Mutex // guards store for cross-goroutine inspection
	store bankStore
	// appliedLSN is the highest journal position folded into this shard's
	// banks; the minimum across shards bounds WAL retention.
	appliedLSN uint64
	totals     shardTotals
	// acts is the consumer's reusable buffer for one event's actions: apply
	// fills it and process has emitted them before the next apply.
	acts []Action
	// verdicts is the memory the shard's folds decide into and carve their
	// actions' rows from.
	verdicts verdictBuffers
}

// verdictBuffers is the memory one folding goroutine hands verdicts off
// through: the decision buffer its sessions decide into, which the next fold
// reuses, and an append-only slab the fresh rows of its emitted actions are
// copied to. A slab is never written below its length, so rows carved from it
// stay valid for as long as an action holds them; a full slab is left to those
// actions and a new one started.
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
// totals that changed. Callers hold the shard's mu.
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
// strat — on first sight. Callers hold the shard's mu.
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
func (s *shard) view(sl *slot) bankSession {
	if sl.form() == slotHeap {
		return *s.store.session(sl)
	}
	first, last := int64(bincodec.UnsetTime), int64(bincodec.UnsetTime)
	if sl.ref != 0 {
		first, last = s.store.oldest(sl).t, s.store.nodes.at(sl.ref).t
	}
	return bankSession{
		lastLSN:       sl.lastLSN,
		version:       s.totals.version(sl.ver()).version,
		firstEvent:    first,
		lastEvent:     last,
		events:        int64(sl.count()),
		stateBytes:    int32(sl.count()) * int32(nodeBytes),
		stateDeferred: true,
	}
}

// storable reports whether a quiet session's bookkeeping is exactly the view
// of a store slot holding log — whether the stored form would lose nothing.
// A slot keeps no first-event time of its own: it is the oldest observation's.
func storable(bs *bankSession, log []features.Obs) bool {
	first, last := int64(bincodec.UnsetTime), int64(bincodec.UnsetTime)
	if n := len(log); n > 0 {
		first, last = log[0].UnixNano(), log[n-1].UnixNano()
	}
	return len(log) <= quietCap && bs.events == int64(len(log)) && bs.firstEvent == first && bs.lastEvent == last &&
		bs.shadow == nil && !bs.degraded && !bs.classified && bs.class == 0 && !bs.bankSpared &&
		bs.uerEvents == 0 && bs.rowsIsolated == 0 && bs.actions == 0 && len(bs.uerRows) == 0 && len(bs.spared) == 0
}

// quietCap is the most observations a stored bank holds; the next event
// promotes it. At core.QuietLogMax every quiet session image fits a slot and
// the session a promotion resumes builds its feature state on that very event.
const quietCap = core.QuietLogMax

// addStored puts a quiet bank into the store in the stored form, pinned to the
// version at table index ver, and addHeap one in the heap form; drop takes a
// bank of either form out again. Each keeps the totals in step. Callers hold
// mu (or are on the pre-consumer boot path). addStored's log is one the store
// holds.
func (s *shard) addStored(key uint64, ver uint32, lastLSN uint64, log []features.Obs) *slot {
	sl := s.store.insert(key)
	sl.meta, sl.lastLSN = ver<<verShift|slotStored, lastLSN
	for _, o := range log {
		s.store.appendObs(sl, o)
	}
	s.added(sl, lastLSN)
	return sl
}

func (s *shard) addHeap(key uint64, ver uint32, bs *bankSession) *slot {
	sl := s.store.insert(key)
	sl.meta = ver << verShift
	s.store.setHeap(sl, bs)
	s.added(sl, bs.lastLSN)
	return sl
}

func (s *shard) added(sl *slot, lastLSN uint64) {
	s.totals.version(sl.ver()).n.Add(1)
	v := s.view(sl)
	s.totals.move(contribution{}, v.contribution())
	if lastLSN > s.appliedLSN {
		s.appliedLSN = lastLSN
	}
}

func (s *shard) drop(sl *slot) {
	s.totals.version(sl.ver()).n.Add(-1)
	v := s.view(sl)
	s.totals.move(v.contribution(), contribution{})
	s.store.remove(sl)
}

// install puts a detached session (rebuilt from an image, or born in a handoff
// suffix) into the shard: in the stored form when it is still a quiet session
// whose bookkeeping and log a slot and its chain hold, in the heap form
// otherwise. strat is the strategy serving the session's version.
func (s *shard) install(key uint64, bs *bankSession, strat core.Strategy) {
	ver := s.totals.versionIndex(bs.version, strat)
	if qs, ok := bs.sess.(core.QuietSession); ok && s.totals.version(ver).quiet != nil {
		if log, quiet := qs.QuietLog(); quiet && storable(bs, log) && s.store.holds(log) {
			s.addStored(key, ver, bs.lastLSN, log)
			return
		}
	}
	s.addHeap(key, ver, bs)
}

// addQuiet puts a bank whose image storable found quiet into the shard: in the
// stored form when the store holds its log, otherwise in the heap form, as the
// session the version's strategy resumes from the log — what a promotion would
// make of the stored bank. im is the image's bookkeeping, which the heap form
// copies.
func (s *shard) addQuiet(key uint64, ver uint32, im *bankSession, log []features.Obs) {
	if s.store.holds(log) {
		s.addStored(key, ver, im.lastLSN, log)
		return
	}
	bs := *im
	bs.sess = s.totals.version(ver).quiet.ResumeSession(hbm.Unpack(key), slices.Clone(log))
	bs.measureState()
	s.addHeap(key, ver, &bs)
}

// bankSession couples a strategy session with the bookkeeping the engine
// layers on top: the heap form of a bank, which a bank takes at its first UER
// (see bankStore). Mutated only under the owning shard's mutex. It carries
// compact counters (SessionStats is built from them on demand by stats) and
// its row sets own no memory until a UER or a sparing decision writes them.
// The bank's address is not stored: it is the slot's key, unpacked where needed.
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
	uerEvents             uint32
	rowsIsolated, actions uint32
	// stateBytes/stateRows/stateReleased/stateDeferred mirror the strategy
	// session's feature-state footprint as of the last fold.
	stateBytes, stateRows int32
	class                 uint8 // faultsim.Class, valid when classified
	classified            bool
	bankSpared            bool
	stateReleased         bool
	stateDeferred         bool
	degraded              bool
	uerRows               rowset.Set // distinct rows with at least one UER
	spared                rowset.Set // rows isolated by emitted actions
}

// newBankSession starts the session of a bank whose first event is at
// firstEvent (Unix nanoseconds), bound to the given model epoch.
func newBankSession(bank hbm.BankAddress, ep modelEpoch, firstEvent int64) *bankSession {
	return &bankSession{
		sess:       ep.strategy.NewSession(bank),
		version:    ep.version,
		firstEvent: firstEvent,
		lastEvent:  bincodec.UnsetTime,
	}
}

// stats builds the public snapshot of the session held under key.
func (bs *bankSession) stats(key uint64) SessionStats {
	return SessionStats{
		Bank:            hbm.Unpack(key),
		Events:          int(bs.events),
		UEREvents:       int(bs.uerEvents),
		DistinctUERRows: len(bs.uerRows),
		Classified:      bs.classified,
		Class:           faultsim.Class(bs.class),
		BankSpared:      bs.bankSpared,
		RowsIsolated:    int(bs.rowsIsolated),
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
	if is, ok := bs.sess.(core.InstrumentedSession); ok {
		fp, released := is.StateFootprint()
		bs.stateBytes, bs.stateRows = int32(fp.ApproxBytes), int32(fp.TrackedRows)
		bs.stateReleased, bs.stateDeferred = released, fp.Deferred
	}
}

// New validates cfg (after defaulting) and starts the shard consumers.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		shards:  make([]*shard, cfg.Shards),
		start:   time.Now(),
		actions: make(chan Action, cfg.ActionBuffer),
		layout:  newRecordLayout(hbm.ActiveProfile().Layout),
	}
	for i := range e.shards {
		e.shards[i] = &shard{in: newEventRing(cfg.QueueDepth)}
		e.shards[i].store.heapOnly = e.layout.rowMask > maxNodeRow
	}
	e.batchPool.New = func() any { return e.newBatchScratch() }
	e.lastAppendErr.Store("")
	e.shadow.Store((*shadowEval)(nil))
	// The boot epoch is whatever the model source calls active right now.
	// Recovery may replace it (snapshot header + replayed swap records)
	// with the epochs that were actually in force before the crash.
	bootStrat, bootVer := cfg.Models.ActiveModel()
	e.epochs.Store([]modelEpoch{{version: bootVer, strategy: bootStrat}})
	// Instruments must exist before recovery (the WAL registers its own on
	// Open) and before the first Ingest.
	e.registerMetrics()
	if cfg.DeadLetterPath != "" {
		dl, err := openDeadLetterLog(cfg.DeadLetterPath, cfg.DeadLetterRotation)
		if err != nil {
			return nil, err
		}
		e.dead = dl
	}
	// Recovery (snapshot restore + WAL replay) runs before the consumers
	// start, so replayed and live events can never interleave on a shard.
	if cfg.Durability.Dir != "" {
		if err := e.recoverDurable(); err != nil {
			if e.dead != nil {
				e.dead.close()
			}
			return nil, err
		}
	}
	for _, s := range e.shards {
		s := s
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			buf := make([]queued, consumerBatch)
			for {
				n, ok := s.in.popBatch(buf)
				if !ok {
					return
				}
				for i := 0; i < n; i++ {
					e.process(s, &buf[i])
				}
			}
		}()
	}
	return e, nil
}

// consumerBatch is how many queued events a shard consumer drains per
// ring round: large enough to amortise the lock, small enough that the
// queue-depth gauge stays honest under load.
const consumerBatch = 256

// Config returns the effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// shardFor routes a bank key to its shard. Bank keys are packed addresses
// with the row/column bits zeroed, so the low bits carry no entropy; a
// splitmix64 finaliser spreads them before the modulo.
func (e *Engine) shardFor(bankKey uint64) *shard {
	return e.shards[e.shardIndex(bankKey)]
}

// shardIndex is shardFor's index form (batch ingest groups by index).
func (e *Engine) shardIndex(bankKey uint64) int {
	return int(mix64(bankKey) % uint64(len(e.shards)))
}

// mix64 is the splitmix64 finaliser, a fast full-avalanche bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// process runs one event through its bank session and emits any resulting
// actions. Runs on the shard's consumer goroutine only.
func (e *Engine) process(s *shard, q *queued) {
	out, dead := e.apply(s, q)
	if dead != nil {
		e.quarantine(s, dead) // before the event counts as processed: Drain covers the dead letter
	}
	s.processed.Inc()
	for _, a := range out {
		e.emit(a)
	}
}

// apply folds one event into its bank under the shard lock and returns the
// actions to emit. A non-UER event of a stored bank is one append to the
// bank's chain, its row read straight from the record's packed address: no
// strategy is called, so nothing can panic. Every other event goes through the
// bank's session (fold), first promoting a stored bank — also when the shard
// has no node left for the append.
func (e *Engine) apply(s *shard, q *queued) (out []Action, dead *DeadLetter) {
	key := e.layout.key(&q.rec)
	s.mu.Lock()
	defer s.mu.Unlock()
	sl := s.store.find(key)
	if sl == nil {
		sl = e.newBank(s, key, q)
	}
	if sl.form() == slotHeap {
		bs := s.store.session(sl)
		if !s.admit(&bs.lastLSN, q.lsn) {
			return nil, nil
		}
		return e.fold(s, bs, q)
	}
	if !s.admit(&sl.lastLSN, q.lsn) {
		return nil, nil
	}
	if q.rec.Class != uint8(ecc.ClassUER) && sl.count() < quietCap {
		t0 := time.Now()
		if s.store.appendObs(sl, e.layout.obs(&q.rec)) {
			s.totals.n[totalStateBytes].Add(int64(nodeBytes))
			e.metrics.processDur.ObserveSince(t0)
			return nil, nil
		}
	}
	bs, dead := s.promote(sl, q)
	if dead != nil {
		return nil, dead
	}
	return e.fold(s, bs, q)
}

// admit applies the replay watermark to a journaled event (lsn != 0): a record
// at or below the bank's watermark is already in the snapshot the bank was
// restored from and is refused; otherwise the watermark advances — before the
// event is folded, so a poisoned event is never replayed into its bank again
// after a restart. The watermark is tracked per bank (not per shard) so
// recovery stays correct even if the shard count changes across restarts.
func (s *shard) admit(last *uint64, lsn uint64) bool {
	if lsn == 0 {
		return true
	}
	if lsn <= *last {
		return false
	}
	*last = lsn
	if lsn > s.appliedLSN {
		s.appliedLSN = lsn
	}
	return true
}

// newBank starts the bank whose first event is q's. This is the swap point: a
// bank binds the model epoch in force when it is born and stays pinned to it
// for life. Live events (and the non-durable path, lsn 0) bind the current
// active epoch; replayed events bind the epoch at their journal position, so
// recovery recreates each bank under the same version it was born under. The
// bank is born stored when its strategy can resume a session from a log and
// its store can take q as its first observation; otherwise, and while a shadow
// evaluation is running — the candidate twin must see the same full history —
// it is born with its session.
func (e *Engine) newBank(s *shard, key uint64, q *queued) *slot {
	ep := e.activeEpoch()
	if q.lsn != 0 {
		ep = e.epochFor(q.lsn)
	}
	ver := s.totals.versionIndex(ep.version, ep.strategy)
	se := e.loadShadow()
	if se == nil && s.totals.version(ver).quiet != nil && q.rec.Class != uint8(ecc.ClassUER) && s.store.canAppend() {
		return s.addStored(key, ver, 0, nil)
	}
	bank := hbm.Unpack(key)
	bs := newBankSession(bank, ep, q.rec.UnixNano)
	if se != nil {
		bs.shadow = se.newShadowSession(bank)
	}
	return s.addHeap(key, ver, bs)
}

// promote moves a stored bank to the heap form ahead of the event q, which its
// slot cannot take (a UER, one observation more than the cap, or one more than
// the shard's nodes hold): the chain, oldest first, becomes the log of a
// resumed strategy session, and its nodes go back to the free list. A strategy
// that panics resuming gets the quarantine contract of one that panics
// folding: the event is returned as a dead letter and the bank, with a fresh
// session in place of the one that could not be resumed, is degraded.
func (s *shard) promote(sl *slot, q *queued) (bs *bankSession, dead *DeadLetter) {
	v := s.view(sl)
	before := v.contribution()
	v.stateBytes, v.stateDeferred = 0, false // measureState's to say
	bs = &v
	log := s.store.log(sl, nil) // the session keeps it
	s.store.freeLog(sl)
	s.store.setHeap(sl, bs)
	vc := s.totals.version(sl.ver())
	bank := hbm.Unpack(sl.key)
	func() {
		defer func() {
			if r := recover(); r != nil {
				bs.sess, bs.degraded = vc.strategy.NewSession(bank), true
				dead = newDeadLetter(q, r)
			}
		}()
		bs.sess = vc.quiet.ResumeSession(bank, log)
	}()
	bs.measureState()
	s.totals.move(before, bs.contribution())
	return bs, dead
}

// newDeadLetter is the dead-letter entry of an event whose processing
// panicked with r.
func newDeadLetter(q *queued, r any) *DeadLetter {
	ev := q.rec.Event()
	return &DeadLetter{
		Time:   ev.Time,
		Bank:   hbm.BankOf(ev.Addr).String(),
		Addr:   q.rec.Packed,
		Row:    ev.Addr.Row,
		Class:  ev.Class.String(),
		LSN:    q.lsn,
		Reason: fmt.Sprint(r),
	}
}

// fold runs one admitted event through a bank's session, under the shard
// lock. The session sees the event its record unpacks to — exactly what a
// replay of the journaled record shows it. A panic anywhere in the strategy
// session is caught: the event is returned as a dead-letter entry, the session
// is marked degraded (it stops feeding its strategy session, whose state may
// be mid-mutation), and the shard keeps consuming — one poisoned event must
// never take the daemon down.
func (e *Engine) fold(s *shard, bs *bankSession, q *queued) (out []Action, dead *DeadLetter) {
	if bs.degraded {
		// The strategy session is quarantined; keep the observational
		// bookkeeping so /statsz still reflects the bank's traffic.
		bs.events++
		bs.lastEvent = q.rec.UnixNano
		return nil, nil
	}
	// The shard totals take the fold's net change to the session. Deferred
	// calls run last-in first-out: the recover, then the totals (which
	// therefore count a session the recover degraded), then apply's unlock.
	before := bs.contribution()
	defer func() { s.totals.move(before, bs.contribution()) }()
	defer func() {
		if r := recover(); r != nil {
			bs.degraded = true
			out = nil
			dead = newDeadLetter(q, r)
		}
	}()
	ev := q.rec.Event()
	prevClassified := bs.classified
	// Shadow scoring needs the primary's pre-fold coverage: was this UER's
	// row (or the whole bank) already isolated when the event arrived?
	var primCoveredUER bool
	if bs.shadow != nil && ev.Class == ecc.ClassUER {
		primCoveredUER = bs.bankSpared || bs.spared.Has(ev.Addr.Row)
	}
	out = foldEvent(bs, ev, e.metrics.processDur, s.acts[:0], &s.verdicts)
	s.acts = out
	if !prevClassified && bs.classified {
		e.classifications.Add(1)
	}
	if bs.shadow != nil {
		if se := e.loadShadow(); se != nil && bs.shadow.gen == se.gen {
			primSpareBank := false
			primFresh := 0
			for _, a := range out {
				switch a.Kind {
				case sparing.ActionBankSpare:
					primSpareBank = true
				case sparing.ActionRowSpare:
					primFresh += len(a.Rows)
				}
			}
			se.foldShadow(bs.shadow, ev, &s.verdicts.dec, primCoveredUER, primSpareBank, primFresh)
		} else {
			bs.shadow = nil // evaluation over or superseded; release the twin
		}
	}
	return out, nil
}

// foldEvent runs one event through a bank session: the strategy's decision
// (into vb's buffer when the session is a core.BufferedSession, through
// OnEvent otherwise), the engine's session bookkeeping (counts, class,
// feature-state footprint) and action derivation with per-bank row dedupe;
// the actions are appended to out, their rows carved from vb's slab. It
// mutates only the session and vb, never shard-level state, so it serves
// both the shard consumer path (apply, holding the shard lock) and cluster
// handoff's suffix replay over sessions that are not installed in any shard
// yet (proc nil: a replayed fold is not a served one). The caller owns panic
// handling: a panic from the strategy session unwinds through here with the
// session's counters partially updated, and the caller must mark the session
// degraded.
func foldEvent(bs *bankSession, ev mcelog.Event, proc *obs.Histogram, out []Action, vb *verdictBuffers) []Action {
	t0 := time.Now()
	d := core.Decide(bs.sess, ev, &vb.dec)
	proc.ObserveSince(t0)

	bs.events++
	bs.lastEvent = ev.Time.UnixNano()
	if ev.Class == ecc.ClassUER {
		bs.uerEvents++
		bs.uerRows.Add(ev.Addr.Row)
	}
	if cs, ok := bs.sess.(core.ClassifiedSession); ok && !bs.classified {
		if class, fired := cs.Class(); fired {
			bs.classified = true
			bs.class = uint8(class)
		}
	}
	bs.measureState()

	if d.SpareBank && !bs.bankSpared {
		bs.bankSpared = true
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
			bs.rowsIsolated += uint32(len(fresh))
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

// emit delivers an action, evicting the oldest queued action when the
// buffer is full so a slow consumer can never block a shard.
func (e *Engine) emit(a Action) {
	for {
		select {
		case e.actions <- a:
			e.metrics.actionsEmitted.Inc()
			return
		default:
		}
		select {
		case <-e.actions:
			e.metrics.actionsDropped.Inc()
		default:
		}
	}
}

// Actions returns the engine's output channel. It is closed by Close after
// all in-flight events have drained.
func (e *Engine) Actions() <-chan Action { return e.actions }

// Session returns a snapshot of one bank's session state.
func (e *Engine) Session(bank hbm.BankAddress) (SessionStats, bool) {
	return e.sessionByKey(bank.BankKey())
}

func (e *Engine) sessionByKey(key uint64) (SessionStats, bool) {
	s := e.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	sl := s.store.find(key)
	if sl == nil {
		return SessionStats{}, false
	}
	v := s.view(sl)
	return v.stats(key), true
}

// Drain blocks until every accepted event has been processed (or the
// context budget d elapses; d <= 0 means wait forever). It does not stop
// the engine — use it to checkpoint a replay before reading stats.
func (e *Engine) Drain(d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		var processed uint64
		for _, s := range e.shards {
			processed += s.processed.Value()
		}
		if processed >= e.metrics.ingested.Value() {
			return nil
		}
		if d > 0 && time.Now().After(deadline) {
			return fmt.Errorf("stream: drain timed out after %v (%d of %d processed)",
				d, processed, e.metrics.ingested.Value())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Close stops intake, drains every shard queue through the sessions, then
// closes the Actions channel. Safe to call more than once. Close does NOT
// snapshot: a plain Close is deliberately equivalent to a crash (the WAL
// carries everything), so tests and operators exercise the same recovery
// path either way. Call Snapshot first for a fast subsequent boot.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	for _, s := range e.shards {
		s.in.close()
	}
	e.wg.Wait()
	close(e.actions)
	var err error
	if e.wal != nil {
		err = e.wal.Close()
	}
	if e.dead != nil {
		if cerr := e.dead.close(); err == nil {
			err = cerr
		}
	}
	return err
}
