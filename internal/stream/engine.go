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
// One step, three callers: a shard's banks live in a shardState (shard.go) —
// a bankStore that holds a CE-only bank as a slot and a chain of observations
// and a bank that has logged a UER as a session — and shardState.step is the
// only code that admits, promotes or folds an event into them. It takes no
// lock and reads no clock of its own. Three paths call it: the shard's
// consumer goroutine (consume, below) with one lock per popped batch, boot
// replay (durable.go) with batches of journal records, and a handoff import
// (handoff.go) over a scratch state whose banks then move into the shards.
// The shard's mutex also makes the store readable for inspection (GET
// /v1/banks/{addr}) without stopping the world. Ingest is wait-free apart from
// the queue send; per-bank event order is preserved because one bank always
// hashes to the same shard and shard queues are FIFO.
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
	"sync"
	"sync/atomic"
	"time"

	"cordial/internal/core"
	"cordial/internal/faultsim"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/obs"
	"cordial/internal/sparing"
)

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
	// Strategy supplies per-bank prediction sessions: core.CordialStrategy
	// over a fitted pipeline, or a baseline. The engine keeps the CE-only
	// banks of a core.QuietStrategy in its shard stores as their observations
	// and gives every other strategy's banks a session at their first event.
	// Shorthand for a single-model engine: when Models is nil, the engine
	// wraps Strategy in StaticModels. Ignored when Models is set.
	Strategy core.Strategy
	// Models resolves strategies by version — the swap point of the online
	// retraining loop. New sessions bind the source's active model at
	// creation; SwapModel changes what "active" means without touching
	// existing sessions. Normally a *registry.Registry.
	Models ModelSource
	// Profile is the topology the engine's addresses are packed under: the
	// record layout, ingest decode and ownership, journal replay and handoff
	// import all read it. Nil means hbm.HBM2E.
	Profile *hbm.Profile
	// Geometry is bench-only until ROADMAP item 15: zero, or the profile's
	// geometry, which incoming addresses are validated against either way.
	Geometry hbm.Geometry
	// Shards is the number of session shards (and consumer goroutines).
	// Zero means GOMAXPROCS.
	Shards int
	// QueueDepth is the per-shard input queue capacity. Zero means 1024.
	QueueDepth int
	// ActionBuffer is the most actions outstanding, emitted and not received
	// from Actions; zero means 4096. At the bound the oldest is dropped for the
	// newest (EngineStats.ActionsDropped), so a slow reader never wedges a
	// shard. Memory follows the backlog: 1 024 in the channel, then chunks.
	ActionBuffer int
	// Policy selects the full-queue behaviour of Ingest.
	Policy IngestPolicy
	// Durability configures the WAL + snapshot layer. The zero value (no
	// Dir) runs the engine purely in memory. With a Dir a checkpoint fails
	// for a strategy whose sessions have no image (In-row, Calchas); it
	// undoes nothing (ImportSessions, DropSessions and model swaps have
	// applied) and leaves the engine not ready until one succeeds.
	Durability DurabilityConfig
	// DeadLetterPath, when set, appends quarantined events (events whose
	// processing panicked) as JSON lines to this file. Quarantine happens
	// with or without the file; the file preserves the evidence.
	DeadLetterPath string
	// DeadLetterRotation caps the quarantine trail on disk (file-size
	// rotation plus count/age pruning of rotated files). The zero value
	// applies the package defaults; it only matters with DeadLetterPath.
	DeadLetterRotation DeadLetterRotation
	// Logger receives the engine's structured diagnostics (retention
	// failures, quarantines). Nil means slog.Default().
	Logger *slog.Logger
	// Clock is the engine's time source, and through Config() that of the
	// cluster agent and the lifecycle manager on it. Nil means
	// obs.SystemClock.
	Clock obs.Clock
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
	if c.Profile == nil {
		c.Profile = hbm.HBM2E
	}
	if c.Geometry == (hbm.Geometry{}) {
		c.Geometry = c.Profile.Geometry
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Clock == nil {
		c.Clock = obs.SystemClock{}
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
	// A store node holds a row in nodeRowBits (hbm3's 17 is the widest).
	if _, width := c.Profile.Layout.RowField(); width > nodeRowBits {
		return fmt.Errorf("stream: profile %q has a %d-bit row field; the engine holds rows in %d", c.Profile.Name, width, nodeRowBits)
	}
	if c.Geometry != c.Profile.Geometry {
		return fmt.Errorf("stream: geometry %+v is not profile %q's", c.Geometry, c.Profile.Name)
	}
	return c.Profile.Validate()
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

	actions *actionQueue
	metrics engineMetrics
	// scratch is the free list of IngestBatch working sets, each sized to the
	// shard count. It grows to the peak number of batches in flight at once
	// (a producer keeps its set while it blocks on a full ring, a shard's
	// ingestMu or the fsync) and never shrinks.
	scratchMu sync.Mutex
	scratch   []*batchScratch
	layout    recordLayout

	// walAppendErrs / lastAppendErr track journal-append failures for
	// readiness: a serving daemon that cannot persist intake is not ready.
	walAppendErrs atomic.Uint64
	lastAppendErr atomic.Value // string; "" once an append succeeds again
	// lastSnapErr is the last checkpoint's failure, "" once one succeeds: a
	// durable engine whose state cannot be checkpointed is not ready either.
	lastSnapErr atomic.Value

	// epochs is the copy-on-write model epoch table ([]modelEpoch, oldest
	// first); the tail is what new sessions bind. Written by SwapModel
	// (under snapMu) and boot-time recovery; read lock-free by step's callers.
	epochs atomic.Value

	// shadow holds the current *shadowEval (nil-typed when none) and
	// shadowGen numbers evaluations so stale per-session twins are inert.
	shadow    atomic.Value
	shadowGen atomic.Uint64

	// Durability state; all nil/zero when no WAL directory is configured.
	wal               *walJournal
	snapMu            sync.Mutex    // serialises Snapshot
	snapSeq           atomic.Uint64 // written under snapMu, read without it
	recoveredSessions int           // set before consumers start
	recoveredEvents   uint64
	// recoveredFloor is the floor of the snapshot recovery restored, the
	// position replay holds it authoritative to.
	recoveredFloor uint64

	dead *deadLetterLog

	// waiters counts the goroutines in await, which a consumer wakes on
	// progress after each batch, taking progressMu only while one waits.
	waiters    atomic.Int32
	progressMu sync.Mutex
	progress   sync.Cond

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

// shard is one bank partition: its queue, consumed by a single goroutine, and
// its state, which the holder of mu folds into (the consumer, or replay at
// boot) and moves banks in and out of (import, drop, restore). The counters
// are per-shard obs instruments (labelled shard="i") registered by
// registerMetrics; they are the only copy of these counts.
type shard struct {
	in          *eventRing
	processed   *obs.Counter
	dropped     *obs.Counter
	quarantined *obs.Counter

	// ingestMu serialises journal-append + enqueue so queue order equals
	// LSN order within the shard (the invariant replay depends on). Only
	// taken on the durable ingest path. journaled, which it guards, is the
	// journal position of the last record queued to the shard.
	ingestMu  sync.Mutex
	journaled uint64

	mu sync.Mutex // guards the state for cross-goroutine inspection
	*shardState
}

// lockedStep runs step under the shard's lock.
func (s *shard) lockedStep(env stepEnv, batch []queued) stepResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.step(env, batch)
}

// New validates cfg (after defaulting) and starts the shard consumers.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:    cfg,
		shards: make([]*shard, cfg.Shards),
		start:  cfg.Clock.Now(),
		layout: newRecordLayout(cfg.Profile),
	}
	for i := range e.shards {
		e.shards[i] = &shard{in: newEventRing(cfg.QueueDepth), shardState: newShardState(e.layout)}
	}
	e.progress.L = &e.progressMu
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
	e.actions = newActionQueue(cfg.ActionBuffer, e.metrics.actionsEmitted, e.metrics.actionsDropped)
	if cfg.DeadLetterPath != "" {
		dl, err := openDeadLetterLog(cfg.DeadLetterPath, cfg.DeadLetterRotation, cfg.Clock)
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
		s.foldStage = e.metrics.fold // the live consumer's folds alone
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			buf := make([]queued, consumerBatch)
			for {
				n, ok := s.in.popBatch(buf)
				if !ok {
					return
				}
				e.consume(s, buf[:n])
			}
		}()
	}
	return e, nil
}

// consumerBatch is how many queued events a shard consumer drains per
// ring round — and folds under one hold of the shard lock: large enough to
// amortise the lock, small enough that the queue-depth gauge stays honest
// under load.
const consumerBatch = 256

// consume is the live path: one popped batch folded under one hold of the
// shard lock, binding new banks by the epoch table and feeding the running
// shadow, the folds timed by the fold stage. After the unlock the
// batch's dead letters are quarantined and its actions emitted, and only then
// is it counted processed — so a Drain that returns covers both — and any
// waiter woken.
func (e *Engine) consume(s *shard, batch []queued) {
	e.deliver(s.lockedStep(stepEnv{epochs: e.epochList(), shadow: e.loadShadow()}, batch))
	s.processed.Add(uint64(len(batch)))
	if e.waiters.Load() > 0 {
		e.progressMu.Lock()
		e.progress.Broadcast()
		e.progressMu.Unlock()
	}
}

// await blocks until done reports true, evaluating it once and again after
// each batch a shard consumer finishes, or until the budget d runs out on the
// engine's clock (d <= 0 means no budget). It reports whether done held.
// done is called with progressMu held.
func (e *Engine) await(d time.Duration, done func() bool) bool {
	e.waiters.Add(1) // before the first evaluation, so no batch slips past it unseen
	defer e.waiters.Add(-1)
	e.progressMu.Lock()
	defer e.progressMu.Unlock()
	expired := false
	if d > 0 {
		defer e.cfg.Clock.AfterFunc(d, func() {
			e.progressMu.Lock()
			expired = true
			e.progress.Broadcast()
			e.progressMu.Unlock()
		}).Stop()
	}
	for !done() {
		if expired {
			return false
		}
		e.progress.Wait()
	}
	return true
}

// deliver hands out what a step produced, in the order every caller keeps:
// every dead letter quarantined on its bank's shard, then the actions
// emitted.
func (e *Engine) deliver(res stepResult) {
	for i := range res.dead {
		e.quarantine(&res.dead[i])
	}
	for _, a := range res.acts {
		e.actions.push(a)
	}
}

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

// Actions returns the engine's output channel. After Close it closes once the
// reader has taken every action still queued.
func (e *Engine) Actions() <-chan Action { return e.actions.ch }

// Session returns a snapshot of one bank's session state.
func (e *Engine) Session(bank hbm.BankAddress) (SessionStats, bool) {
	return e.sessionByKey(e.cfg.Profile.Layout.PackBank(bank))
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
	return v.stats(s.layout.bank(key)), true
}

// Drain blocks until every accepted event has been processed — its dead
// letter quarantined and its actions emitted — or the budget d elapses (d <= 0
// means wait forever). It does not stop the engine — use it to checkpoint a
// replay before reading stats.
func (e *Engine) Drain(d time.Duration) error {
	var processed, ingested uint64
	if e.await(d, func() bool {
		processed, ingested = 0, e.metrics.ingested.Value()
		for _, s := range e.shards {
			processed += s.processed.Value()
		}
		return processed >= ingested
	}) {
		return nil
	}
	return fmt.Errorf("stream: drain timed out after %v (%d of %d processed)", d, processed, ingested)
}

// Close stops intake, drains every shard queue through the sessions, then
// ends the action stream without waiting for a reader. Safe to call more than
// once. Close does NOT snapshot: a plain Close is deliberately equivalent to a
// crash (the WAL carries everything), so tests and operators exercise the same
// recovery path either way. Call Snapshot first for a fast subsequent boot.
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
	e.actions.close()
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
