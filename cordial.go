// Package cordial is the public facade of a full reproduction of
// "Cordial: Cross-row Failure Prediction Method Based on Bank-level Error
// Locality for HBMs" (Gu et al., DSN-S 2025).
//
// Cordial predicts uncorrectable-error (UER) rows in High Bandwidth Memory
// *across* rows: instead of waiting for a row to show precursor errors
// (hopeless when >95% of row failures are sudden), it classifies a bank's
// failure pattern from its first three UERs and, for aggregation patterns,
// predicts which 8-row blocks in the ±64-row window around the last failure
// will fail next, so they can be row-spared preemptively. Scattered patterns
// are bank-spared instead.
//
// The typical flow:
//
//	fleet, _ := cordial.Simulate(cordial.DefaultFleetSpec())      // or ingest a real mcelog
//	train, test, _ := cordial.Split(fleet.Faults, 1, 0.7)
//	pipe, _ := cordial.Train(cordial.RandomForest, train)
//	result, _ := cordial.Evaluate(pipe, test)
//	fmt.Println(result.Block.F1, result.ICR.Rate())
//
// Sub-systems live in internal packages: HBM topology (internal/hbm), a
// (72,64) Hsiao SEC-DED ECC model (internal/ecc), MCE logs and codecs
// (internal/mcelog), the calibrated fault simulator (internal/faultsim,
// internal/trace), feature extraction (internal/features), from-scratch tree
// learners (internal/mltree), mitigation engine (internal/sparing), and the
// Cordial pipeline itself (internal/core). This package re-exports the types
// a downstream user needs.
package cordial

import (
	"io"

	"cordial/internal/core"
	"cordial/internal/faultsim"
	"cordial/internal/features"
	"cordial/internal/hbm"
	"cordial/internal/lifecycle"
	"cordial/internal/mcelog"
	"cordial/internal/mltree"
	"cordial/internal/registry"
	"cordial/internal/sparing"
	"cordial/internal/stream"
	"cordial/internal/trace"
	"cordial/internal/xrand"
)

// Re-exported types. The aliases keep one import path for library users
// while the implementation stays modular.
type (
	// Geometry describes the modelled HBM fleet dimensions.
	Geometry = hbm.Geometry
	// Address locates a memory cell (or coarser entity) in the fleet.
	Address = hbm.Address
	// BankAddress identifies one bank: an Address without row and column.
	BankAddress = hbm.BankAddress
	// Event is one logged memory error.
	Event = mcelog.Event
	// Log is an in-memory MCE log.
	Log = mcelog.Log
	// Fleet is a synthesised dataset with ground truth. fleet.Log() returns
	// its time-sorted error log, merged from the banks' runs on the first
	// call; a caller that reads only fleet.Faults never builds it.
	Fleet = trace.Fleet
	// FleetSpec configures fleet synthesis.
	FleetSpec = trace.Spec
	// BankFault is one faulty bank's events plus ground truth.
	BankFault = faultsim.BankFault
	// Pattern is a generator-level failure pattern (five shapes).
	Pattern = faultsim.Pattern
	// Class is a classifier-level failure class (three groups).
	Class = faultsim.Class
	// Config configures a Cordial pipeline.
	Config = core.Config
	// Pipeline is a trained Cordial instance.
	Pipeline = core.Pipeline
	// ModelKind selects the tree-ensemble backend.
	ModelKind = core.ModelKind
	// ModelParams tunes ensemble sizes.
	ModelParams = core.ModelParams
	// Strategy is a mitigation policy under evaluation.
	Strategy = core.Strategy
	// Session is a strategy's per-bank state for streaming use.
	Session = core.Session
	// Decision is one mitigation step returned by a Session.
	Decision = core.Decision
	// PredictionEval is a Table IV style evaluation result.
	PredictionEval = core.PredictionEval
	// PatternEval is a Table III style evaluation result.
	PatternEval = core.PatternEval
	// Budget bounds spare resources.
	Budget = sparing.Budget
	// BlockSpec is the cross-row window geometry.
	BlockSpec = features.BlockSpec
)

// Model backends (Table III/IV).
const (
	RandomForest = core.RandomForest
	XGBoost      = core.XGBoost
	LightGBM     = core.LightGBM
)

// Level identifies a micro-level of the HBM hierarchy.
type Level = hbm.Level

// Hierarchy levels, coarsest first (paper Tables I and II).
const (
	LevelNPU           = hbm.LevelNPU
	LevelHBM           = hbm.LevelHBM
	LevelSID           = hbm.LevelSID
	LevelChannel       = hbm.LevelChannel
	LevelPseudoChannel = hbm.LevelPseudoChannel
	LevelBankGroup     = hbm.LevelBankGroup
	LevelBank          = hbm.LevelBank
	LevelRow           = hbm.LevelRow
)

// BankOf returns the bank containing a.
func BankOf(a Address) BankAddress { return hbm.BankOf(a) }

// DefaultGeometry is the HBM2E organisation of the paper's Figure 1.
var DefaultGeometry = hbm.DefaultGeometry

// DefaultFleetSpec returns the calibrated fleet-synthesis specification:
// pattern mix per Figure 3(b), sudden ratios per Table I, locality per
// Figure 4.
func DefaultFleetSpec() FleetSpec { return trace.DefaultSpecFor(hbm.HBM2E) }

// Simulate synthesises a fleet-scale error log with ground truth. It stands
// in for the paper's proprietary industrial dataset.
func Simulate(spec FleetSpec) (*Fleet, error) { return trace.Generate(spec) }

// Split partitions faulty banks into train and test sets (bank-granular,
// stratified by failure class), seeded deterministically.
func Split(banks []*BankFault, seed uint64, trainFrac float64) (train, test []*BankFault, err error) {
	return core.SplitBanks(banks, xrand.New(seed), trainFrac)
}

// DefaultConfig returns the paper-faithful pipeline configuration for a
// backend: first-3-UER pattern budget, 16 blocks × 8 rows, auto-calibrated
// block threshold.
func DefaultConfig(kind ModelKind) Config { return core.DefaultConfig(kind) }

// Train fits a Cordial pipeline with the default configuration on the given
// training banks.
func Train(kind ModelKind, banks []*BankFault) (*Pipeline, error) {
	return TrainWithConfig(core.DefaultConfig(kind), banks)
}

// TrainWithConfig fits a Cordial pipeline with an explicit configuration.
func TrainWithConfig(cfg Config, banks []*BankFault) (*Pipeline, error) {
	p, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := p.Fit(banks); err != nil {
		return nil, err
	}
	return p, nil
}

// Load restores a pipeline previously saved with Pipeline.SaveModels.
func Load(r io.Reader, kind ModelKind) (*Pipeline, error) {
	p, err := core.New(core.DefaultConfig(kind))
	if err != nil {
		return nil, err
	}
	if err := p.LoadModels(r); err != nil {
		return nil, err
	}
	return p, nil
}

// NewStrategy wraps a fitted pipeline as an evaluable mitigation strategy.
func NewStrategy(p *Pipeline, geo Geometry) Strategy {
	return &core.CordialStrategy{Pipeline: p, Geometry: geo}
}

// NeighborRowsBaseline returns the paper's industrial baseline: isolate the
// eight rows adjacent to every identified UER row.
func NeighborRowsBaseline(geo Geometry, block BlockSpec) Strategy {
	return &core.NeighborRowsStrategy{Geometry: geo, Block: block}
}

// InRowBaseline returns the conventional in-row prediction paradigm, whose
// coverage is bounded by the non-sudden row ratio (Table I).
func InRowBaseline(geo Geometry) Strategy {
	return &core.InRowStrategy{Geometry: geo}
}

// Importance is one feature's importance score in a fitted model.
type Importance = mltree.Importance

// CalchasBaseline trains and returns the learned hierarchical in-row
// baseline (after the Calchas framework the paper contrasts with): a Random
// Forest over in-row history plus bank context, isolating rows predicted to
// fail. Like every in-row method it is bounded by the non-sudden ratio.
func CalchasBaseline(banks []*BankFault, params ModelParams, seed uint64) (Strategy, error) {
	c := &core.Calchas{Params: params, Seed: seed}
	if err := c.Fit(banks); err != nil {
		return nil, err
	}
	return c, nil
}

// EvaluatePattern scores pattern classification on test banks (Table III).
func EvaluatePattern(p *Pipeline, banks []*BankFault) (*PatternEval, error) {
	return core.EvaluatePattern(p, banks)
}

// Evaluate scores a fitted pipeline end to end on test banks (Table IV) with
// the default spare budget and the default geometry. When the banks were
// simulated with a custom Geometry whose RowsPerBank differs from the
// default, use EvaluateStrategy with NewStrategy(p, customGeometry) instead,
// so predicted rows clip against the right bank height.
func Evaluate(p *Pipeline, banks []*BankFault) (*PredictionEval, error) {
	return EvaluateStrategy(NewStrategy(p, DefaultGeometry), banks, p.Config().Block)
}

// EvaluateStrategy scores any mitigation strategy on test banks.
func EvaluateStrategy(s Strategy, banks []*BankFault, block BlockSpec) (*PredictionEval, error) {
	return core.EvaluatePredictionFor(hbm.HBM2E, s, banks, block, sparing.DefaultBudget())
}

// SuddenStats is the per-level sudden/non-sudden UER tally of Table I.
type SuddenStats = trace.SuddenStats

// LevelSummary is the per-level affected-entity tally of Table II.
type LevelSummary = trace.LevelSummary

// LocalityPoint is one point of the Figure 4 locality curve.
type LocalityPoint = trace.LocalityPoint

// PatternShare is one slice of the Figure 3(b) pattern distribution.
type PatternShare = trace.PatternShare

// SuddenByLevel computes the paper's Table I from any HBM2E MCE log: per
// micro-level, how many entities' first UER was sudden (no in-entity
// precursor) versus predictable.
func SuddenByLevel(log *Log) []SuddenStats { return trace.SuddenByLevel(hbm.HBM2E, log) }

// SummaryByLevel computes the paper's Table II from any HBM2E MCE log: per
// micro-level, how many entities logged CEs, UEOs and UERs.
func SummaryByLevel(log *Log) []LevelSummary { return trace.SummaryByLevel(hbm.HBM2E, log) }

// LocalityChiSquare computes the paper's Figure 4 from any HBM2E MCE log: the
// chi-square significance of successive UERs landing within each row
// distance threshold.
func LocalityChiSquare(log *Log, rowsPerBank int, thresholds []int) ([]LocalityPoint, error) {
	return trace.LocalityChiSquare(hbm.HBM2E, log, rowsPerBank, thresholds)
}

// DefaultThresholds returns the Figure 4 x axis (4..2048, powers of two).
func DefaultThresholds() []int { return trace.DefaultThresholds() }

// PatternDistribution tallies the ground-truth pattern mix of faulty banks
// (Figure 3(b)).
func PatternDistribution(faults []*BankFault) []PatternShare {
	return trace.PatternDistribution(faults)
}

// DriftSpec configures a multi-regime fleet whose failure mix changes over
// time (for exercising drift detection).
type DriftSpec = trace.DriftSpec

// Regime is one period of a drift fleet with its own pattern mix.
type Regime = trace.Regime

// DriftFleet is a generated multi-regime dataset.
type DriftFleet = trace.DriftFleet

// SimulateDrift synthesises a fleet whose failure-pattern mix shifts across
// regimes, banks ordered by failure onset.
func SimulateDrift(spec DriftSpec) (*DriftFleet, error) { return trace.GenerateDrift(spec) }

// PatternWeights is a sampling distribution over failure patterns.
type PatternWeights = faultsim.PatternWeights

// FaultConfig is the per-bank fault-process configuration.
type FaultConfig = faultsim.Config

// DefaultFaultConfig returns the calibrated per-bank fault process.
func DefaultFaultConfig() FaultConfig { return faultsim.DefaultConfig(hbm.HBM2E) }

// Failure patterns (Figure 3).
const (
	PatternSingleRow    = faultsim.PatternSingleRow
	PatternDoubleRow    = faultsim.PatternDoubleRow
	PatternHalfTotalRow = faultsim.PatternHalfTotalRow
	PatternScattered    = faultsim.PatternScattered
	PatternWholeColumn  = faultsim.PatternWholeColumn
)

// StreamEngine is the concurrent, sharded online prediction engine: events
// ingested from the whole fleet are routed to per-bank sessions and typed
// mitigation Actions are emitted on StreamEngine.Actions the moment the
// pipeline decides them. Construct with NewStreamEngine.
type StreamEngine = stream.Engine

// StreamConfig configures a StreamEngine (shard count, queue depths,
// full-queue ingest policy).
type StreamConfig = stream.Config

// Action is one mitigation the stream engine recommends (row-spare rows or
// bank-spare), with the triggering event time and assigned failure class.
type Action = stream.Action

// ActionKind is the mitigation mechanism of an Action.
type ActionKind = sparing.ActionKind

// Mitigation mechanisms.
const (
	ActionRowSpare    = sparing.ActionRowSpare
	ActionBankSpare   = sparing.ActionBankSpare
	ActionPageOffline = sparing.ActionPageOffline
)

// SessionStats is a point-in-time snapshot of one bank's streaming session.
type SessionStats = stream.SessionStats

// StreamStats is a point-in-time snapshot of the whole engine: ingest
// rate, queue depths, sessions live, actions emitted, latency snapshots.
type StreamStats = stream.EngineStats

// IngestPolicy selects what StreamEngine.Ingest does when a shard queue is
// full: apply backpressure or shed load.
type IngestPolicy = stream.IngestPolicy

// Full-queue ingest policies.
const (
	// IngestBlock waits for queue space (backpressure).
	IngestBlock = stream.IngestBlock
	// IngestDrop sheds the event and returns stream.ErrDropped.
	IngestDrop = stream.IngestDrop
)

// NewStreamEngine starts a sharded online prediction engine over a fitted
// pipeline's strategy. Close it to drain in-flight events and release the
// shard goroutines:
//
//	engine, _ := cordial.NewStreamEngine(cordial.DefaultStreamConfig(pipe))
//	go func() {
//		for a := range engine.Actions() {
//			fmt.Println(a.Kind, a.Bank, a.Rows)
//		}
//	}()
//	for _, e := range events {
//		engine.Ingest(e)
//	}
//	engine.Close()
func NewStreamEngine(cfg StreamConfig) (*StreamEngine, error) { return stream.New(cfg) }

// DefaultStreamConfig returns a StreamConfig serving the given fitted
// pipeline over the paper's HBM2E fleet, GOMAXPROCS shards and backpressure
// ingest.
func DefaultStreamConfig(p *Pipeline) StreamConfig {
	return StreamConfig{
		Strategy: NewStrategy(p, DefaultGeometry),
		Profile:  hbm.HBM2E,
	}
}

// NewStreamServer wraps a StreamEngine with the cordial-serve HTTP API
// (JSONL batch ingest, action retrieval, session inspection, health and
// stats endpoints); mount the returned handler on any mux or server.
func NewStreamServer(e *StreamEngine) *stream.Server {
	return stream.NewServer(e, stream.ServerConfig{})
}

// StreamDurability configures the engine's journal + snapshot directory;
// set it on StreamConfig.Durability to make ingest crash-safe (and to give
// the lifecycle manager a journal to retrain from).
type StreamDurability = stream.DurabilityConfig

// ModelRegistry is the versioned, crash-safe model store (DESIGN.md §13).
// It satisfies the stream engine's model source: set StreamConfig.Models
// to a registry and sessions bind the registry's active version.
type ModelRegistry = registry.Registry

// ModelRegistryOptions configures OpenModelRegistry. An empty Dir keeps the
// registry in memory (versions are assigned but nothing survives restart).
type ModelRegistryOptions = registry.Options

// ModelVersionMeta describes one stored model version (training window,
// class mix, trigger, creation time).
type ModelVersionMeta = registry.Meta

// OpenModelRegistry loads (or initialises) a versioned model registry.
func OpenModelRegistry(opts ModelRegistryOptions) (*ModelRegistry, error) {
	return registry.Open(opts)
}

// LifecycleManager runs the online drift→retrain→shadow→promote loop over
// a stream engine and a model registry: it watches the live class mix for
// drift, refits a candidate from the engine's own journal (self-labelled),
// shadow-scores it against live traffic, and promotes it through the
// engine's atomic swap point only if its isolation coverage holds up.
type LifecycleManager = lifecycle.Manager

// LifecycleConfig configures a LifecycleManager; Engine and Registry are
// required, everything else has conservative defaults.
type LifecycleConfig = lifecycle.Config

// LifecycleStatus is a point-in-time picture of the lifecycle loop.
type LifecycleStatus = lifecycle.Status

// NewLifecycleManager validates the configuration and returns a manager.
// Call Run to drive the loop on a cadence, or Tick/Retrain/Promote/Rollback
// to step it by hand.
func NewLifecycleManager(cfg LifecycleConfig) (*LifecycleManager, error) {
	return lifecycle.New(cfg)
}
