package core

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"slices"
	"sync"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/faultsim"
	"cordial/internal/features"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/metrics"
	"cordial/internal/mltree"
	"cordial/internal/xrand"
)

// Config configures a Cordial pipeline.
type Config struct {
	// Model selects the tree-ensemble backend for both stages.
	Model ModelKind
	// Params tunes the ensembles.
	Params ModelParams
	// Pattern configures pattern-feature extraction (first-3-UER budget).
	Pattern features.PatternConfig
	// Block configures the cross-row window geometry (16×8 by default).
	Block features.BlockSpec
	// Threshold is the block-positive probability cutoff. Zero (the
	// default) means calibrate automatically during Fit: the block task is
	// imbalanced (typically 1-2 positive blocks of 16) and the calibrated
	// cutoff maximises F1 on the training instances.
	Threshold float64
	// ErrBits appends the intra-word error-bit features (DQ/burst pattern
	// aggregates) to the pattern-classification vector. Off by default:
	// fleets whose BMCs report no syndrome detail gain nothing from the
	// extra columns, and the flag must match between training and serving
	// (it is persisted with the model).
	ErrBits bool
	// Seed drives model randomness.
	Seed uint64
}

// DefaultConfig returns the paper-faithful configuration for the given
// backend.
func DefaultConfig(kind ModelKind) Config {
	return Config{
		Model:   kind,
		Pattern: features.DefaultPatternConfig(),
		Block:   features.DefaultBlockSpec(),
		Seed:    1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch c.Model {
	case RandomForest, XGBoost, LightGBM:
	default:
		return fmt.Errorf("core: invalid model kind %d", int(c.Model))
	}
	if err := c.Block.Validate(); err != nil {
		return err
	}
	if c.Threshold < 0 || c.Threshold >= 1 {
		return fmt.Errorf("core: threshold %g out of [0,1) (0 = auto-calibrate)", c.Threshold)
	}
	if c.Pattern.UERBudget < 1 {
		return fmt.Errorf("core: pattern UER budget %d < 1", c.Pattern.UERBudget)
	}
	return nil
}

// Pipeline is a trained Cordial instance: a pattern classifier plus a
// cross-row block predictor. Construct with New, then Fit. A fitted
// pipeline's predict methods are safe for concurrent use.
type Pipeline struct {
	cfg          Config
	patternModel mltree.Classifier
	blockModel   mltree.Classifier
	// blockPosIdx is the positive class's index in blockModel.Classes(), or
	// -1, and modelSize both models' in-memory size; resolved when the models
	// are installed (Fit, LoadModels).
	blockPosIdx int
	modelSize   mltree.Size
	meta        *ModelMeta
	// scratch pools *predictScratch, the working memory of one
	// classification or window prediction. It belongs to the pipeline, not to
	// a session: a fleet has millions of mostly idle sessions and a handful of
	// shard consumers predicting at any instant, so per-session buffers would
	// be resident memory bought for nothing.
	scratch sync.Pool
}

// predictScratch is one prediction's working memory: the pattern vector and
// a one-row batch over it, a window's feature matrix (row views over one
// backing array), and the class probabilities of either batch.
type predictScratch struct {
	pattern    []float64
	patternRow [][]float64
	feats      []float64
	rows       [][]float64
	probs      []float64
}

// scratchFor returns a scratch shaped for the installed models, from the pool
// when it holds one of that shape (the shape only changes when LoadModels
// installs different models). The pipeline must be fitted.
func (p *Pipeline) scratchFor() *predictScratch {
	width, blocks := patternColumns(p.cfg.ErrBits), p.cfg.Block.NumBlocks()
	probs := max(blocks*len(p.blockModel.Classes()), len(p.patternModel.Classes()))
	if sc, ok := p.scratch.Get().(*predictScratch); ok && len(sc.pattern) == width && len(sc.rows) == blocks && len(sc.probs) == probs {
		return sc
	}
	sc := &predictScratch{
		pattern: make([]float64, width),
		feats:   make([]float64, blocks*features.BlockFeatureCount),
		rows:    make([][]float64, blocks),
		probs:   make([]float64, probs),
	}
	sc.patternRow = [][]float64{sc.pattern}
	for b := range sc.rows {
		sc.rows[b] = sc.feats[b*features.BlockFeatureCount : (b+1)*features.BlockFeatureCount]
	}
	return sc
}

// patternWidth and errBitWidth are the pattern vector's columns and the
// error-bit columns appended to them when enabled.
var patternWidth, errBitWidth = len(features.PatternFeatureNames()), len(features.ErrBitFeatureNames())

// patternColumns is the width of the pattern stage's vectors.
func patternColumns(errBits bool) int {
	if errBits {
		return patternWidth + errBitWidth
	}
	return patternWidth
}

// setModels installs both stages' models, refusing one that splits on a
// feature its stage's vectors do not have (a model file is operator input; the
// first prediction would index past the vector), and resolves the block
// model's positive class and the models' size.
func (p *Pipeline) setModels(pattern, block mltree.Classifier, errBits bool) error {
	ps, bs := mltree.SizeOf(pattern), mltree.SizeOf(block)
	if width := patternColumns(errBits); ps.Features > width {
		return fmt.Errorf("core: pattern model splits on feature %d of %d-feature vectors", ps.Features-1, width)
	}
	if bs.Features > features.BlockFeatureCount {
		return fmt.Errorf("core: block model splits on feature %d of %d-feature vectors", bs.Features-1, features.BlockFeatureCount)
	}
	p.patternModel, p.blockModel = pattern, block
	p.blockPosIdx = positiveIndex(block.Classes())
	p.modelSize = mltree.Size{Nodes: ps.Nodes + bs.Nodes, Bytes: ps.Bytes + bs.Bytes}
	return nil
}

// ModelSize returns the tree nodes both fitted models hold and the bytes
// they occupy in memory, as measured when they were installed.
func (p *Pipeline) ModelSize() (nodes, bytes int) { return p.modelSize.Nodes, p.modelSize.Bytes }

// positiveIndex returns the index of class 1 (block will see a UER) in a
// binary block model's class list, or -1.
func positiveIndex(classes []int) int {
	for i, c := range classes {
		if c == 1 {
			return i
		}
	}
	return -1
}

// New returns an unfitted pipeline.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Pattern.UERBudget == 0 {
		cfg.Pattern = features.DefaultPatternConfig()
	}
	if cfg.Block.WindowRadius == 0 && cfg.Block.BlockSize == 0 {
		cfg.Block = features.DefaultBlockSpec()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Pipeline{cfg: cfg}, nil
}

// Config returns the pipeline's configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// patternVectorInto writes the state's pattern vector under the pipeline's
// configuration — the error-bit features appended when enabled — into dst,
// which holds exactly patternColumns(errBits) values.
func patternVectorInto(dst []float64, st *features.BankState, errBits bool) error {
	if err := st.PatternVectorInto(dst[:patternWidth]); err != nil {
		return err
	}
	if errBits {
		st.ErrBitVectorInto(dst[patternWidth:])
	}
	return nil
}

// patternFeatureNames returns the pattern-stage column names, including the
// error-bit columns when enabled.
func patternFeatureNames(errBits bool) []string {
	names := features.PatternFeatureNames()
	if errBits {
		names = append(names, features.ErrBitFeatureNames()...)
	}
	return names
}

// Fit trains both stages on the ground-truth labelled training banks.
func (p *Pipeline) Fit(banks []*faultsim.BankFault) error {
	patternDS, err := BuildPatternDataset(banks, p.cfg.Pattern, p.cfg.ErrBits)
	if err != nil {
		return err
	}
	pm, err := NewModel(p.cfg.Model, p.cfg.Params, p.cfg.Seed)
	if err != nil {
		return err
	}
	if err := pm.Fit(patternDS); err != nil {
		return fmt.Errorf("core: fitting pattern model: %w", err)
	}

	blockDS, err := blockDataset(banks, p.cfg.Block, p.cfg.Pattern.UERBudget)
	if err != nil {
		return err
	}
	bm, err := NewModel(p.cfg.Model, p.cfg.Params, p.cfg.Seed+1)
	if err != nil {
		return err
	}
	if err := bm.Fit(blockDS); err != nil {
		return fmt.Errorf("core: fitting block model: %w", err)
	}
	if err := p.setModels(pm, bm, p.cfg.ErrBits); err != nil {
		return err
	}

	if p.cfg.Threshold == 0 {
		thr, ranked, err := crossFitThreshold(p.cfg, blockDS)
		if err != nil {
			return fmt.Errorf("core: calibrating threshold: %w", err)
		}
		if !ranked {
			slog.Warn("core: the calibration fold lacks a class, so no cutoff can be ranked: block threshold left at the default",
				"threshold", thr, "instances", blockDS.NumSamples())
		}
		p.cfg.Threshold = thr
	}
	p.meta = buildMeta(banks, p.cfg.Params)
	return nil
}

// crossFitThreshold calibrates the block threshold on a held-out fold: a
// clone of the block model is fitted on 75% of the instances and the
// F1-maximising cutoff is searched on the remaining 25%. Calibrating on the
// final model's own training predictions would be badly biased for Random
// Forest, whose in-bag probabilities are close to the labels. Both folds are
// views of blockDS: fitted after the block model, the clone trains on the
// codes that fit left on the dataset and the held-out fold is scored from
// them. ranked is calibrateThreshold's.
func crossFitThreshold(cfg Config, blockDS *mltree.Dataset) (thr float64, ranked bool, err error) {
	calTrain, calVal, err := blockDS.StratifiedSplit(xrand.New(cfg.Seed+2), 0.75)
	if err != nil {
		return 0, false, err
	}
	cm, err := NewModel(cfg.Model, cfg.Params, cfg.Seed+3)
	if err != nil {
		return 0, false, err
	}
	if err := cm.Fit(calTrain); err != nil {
		return 0, false, err
	}
	thr, ranked = calibrateThreshold(cm, calVal)
	return thr, ranked, nil
}

// calibrateThreshold grid-searches the probability cutoff that maximises F1
// over the held-out block instances. Ensemble probabilities on an
// imbalanced task concentrate well below 0.5, so a fixed cutoff would
// silently predict nothing; calibration keeps the operating point sane for
// every backend. A model without the positive class, or a fold without a
// positive or without a negative instance (a stratified 75/25 split rounds two
// positives into the training side), scores every cutoff alike: the default
// 0.5 comes back with ranked false, never the grid's first point.
func calibrateThreshold(model mltree.Classifier, ds *mltree.Dataset) (thr float64, ranked bool) {
	k := len(model.Classes())
	posIdx := positiveIndex(model.Classes())
	positives := 0
	for _, label := range ds.Labels {
		if label == 1 {
			positives++
		}
	}
	if posIdx < 0 || positives == 0 || positives == len(ds.Labels) {
		return 0.5, false
	}
	probs := make([]float64, ds.NumSamples()*k)
	mltree.PredictDatasetInto(probs, model, ds)
	best, bestF1 := 0.5, -1.0
	for thr := 0.05; thr < 0.90; thr += 0.025 {
		var bin metrics.Binary
		for i, label := range ds.Labels {
			bin.Add(label == 1, probs[i*k+posIdx] >= thr)
		}
		if f1 := bin.Report().F1; f1 > bestF1 {
			best, bestF1 = thr, f1
		}
	}
	return best, true
}

// Fitted reports whether both stages have been trained.
func (p *Pipeline) Fitted() bool { return p.patternModel != nil && p.blockModel != nil }

// NewBankState returns an empty incremental feature accumulator matching
// the pipeline's pattern and block configuration, ready to drive the
// state-based predict methods.
func (p *Pipeline) NewBankState() (*features.BankState, error) {
	return features.NewBankState(p.cfg.Pattern, p.cfg.Block)
}

// replayState builds a feature state over a complete event slice. The
// slice-based predict methods are defined as exactly this replay followed
// by the state-based variant.
func (p *Pipeline) replayState(events []mcelog.Event) (*features.BankState, error) {
	st, err := p.NewBankState()
	if err != nil {
		return nil, err
	}
	for _, e := range events {
		st.Observe(e)
	}
	return st, nil
}

// ClassifyPattern predicts the bank-level failure class from the bank's
// events (using the configured first-K-UER budget). It is the slice
// convenience form of ClassifyPatternState: the events are replayed once
// through a fresh feature state.
func (p *Pipeline) ClassifyPattern(events []mcelog.Event) (faultsim.Class, error) {
	st, err := p.replayState(events)
	if err != nil {
		return 0, err
	}
	return p.ClassifyPatternState(st)
}

// ClassifyPatternState predicts the bank-level failure class from an
// incrementally maintained feature state, without revisiting the event
// history. This is the online engine's O(1)-per-event path: one
// PatternVectorInto fill and one PredictBatchInto over a one-row batch, both
// in pooled scratch, so a warmed call allocates nothing.
func (p *Pipeline) ClassifyPatternState(st *features.BankState) (faultsim.Class, error) {
	if !p.Fitted() {
		return 0, fmt.Errorf("core: pipeline not fitted")
	}
	sc := p.scratchFor()
	defer p.scratch.Put(sc)
	if err := patternVectorInto(sc.pattern, st, p.cfg.ErrBits); err != nil {
		return 0, err
	}
	classes := p.patternModel.Classes()
	probs := sc.probs[:len(classes)]
	p.patternModel.PredictBatchInto(probs, sc.patternRow)
	return faultsim.Class(mltree.ArgmaxLabel(classes, probs)), nil
}

// PredictBlocks returns the per-block UER probability for the window
// anchored at anchorRow, given the events observed up to now. It is the
// slice convenience form of PredictBlocksState.
func (p *Pipeline) PredictBlocks(events []mcelog.Event, anchorRow int, now time.Time) ([]float64, error) {
	st, err := p.replayState(events)
	if err != nil {
		return nil, err
	}
	return p.PredictBlocksState(st, anchorRow, now)
}

// PredictBlocksState returns the per-block UER probability for the window
// anchored at anchorRow, computed from an incrementally maintained feature
// state at decision time now. It is predictBlocksInto over a fresh slice,
// which is its only allocation.
func (p *Pipeline) PredictBlocksState(st *features.BankState, anchorRow int, now time.Time) ([]float64, error) {
	probs := make([]float64, p.cfg.Block.NumBlocks())
	if err := p.predictBlocksInto(probs, st, anchorRow, now); err != nil {
		return nil, err
	}
	return probs, nil
}

// predictBlocksInto writes PredictBlocksState's probabilities into probs,
// which holds one per block of the pipeline's window. The whole window is one
// BlockVectorsInto fill and one PredictBatchInto call over pooled scratch, so
// a warmed call allocates nothing.
func (p *Pipeline) predictBlocksInto(probs []float64, st *features.BankState, anchorRow int, now time.Time) error {
	if p.blockModel == nil {
		return fmt.Errorf("core: pipeline not fitted")
	}
	if p.blockPosIdx < 0 {
		return fmt.Errorf("core: block model has no positive class")
	}
	if st.Spec() != p.cfg.Block {
		return fmt.Errorf("core: feature state block spec %+v does not match pipeline %+v", st.Spec(), p.cfg.Block)
	}
	k := len(p.blockModel.Classes())
	sc := p.scratchFor()
	st.BlockVectorsInto(sc.feats, anchorRow, now)
	p.blockModel.PredictBatchInto(sc.probs, sc.rows)
	for b := range probs {
		probs[b] = sc.probs[b*k+p.blockPosIdx]
	}
	p.scratch.Put(sc)
	return nil
}

// PredictRows converts block probabilities into the concrete rows Cordial
// would isolate: every row of every block whose probability clears the
// threshold, clipped to the bank geometry, ascending (blocks are contiguous
// and ordered by row). It is appendRows into a fresh slice of exactly those
// rows, nil when there are none.
func (p *Pipeline) PredictRows(probs []float64, anchorRow int, geo hbm.Geometry) []int {
	return p.appendRows(nil, probs, anchorRow, geo)
}

// appendRows appends PredictRows' rows to rows, growing it at most once.
func (p *Pipeline) appendRows(rows []int, probs []float64, anchorRow int, geo hbm.Geometry) []int {
	clipped := func(b int) (lo, hi int) {
		lo, hi = p.cfg.Block.BlockRange(anchorRow, b)
		return max(lo, 0), min(hi, geo.RowsPerBank-1)
	}
	n := 0
	for b, prob := range probs {
		if lo, hi := clipped(b); prob >= p.cfg.Threshold && hi >= lo {
			n += hi - lo + 1
		}
	}
	rows = slices.Grow(rows, n)
	for b, prob := range probs {
		if prob < p.cfg.Threshold {
			continue
		}
		for r, hi := clipped(b); r <= hi; r++ {
			rows = append(rows, r)
		}
	}
	return rows
}

// savedHeader persists the effective configuration (including the
// calibrated threshold) ahead of the two models.
type savedHeader struct {
	Threshold float64                `json:"threshold"`
	Pattern   features.PatternConfig `json:"pattern"`
	Block     features.BlockSpec     `json:"block"`
	Model     ModelKind              `json:"model"`
	// ErrBits records whether the pattern model was trained with the
	// error-bit feature columns; serving must match. Omitted when false so
	// older readers see an unchanged header.
	ErrBits bool `json:"errbits,omitempty"`
	// Meta carries the training provenance. Optional in both directions:
	// pre-metadata files decode with a nil Meta, and files written here
	// still load under older readers (unknown JSON fields are ignored).
	Meta *ModelMeta `json:"meta,omitempty"`
}

// SaveModels serialises the effective configuration and the two fitted
// models (pattern first, block second) to w.
func (p *Pipeline) SaveModels(w io.Writer) error {
	if !p.Fitted() {
		return fmt.Errorf("core: pipeline not fitted")
	}
	head := savedHeader{
		Threshold: p.cfg.Threshold,
		Pattern:   p.cfg.Pattern,
		Block:     p.cfg.Block,
		Model:     p.cfg.Model,
		ErrBits:   p.cfg.ErrBits,
		Meta:      p.meta,
	}
	if err := json.NewEncoder(w).Encode(head); err != nil {
		return fmt.Errorf("core: writing model header: %w", err)
	}
	if err := mltree.Save(w, p.patternModel); err != nil {
		return err
	}
	return mltree.Save(w, p.blockModel)
}

// LoadModels restores the configuration and models previously written by
// SaveModels.
func (p *Pipeline) LoadModels(r io.Reader) error {
	dec := json.NewDecoder(r)
	var head savedHeader
	if err := dec.Decode(&head); err != nil {
		return fmt.Errorf("core: reading model header: %w", err)
	}
	// Continue decoding from the same buffered stream.
	mdec := mltree.NewDecoderFromJSON(dec)
	pm, err := mdec.Decode()
	if err != nil {
		return fmt.Errorf("core: loading pattern model: %w", err)
	}
	bm, err := mdec.Decode()
	if err != nil {
		return fmt.Errorf("core: loading block model: %w", err)
	}
	if err := p.setModels(pm, bm, head.ErrBits); err != nil {
		return err
	}
	p.cfg.Threshold = head.Threshold
	p.cfg.Pattern = head.Pattern
	p.cfg.Block = head.Block
	p.cfg.Model = head.Model
	p.cfg.ErrBits = head.ErrBits
	p.meta = head.Meta
	return nil
}

// Strategy is a mitigation policy driven by a bank's event stream. The
// evaluator replays events in time order through a per-bank Session and
// applies the returned decisions; the stream engine serves the same sessions
// live and checkpoints them.
type Strategy interface {
	// Name identifies the strategy in reports (e.g. "Cordial-RF").
	Name() string
	// NewSession returns fresh per-bank state.
	NewSession(bank hbm.BankAddress) Session
	// RestoreSession rebuilds a session from an EncodeState image. It fails
	// (rather than guessing) when the image's configuration does not match
	// the strategy's, and for a strategy whose sessions have no image.
	RestoreSession(bank hbm.BankAddress, data []byte) (Session, error)
}

// Session consumes one bank's events in time order.
type Session interface {
	// Decide reacts to the next event and returns the decision taken at this
	// step (the zero Decision means "do nothing"). The returned IsolateRows
	// and Blocks alias buf and are valid only until buf is next passed to
	// Decide. A nil buf gives a decision that is the caller's: no later call
	// touches its slices or its BlockPrediction, so a caller may keep a bank's
	// decisions and read them after further events.
	Decide(e mcelog.Event, buf *DecisionBuffer) Decision
	// OnEvent is Decide(e, nil).
	OnEvent(e mcelog.Event) Decision
	// Class returns the failure class the session assigned its bank; ok is
	// false until it has assigned one.
	Class() (class faultsim.Class, ok bool)
	// StateFootprint returns the session's feature-state size; released
	// reports that the state has been dropped after a terminal decision (bank
	// spared), in which case the footprint is zero.
	StateFootprint() (fp features.StateFootprint, released bool)
	// EncodeState returns a self-contained binary image of the session: its
	// strategy's RestoreSession followed by the same event suffix decides
	// bit-identically to the uninterrupted session. It fails for a strategy
	// whose sessions cannot be checkpointed.
	EncodeState() ([]byte, error)
}

// ClassifiedSession is Session under the name the benchmark asserts to.
type ClassifiedSession = Session

// DecisionBuffer is the memory a Session decides into: a prediction's block
// probabilities, its rows and its BlockPrediction. The zero value is ready; it
// keeps the largest window it has held, so a warmed buffer makes a decision
// without allocating. One buffer serves any number of sessions, one decision
// at a time.
type DecisionBuffer struct {
	probs  []float64
	rows   []int
	blocks BlockPrediction
}

// Decision is a mitigation step taken at one event. Who owns its slices
// depends on how it was made: OnEvent's are the caller's, Decide's belong to
// the buffer it was given.
type Decision struct {
	// SpareBank requests bank sparing (scattered pattern policy).
	SpareBank bool
	// IsolateRows requests row-granular isolation of the given rows.
	IsolateRows []int
	// Blocks records a block-level prediction made at this step, for the
	// Table IV block metrics; nil when the strategy made none.
	Blocks *BlockPrediction
}

// BlockPrediction is one window prediction: the anchor row and a predicted
// mask over the window's blocks. Probs optionally carries the per-block
// probabilities for threshold-free metrics (AUC); strategies without scores
// leave it nil. A strategy that thresholds its scores may leave Predicted
// nil instead: block b is then predicted when Probs[b] >= Threshold.
type BlockPrediction struct {
	AnchorRow int
	Predicted []bool
	Probs     []float64
	Threshold float64
}

// CordialStrategy adapts a fitted pipeline to the Strategy interface,
// implementing §IV's policy: wait for the pattern budget of UERs, classify,
// bank-spare scattered banks, and for aggregation banks run cross-row block
// prediction at every observed UER from then on, row-sparing predicted rows.
type CordialStrategy struct {
	Pipeline *Pipeline
	Geometry hbm.Geometry
}

var _ QuietStrategy = (*CordialStrategy)(nil)

// ModelSize reports the pipeline's models to the serving engine's gauges.
func (s *CordialStrategy) ModelSize() (nodes, bytes int) { return s.Pipeline.ModelSize() }

// Name returns "Cordial-<backend>".
func (s *CordialStrategy) Name() string {
	return "Cordial-" + s.Pipeline.Config().Model.ShortName()
}

// NewSession returns per-bank state: an empty feature accumulator, which every
// event updates in O(1), held in the session itself.
func (s *CordialStrategy) NewSession(bank hbm.BankAddress) Session {
	sess := &cordialSession{strategy: s}
	if err := sess.state.Init(s.Pipeline.cfg.Pattern, s.Pipeline.cfg.Block); err != nil {
		// Only reachable with a hand-rolled invalid config; the session then
		// takes no decisions rather than panicking the replay loop.
		return new(releasedSession)
	}
	return sess
}

// QuietStrategy is implemented by strategies that promise their sessions
// decide nothing before their bank's first UER, and until then depend on
// nothing but the observations folded into them: Cordial and Neighbor Rows.
// A caller holding very many such banks (the stream engine) keeps the
// observations in memory of its own and asks for a session only when a bank
// needs one. In-row and Calchas decide on CEs and UEOs, so they make no such
// promise: a stored bank would lose their decisions.
type QuietStrategy interface {
	Strategy
	// ResumeSession returns the session NewSession followed by OnEvent over
	// the events behind log — none of them a UER, oldest first — would be. The
	// session does not keep log.
	ResumeSession(bank hbm.BankAddress, log []features.Obs) Session
}

// sessionVerdict is what a Cordial session keeps of its pattern stage.
type sessionVerdict struct {
	classified bool
	class      uint8 // faultsim.Class, valid when classified
}

// cordialSession is one bank's session: a single allocation of 720 B, in the
// 768-byte size class with its malloc header (TestSessionSizeClass).
type cordialSession struct {
	strategy *CordialStrategy
	sessionVerdict
	// released marks a terminal decision (bank spared): further events change
	// nothing, the state is emptied, and Released stands a releasedSession in.
	released bool
	// state accumulates the bank's features incrementally, an O(1) update
	// per event and memory flat over the session's life.
	state features.BankState
}

// releasedSession is a Cordial session after its terminal decision, without
// the feature state: what Released makes of a spared bank's session, what the
// image of one restores as, and what NewSession returns when its configuration
// builds no state. It decides nothing and encodes as the session it stands for.
type releasedSession struct{ sessionVerdict }

// Released returns the session that stands for sess once it has made its
// terminal decision: for a Cordial session that has spared its bank, one that
// decides, reports and encodes as it does without holding the feature state,
// and sess itself otherwise. A caller holding many sessions swaps it in, so a
// spared bank stops holding the state's memory.
func Released(sess Session) Session {
	if cs, ok := sess.(*cordialSession); ok && cs.released {
		return &releasedSession{cs.sessionVerdict}
	}
	return sess
}

// ResumeSession is NewSession with log replayed into its state.
func (s *CordialStrategy) ResumeSession(bank hbm.BankAddress, log []features.Obs) Session {
	sess := s.NewSession(bank)
	if cs, ok := sess.(*cordialSession); ok {
		cs.state.Replay(log)
	}
	return sess
}

// Class returns the pattern class assigned at the UER budget; ok is false
// before classification.
func (v *sessionVerdict) Class() (faultsim.Class, bool) {
	return faultsim.Class(v.class), v.classified
}

// StateFootprint reports the feature accumulator's size; released is true
// once the session dropped its state after bank sparing.
func (s *cordialSession) StateFootprint() (features.StateFootprint, bool) {
	if s.released {
		return features.StateFootprint{}, true
	}
	return s.state.Footprint(), false
}

func (s *releasedSession) StateFootprint() (features.StateFootprint, bool) {
	return features.StateFootprint{}, true
}

func (s *releasedSession) OnEvent(mcelog.Event) Decision { return Decision{} }

func (s *releasedSession) Decide(mcelog.Event, *DecisionBuffer) Decision { return Decision{} }

// OnEvent is Decide into a buffer of the decision's own.
func (s *cordialSession) OnEvent(e mcelog.Event) Decision { return s.Decide(e, nil) }

// Decide folds e into the session and, at a new UER row of a classified
// aggregation bank, predicts the window anchored there into buf (a fresh
// buffer when buf is nil).
func (s *cordialSession) Decide(e mcelog.Event, buf *DecisionBuffer) Decision {
	if s.released {
		// Bank already spared: no further decision can change, and the
		// feature state has been released.
		return Decision{}
	}
	st := &s.state
	prevDistinct := st.DistinctUERRows()
	st.Observe(e)
	if e.Class != ecc.ClassUER || st.DistinctUERRows() == prevDistinct {
		return Decision{} // not a UER, or a repeat of a known failed row
	}

	pipe := s.strategy.Pipeline
	if st.DistinctUERRows() < pipe.cfg.Pattern.UERBudget {
		return Decision{}
	}
	if !s.classified {
		class, err := pipe.ClassifyPatternState(st)
		if err != nil {
			return Decision{}
		}
		s.classified = true
		s.class = uint8(class)
		if !class.IsAggregation() {
			// Terminal: empty the accumulator, freeing its row table.
			s.state, s.released = features.BankState{}, true
			return Decision{SpareBank: true}
		}
	}
	if buf == nil {
		buf = new(DecisionBuffer)
	}
	anchor := e.Addr.Row
	n := pipe.cfg.Block.NumBlocks()
	buf.probs = slices.Grow(buf.probs[:0], n)[:n]
	if err := pipe.predictBlocksInto(buf.probs, st, anchor, e.Time); err != nil {
		return Decision{}
	}
	buf.rows = pipe.appendRows(buf.rows[:0], buf.probs, anchor, s.strategy.Geometry)
	buf.blocks = BlockPrediction{AnchorRow: anchor, Probs: buf.probs, Threshold: pipe.cfg.Threshold}
	return Decision{IsolateRows: buf.rows, Blocks: &buf.blocks}
}

// PatternImportance returns the fitted pattern model's feature importances
// (depth-weighted split frequency), most important first.
func (p *Pipeline) PatternImportance() ([]mltree.Importance, error) {
	if p.patternModel == nil {
		return nil, fmt.Errorf("core: pipeline not fitted")
	}
	return mltree.SplitImportance(p.patternModel, patternFeatureNames(p.cfg.ErrBits))
}

// BlockImportance returns the fitted cross-row block model's feature
// importances, most important first.
func (p *Pipeline) BlockImportance() ([]mltree.Importance, error) {
	if p.blockModel == nil {
		return nil, fmt.Errorf("core: pipeline not fitted")
	}
	return mltree.SplitImportance(p.blockModel, features.BlockFeatureNames())
}
