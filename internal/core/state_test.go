package core

import (
	"bytes"
	"math"
	"testing"
	"time"
	"unsafe"

	"cordial/internal/ecc"
	"cordial/internal/faultsim"
	"cordial/internal/features"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/mltree"
	"cordial/internal/xrand"
)

// visibleEvents returns events with Time ≤ now, preserving order. It is
// the reference prefix-slice path the production code no longer uses:
// tests replay through it to pin the single-replay rewiring.
func visibleEvents(events []mcelog.Event, now time.Time) []mcelog.Event {
	var out []mcelog.Event
	for _, e := range events {
		if !e.Time.After(now) {
			out = append(out, e)
		}
	}
	return out
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestStateVariantsMatchSliceAPI pins ClassifyPatternState/PredictBlocksState
// against the slice API on fleet-replay inputs: feeding a state
// incrementally must give the same class and bit-identical probabilities as
// handing over the full visible slice.
func TestStateVariantsMatchSliceAPI(t *testing.T) {
	fleet := testFleet(t, 2, 150)
	train, test, err := SplitBanks(fleet.Faults, xrand.New(3), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	p := fitPipeline(t, RandomForest, train)
	checked := 0
	for _, bf := range test {
		if len(bf.UERRows) < 3 {
			continue
		}
		anchor := bf.UERRows[2]
		now := bf.UERTimes[2]
		visible := visibleEvents(bf.Events, now)

		st, err := p.NewBankState()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range visible {
			st.Observe(e)
		}

		sliceClass, err1 := p.ClassifyPattern(visible)
		stateClass, err2 := p.ClassifyPatternState(st)
		if err1 != nil || err2 != nil {
			t.Fatalf("classify errors: %v / %v", err1, err2)
		}
		if sliceClass != stateClass {
			t.Fatalf("class diverged: slice %v, state %v", sliceClass, stateClass)
		}

		sliceProbs, err1 := p.PredictBlocks(visible, anchor, now)
		stateProbs, err2 := p.PredictBlocksState(st, anchor, now)
		if err1 != nil || err2 != nil {
			t.Fatalf("predict errors: %v / %v", err1, err2)
		}
		if !bitsEqual(sliceProbs, stateProbs) {
			t.Fatalf("probabilities diverged:\nslice %v\nstate %v", sliceProbs, stateProbs)
		}
		checked++
		if checked >= 25 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no test banks with enough UERs")
	}
}

// bankInstances is blockInstances over one bank, through a state and a
// coder of its own, its instances read back as rows.
func bankInstances(t testing.TB, bf *faultsim.BankFault, spec features.BlockSpec, warmup int) ([][]float64, []int) {
	t.Helper()
	st, err := features.NewBankState(features.DefaultPatternConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	c := mltree.NewCoder(features.BlockFeatureCount, blockInstanceCount(bf, spec, warmup))
	if err := blockInstances(c, make([]float64, spec.NumBlocks()*features.BlockFeatureCount), st, bf, warmup); err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset(nil)
	ds.Materialize()
	return ds.Features, ds.Labels
}

// TestBlockInstancesSingleReplayEquivalence pins blockInstances' forward
// replay against the original prefix-slice recomputation it replaced. As in
// BuildBlockDataset, one state folds every bank, reset between them, every
// window is filled into one scratch and every instance goes to one coder; the
// reference builds a fresh state per decision, and every bank's instances are
// compared, read back as rows, after all of them were made, so a window two
// decisions share or a state a bank leaves behind shows.
func TestBlockInstancesSingleReplayEquivalence(t *testing.T) {
	fleet := testFleet(t, 2, 150)
	spec := features.DefaultBlockSpec()
	var chosen []*faultsim.BankFault
	instances := 0
	for _, bf := range fleet.Faults {
		if bf.Class().IsAggregation() && len(bf.UERRows) >= 3 && len(chosen) < 10 {
			chosen = append(chosen, bf)
			instances += blockInstanceCount(bf, spec, 3)
		}
	}
	if len(chosen) == 0 {
		t.Fatal("no aggregation banks with enough UERs")
	}
	st, err := features.NewBankState(features.DefaultPatternConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	c := mltree.NewCoder(features.BlockFeatureCount, instances)
	window := make([]float64, spec.NumBlocks()*features.BlockFeatureCount)
	for _, bf := range chosen {
		if err := blockInstances(c, window, st, bf, 3); err != nil {
			t.Fatal(err)
		}
	}
	ds := c.Dataset(nil)
	ds.Materialize()
	if ds.NumSamples() != instances {
		t.Fatalf("%d instances where BuildBlockDataset sizes for %d", ds.NumSamples(), instances)
	}
	made := make([][][]float64, len(chosen))
	madeLabels := make([][]int, len(chosen))
	for i, bf := range chosen {
		n := blockInstanceCount(bf, spec, 3)
		made[i], madeLabels[i] = ds.Features[:n], ds.Labels[:n]
		ds.Features, ds.Labels = ds.Features[n:], ds.Labels[n:]
	}
	for n, bf := range chosen {
		vecs, labels := made[n], madeLabels[n]
		var wantVecs [][]float64
		var wantLabels []int
		for k := 3; k <= len(bf.UERRows); k++ {
			anchor := bf.UERRows[k-1]
			now := bf.UERTimes[k-1]
			st, err := features.NewBankState(features.DefaultPatternConfig(), spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range visibleEvents(bf.Events, now) {
				st.Observe(e)
			}
			for b := 0; b < spec.NumBlocks(); b++ {
				vec, err := st.BlockVector(anchor, b, now)
				if err != nil {
					t.Fatal(err)
				}
				wantVecs = append(wantVecs, vec)
				label := 0
				if blockHasFutureUER(bf, spec, anchor, b, now) {
					label = 1
				}
				wantLabels = append(wantLabels, label)
			}
		}
		if len(vecs) != len(wantVecs) {
			t.Fatalf("instance count %d, want %d", len(vecs), len(wantVecs))
		}
		for i := range vecs {
			if !bitsEqual(vecs[i], wantVecs[i]) {
				t.Fatalf("instance %d diverged:\nreplay    %v\nreference %v", i, vecs[i], wantVecs[i])
			}
			if labels[i] != wantLabels[i] {
				t.Fatalf("label %d: replay %d, reference %d", i, labels[i], wantLabels[i])
			}
		}
	}
}

// TestCordialSessionReleasesStateWhenSpared drives sessions over the fleet
// and checks the release contract: once a session returns SpareBank its
// feature state is dropped, its footprint reads zero/released, further
// events are absorbed without growing anything, and Released stands in a
// session without the state that classifies, reports and encodes alike.
func TestCordialSessionReleasesStateWhenSpared(t *testing.T) {
	fleet := testFleet(t, 2, 150)
	train, test, err := SplitBanks(fleet.Faults, xrand.New(3), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	p := fitPipeline(t, RandomForest, train)
	strategy := &CordialStrategy{Pipeline: p, Geometry: hbm.DefaultGeometry}

	sparedSeen := false
	keptSeen := false
	for _, bf := range test {
		sess := strategy.NewSession(hbm.BankAddress{}).(InstrumentedSession)
		spared := false
		for _, e := range bf.Events {
			d := sess.OnEvent(e)
			if d.SpareBank {
				spared = true
				fp, released := sess.StateFootprint()
				if !released {
					t.Fatal("SpareBank decision did not release the feature state")
				}
				if fp != (features.StateFootprint{}) {
					t.Fatalf("released session reports footprint %+v", fp)
				}
			} else if spared {
				if d.IsolateRows != nil || d.Blocks != nil {
					t.Fatal("decision taken after bank sparing")
				}
			}
		}
		if spared {
			sparedSeen = true
			// Further traffic must stay absorbed with zero state.
			last := bf.Events[len(bf.Events)-1]
			d := sess.OnEvent(mcelog.Event{
				Time:  last.Time.Add(time.Hour),
				Addr:  hbm.Address{Row: 1},
				Class: ecc.ClassUER,
			})
			if d.SpareBank || d.IsolateRows != nil || d.Blocks != nil {
				t.Fatal("released session still takes decisions")
			}
			if _, released := sess.StateFootprint(); !released {
				t.Fatal("released session reports live state")
			}
			if cs := sess.(*cordialSession); cs.state.Footprint().TrackedRows != 0 {
				t.Fatalf("spared session keeps a row table of %d rows", cs.state.Footprint().TrackedRows)
			}
			rel := Released(sess)
			if _, ok := rel.(*releasedSession); !ok {
				t.Fatalf("Released of a spared session is %T", rel)
			}
			c1, ok1 := rel.(ClassifiedSession).Class()
			c2, ok2 := sess.(ClassifiedSession).Class()
			if c1 != c2 || ok1 != ok2 || !bytes.Equal(encodeSession(t, rel), encodeSession(t, sess)) {
				t.Fatal("the released stand-in classifies or encodes unlike the spared session")
			}
			if fp, released := rel.(InstrumentedSession).StateFootprint(); !released || fp != (features.StateFootprint{}) {
				t.Fatalf("the released stand-in reports footprint %+v, released %t", fp, released)
			}
		} else if cls, ok := sess.(ClassifiedSession).Class(); ok && cls.IsAggregation() {
			keptSeen = true
			fp, released := sess.StateFootprint()
			if released {
				t.Fatal("aggregation session released its state")
			}
			if fp.Events != len(bf.Events) {
				t.Fatalf("aggregation session saw %d events, fed %d", fp.Events, len(bf.Events))
			}
		}
		if sparedSeen && keptSeen {
			return
		}
	}
	if !sparedSeen {
		t.Error("no session ever bank-spared (scattered class unlearned?)")
	}
	if !keptSeen {
		t.Error("no aggregation session retained its state")
	}
}

// TestSessionSizeClass: a promoted bank's session is one allocation with the
// feature state, and the state's first 16 rows, inside it. Go puts an 8-byte
// malloc header before a pointerful object over 512 B, and the session with it
// must fit the 1 024-byte size class: the bytes the session (768-byte class)
// and its 256-byte row table took as two objects. A field that pushes it into
// the 1 152-byte class fails here, not as live heap.
func TestSessionSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(cordialSession{}) + 8; got > 1024 {
		t.Errorf("cordialSession with its malloc header is %d bytes, want ≤ 1024", got)
	}
}

// TestCordialSessionDecisionsUnchanged replays fleet banks through the
// state-based session and through a faithful reimplementation of the old
// slice-buffering session; the decision streams must match exactly.
func TestCordialSessionDecisionsUnchanged(t *testing.T) {
	fleet := testFleet(t, 2, 150)
	train, test, err := SplitBanks(fleet.Faults, xrand.New(3), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	p := fitPipeline(t, RandomForest, train)
	strategy := &CordialStrategy{Pipeline: p, Geometry: hbm.DefaultGeometry}

	for i, bf := range test {
		if i >= 30 {
			break
		}
		sess := strategy.NewSession(hbm.BankAddress{})
		old := &oldSliceSession{strategy: strategy}
		for j, e := range bf.Events {
			got := sess.OnEvent(e)
			want := old.OnEvent(e)
			if got.SpareBank != want.SpareBank {
				t.Fatalf("bank %d event %d: SpareBank %v, want %v", i, j, got.SpareBank, want.SpareBank)
			}
			if (got.Blocks == nil) != (want.Blocks == nil) {
				t.Fatalf("bank %d event %d: Blocks presence diverged", i, j)
			}
			if got.Blocks != nil && !bitsEqual(got.Blocks.Probs, want.Blocks.Probs) {
				t.Fatalf("bank %d event %d: probabilities diverged", i, j)
			}
			if len(got.IsolateRows) != len(want.IsolateRows) {
				t.Fatalf("bank %d event %d: isolated %d rows, want %d", i, j, len(got.IsolateRows), len(want.IsolateRows))
			}
			for r := range got.IsolateRows {
				if got.IsolateRows[r] != want.IsolateRows[r] {
					t.Fatalf("bank %d event %d: isolated row %d diverged", i, j, r)
				}
			}
		}
	}
}

// oldSliceSession reimplements the pre-refactor cordialSession (unbounded
// event buffer, full recomputation per UER) as the behavioural reference.
type oldSliceSession struct {
	strategy *CordialStrategy
	events   []mcelog.Event
	uerRows  []int
	seenRows map[int]bool

	classified bool
	class      faultsim.Class
}

func (s *oldSliceSession) OnEvent(e mcelog.Event) Decision {
	s.events = append(s.events, e)
	if e.Class != ecc.ClassUER {
		return Decision{}
	}
	if s.seenRows == nil {
		s.seenRows = make(map[int]bool)
	}
	if s.seenRows[e.Addr.Row] {
		return Decision{}
	}
	s.seenRows[e.Addr.Row] = true
	s.uerRows = append(s.uerRows, e.Addr.Row)

	pipe := s.strategy.Pipeline
	if len(s.uerRows) < pipe.Config().Pattern.UERBudget {
		return Decision{}
	}
	if !s.classified {
		class, err := pipe.ClassifyPattern(s.events)
		if err != nil {
			return Decision{}
		}
		s.classified = true
		s.class = class
		if !class.IsAggregation() {
			return Decision{SpareBank: true}
		}
	}
	if !s.class.IsAggregation() {
		return Decision{}
	}
	anchor := e.Addr.Row
	probs, err := pipe.PredictBlocks(s.events, anchor, e.Time)
	if err != nil {
		return Decision{}
	}
	mask := make([]bool, len(probs))
	for b, pr := range probs {
		mask[b] = pr >= pipe.Config().Threshold
	}
	rows := pipe.PredictRows(probs, anchor, s.strategy.Geometry)
	return Decision{
		IsolateRows: rows,
		Blocks:      &BlockPrediction{AnchorRow: anchor, Predicted: mask, Probs: probs},
	}
}
