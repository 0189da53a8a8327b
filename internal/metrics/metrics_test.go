package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestConfusionBasics(t *testing.T) {
	var c Confusion
	// actual=1 predicted=1 ×3; actual=1 predicted=2 ×1; actual=2 predicted=2 ×2;
	// actual=2 predicted=1 ×2.
	for i := 0; i < 3; i++ {
		c.Add(1, 1)
	}
	c.Add(1, 2)
	c.Add(2, 2)
	c.Add(2, 2)
	c.Add(2, 1)
	c.Add(2, 1)

	if c.Total() != 8 {
		t.Fatalf("Total = %d", c.Total())
	}
	if got := c.Classes(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Classes = %v", got)
	}
	if c.Support(1) != 4 || c.Support(2) != 4 {
		t.Fatal("Support wrong")
	}
}

func TestClassReportKnownValues(t *testing.T) {
	var c Confusion
	for i := 0; i < 3; i++ {
		c.Add(1, 1)
	}
	c.Add(1, 2)
	c.Add(2, 2)
	c.Add(2, 2)
	c.Add(2, 1)
	c.Add(2, 1)

	r1 := c.ClassReport(1)
	// Class 1: tp=3, fp=2 (actual 2 predicted 1), fn=1.
	if !almost(r1.Precision, 3.0/5.0) || !almost(r1.Recall, 3.0/4.0) {
		t.Fatalf("class 1 P=%g R=%g", r1.Precision, r1.Recall)
	}
	wantF1 := 2 * (0.6 * 0.75) / (0.6 + 0.75)
	if !almost(r1.F1, wantF1) {
		t.Fatalf("class 1 F1=%g want %g", r1.F1, wantF1)
	}
	if r1.Support != 4 {
		t.Fatalf("class 1 support=%d", r1.Support)
	}
}

func TestClassReportDegenerate(t *testing.T) {
	var c Confusion
	c.Add(1, 1)
	// Class 2 never occurs and is never predicted.
	r := c.ClassReport(2)
	if r.Precision != 0 || r.Recall != 0 || r.F1 != 0 || r.Support != 0 {
		t.Fatalf("degenerate report = %+v", r)
	}
	// Class 3 is predicted but never actual.
	c.Add(1, 3)
	r3 := c.ClassReport(3)
	if r3.Precision != 0 || r3.Recall != 0 {
		t.Fatalf("never-actual report = %+v", r3)
	}
}

func TestWeightedAverage(t *testing.T) {
	var c Confusion
	// Perfect on class 1 (support 6), all-wrong on class 2 (support 2).
	for i := 0; i < 6; i++ {
		c.Add(1, 1)
	}
	c.Add(2, 1)
	c.Add(2, 1)
	w := c.WeightedAverage()
	// Class1: P = 6/8, R = 1, F1 = 2*(0.75)/(1.75) = 6/7. Class2: all 0.
	if !almost(w.Recall, 0.75*1) {
		t.Fatalf("weighted recall = %g", w.Recall)
	}
	if !almost(w.Precision, 0.75*0.75) {
		t.Fatalf("weighted precision = %g", w.Precision)
	}
	if !almost(w.F1, 0.75*(6.0/7.0)) {
		t.Fatalf("weighted F1 = %g", w.F1)
	}
	if w.Support != 8 {
		t.Fatalf("weighted support = %d", w.Support)
	}
}

func TestWeightedAverageEmpty(t *testing.T) {
	var c Confusion
	if r := c.WeightedAverage(); r != (Report{}) {
		t.Fatalf("empty weighted average = %+v", r)
	}
}

func TestPerfectClassifierProperty(t *testing.T) {
	f := func(labels []uint8) bool {
		var c Confusion
		for _, l := range labels {
			c.Add(int(l%5), int(l%5))
		}
		if len(labels) == 0 {
			return true
		}
		w := c.WeightedAverage()
		return almost(w.Precision, 1) && almost(w.Recall, 1) && almost(w.F1, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinary(t *testing.T) {
	var b Binary
	b.Add(true, true)   // tp
	b.Add(true, true)   // tp
	b.Add(false, true)  // fp
	b.Add(true, false)  // fn
	b.Add(false, false) // tn
	if b.TP != 2 || b.FP != 1 || b.FN != 1 || b.TN != 1 {
		t.Fatalf("binary counts = %+v", b)
	}
	r := b.Report()
	if !almost(r.Precision, 2.0/3.0) || !almost(r.Recall, 2.0/3.0) || !almost(r.F1, 2.0/3.0) {
		t.Fatalf("binary report = %+v", r)
	}
	if r.Support != 3 {
		t.Fatalf("binary support = %d", r.Support)
	}
	if b.Total() != 5 {
		t.Fatalf("binary total = %d", b.Total())
	}
}

func TestBinaryDegenerate(t *testing.T) {
	var b Binary
	if r := b.Report(); r.Precision != 0 || r.Recall != 0 || r.F1 != 0 {
		t.Fatalf("empty binary report = %+v", r)
	}
	b.Add(false, false)
	if r := b.Report(); r.F1 != 0 {
		t.Fatalf("all-negative binary report = %+v", r)
	}
}

func TestICR(t *testing.T) {
	var m ICR
	if m.Rate() != 0 {
		t.Fatal("empty ICR not 0")
	}
	for i := 0; i < 1958; i++ {
		m.Add(true)
	}
	for i := 0; i < 10000-1958; i++ {
		m.Add(false)
	}
	if !almost(m.Rate(), 0.1958) {
		t.Fatalf("ICR = %g", m.Rate())
	}
	if m.String() != "19.58%" {
		t.Fatalf("ICR String = %q", m.String())
	}
}

func TestAUCPerfectRanking(t *testing.T) {
	var s Scored
	for i := 0; i < 10; i++ {
		s.Add(float64(i), i >= 5) // positives all score higher
	}
	auc, ok := s.AUC()
	if !ok || auc != 1 {
		t.Fatalf("perfect AUC = %g ok=%v", auc, ok)
	}
}

func TestAUCInvertedRanking(t *testing.T) {
	var s Scored
	for i := 0; i < 10; i++ {
		s.Add(float64(i), i < 5) // positives all score lower
	}
	auc, ok := s.AUC()
	if !ok || auc != 0 {
		t.Fatalf("inverted AUC = %g ok=%v", auc, ok)
	}
}

func TestAUCRandomScoresNearHalf(t *testing.T) {
	var s Scored
	// Deterministic interleave: equal ranks for both classes.
	for i := 0; i < 1000; i++ {
		s.Add(float64(i%100), i%2 == 0)
	}
	auc, ok := s.AUC()
	if !ok || math.Abs(auc-0.5) > 0.05 {
		t.Fatalf("interleaved AUC = %g", auc)
	}
}

func TestAUCTiesCountHalf(t *testing.T) {
	var s Scored
	// All scores identical: AUC must be exactly 0.5 by the tie convention.
	for i := 0; i < 10; i++ {
		s.Add(1.0, i < 5)
	}
	auc, ok := s.AUC()
	if !ok || !almost(auc, 0.5) {
		t.Fatalf("all-ties AUC = %g", auc)
	}
}

func TestAUCKnownValue(t *testing.T) {
	var s Scored
	// scores: pos {3, 1}, neg {2, 0}. Pairs: (3>2),(3>0),(1<2),(1>0) → 3/4.
	s.Add(3, true)
	s.Add(1, true)
	s.Add(2, false)
	s.Add(0, false)
	auc, ok := s.AUC()
	if !ok || !almost(auc, 0.75) {
		t.Fatalf("AUC = %g, want 0.75", auc)
	}
}

func TestAUCDegenerate(t *testing.T) {
	var s Scored
	if _, ok := s.AUC(); ok {
		t.Fatal("empty AUC reported ok")
	}
	s.Add(1, true)
	if _, ok := s.AUC(); ok {
		t.Fatal("single-class AUC reported ok")
	}
}
