package mcelog

import (
	"math"
	"testing"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/hbm"
	"cordial/internal/xrand"
)

func TestRateSeries(t *testing.T) {
	l := FromEvents([]Event{
		ev(0, 0, ecc.ClassCE),
		ev(30, 1, ecc.ClassCE),
		ev(3700, 2, ecc.ClassCE), // just past one hour
		ev(3800, 3, ecc.ClassCE),
	})
	l.Sort()
	points, err := l.RateSeries(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d buckets", len(points))
	}
	if points[0].Count != 2 || points[1].Count != 2 {
		t.Fatalf("bucket counts = %d,%d", points[0].Count, points[1].Count)
	}
	if !points[1].Start.Equal(points[0].Start.Add(time.Hour)) {
		t.Fatal("bucket starts not contiguous")
	}
}

func TestRateSeriesEmptyAndErrors(t *testing.T) {
	var l Log
	points, err := l.RateSeries(time.Hour)
	if err != nil || points != nil {
		t.Fatalf("empty log: %v, %v", points, err)
	}
	if _, err := l.RateSeries(0); err == nil {
		t.Fatal("zero bucket accepted")
	}
}

func TestFanoFactorPoissonNearOne(t *testing.T) {
	// A homogeneous Poisson process has Fano factor ~1.
	r := xrand.New(1)
	l := &Log{}
	ts := epoch
	for i := 0; i < 5000; i++ {
		ts = ts.Add(time.Duration(r.Exp(1.0 / float64(time.Minute))))
		l.Append(Event{Time: ts, Addr: hbm.Address{Row: i % 100}, Class: ecc.ClassCE})
	}
	f, err := l.FanoFactor(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-1) > 0.25 {
		t.Fatalf("Poisson Fano factor = %g, want ~1", f)
	}
}

func TestFanoFactorBurstyAboveOne(t *testing.T) {
	// Events concentrated in short bursts separated by long quiet spells.
	r := xrand.New(2)
	l := &Log{}
	ts := epoch
	for burst := 0; burst < 40; burst++ {
		ts = ts.Add(6 * time.Hour)
		for i := 0; i < 50; i++ {
			l.Append(Event{
				Time:  ts.Add(time.Duration(r.Intn(600)) * time.Second),
				Addr:  hbm.Address{Row: burst},
				Class: ecc.ClassCE,
			})
		}
	}
	l.Sort()
	f, err := l.FanoFactor(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if f < 5 {
		t.Fatalf("bursty Fano factor = %g, want ≫1", f)
	}
}

func TestFanoFactorErrors(t *testing.T) {
	l := FromEvents([]Event{ev(0, 0, ecc.ClassCE)})
	if _, err := l.FanoFactor(time.Hour); err == nil {
		t.Fatal("single-bucket log accepted")
	}
}

func TestTopEntities(t *testing.T) {
	bankA := hbm.BankAddress{Node: 1}
	bankB := hbm.BankAddress{Node: 2}
	l := &Log{}
	for i := 0; i < 5; i++ {
		l.Append(Event{Time: epoch, Addr: hbm.CellInBank(bankA, i, 0), Class: ecc.ClassCE})
	}
	for i := 0; i < 3; i++ {
		l.Append(Event{Time: epoch, Addr: hbm.CellInBank(bankB, i, 0), Class: ecc.ClassUER})
	}
	top := l.TopEntities(hbm.HBM2E, hbm.LevelBank, 1)
	if len(top) != 1 || top[0].Events != 5 {
		t.Fatalf("top = %+v", top)
	}
	if n := hbm.HBM2E.Layout.Unpack(top[0].Key).Node; n != 1 {
		t.Fatalf("top entity node = %d", n)
	}
	all := l.TopEntities(hbm.HBM2E, hbm.LevelBank, 0)
	if len(all) != 2 || all[1].UERs != 3 {
		t.Fatalf("all = %+v", all)
	}
}

func TestBursts(t *testing.T) {
	l := FromEvents([]Event{
		ev(0, 0, ecc.ClassCE), ev(5, 1, ecc.ClassCE), ev(9, 2, ecc.ClassCE),
		// one hour of silence
		ev(3700, 3, ecc.ClassCE), ev(3705, 4, ecc.ClassCE),
		// lone straggler two hours later
		ev(11000, 5, ecc.ClassCE),
	})
	l.Sort()
	bursts, err := l.Bursts(time.Minute, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bursts) != 2 {
		t.Fatalf("got %d bursts: %+v", len(bursts), bursts)
	}
	if bursts[0].Events != 3 || bursts[0].End.Sub(bursts[0].Start) != 9*time.Second {
		t.Fatalf("burst 0 = %+v", bursts[0])
	}
	if bursts[1].Events != 2 {
		t.Fatalf("burst 1 = %+v", bursts[1])
	}
	// minEvents 1 keeps the straggler.
	bursts, err = l.Bursts(time.Minute, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(bursts) != 3 {
		t.Fatalf("got %d bursts with minEvents 1", len(bursts))
	}
	if _, err := l.Bursts(0, 1); err == nil {
		t.Fatal("zero maxGap accepted")
	}
}
