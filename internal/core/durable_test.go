package core

import (
	"testing"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/xrand"
)

// decisionsEqual compares two decisions including block probabilities
// bit-for-bit.
func decisionsEqual(a, b Decision) bool {
	if a.SpareBank != b.SpareBank || len(a.IsolateRows) != len(b.IsolateRows) {
		return false
	}
	for i := range a.IsolateRows {
		if a.IsolateRows[i] != b.IsolateRows[i] {
			return false
		}
	}
	if (a.Blocks == nil) != (b.Blocks == nil) {
		return false
	}
	if a.Blocks != nil {
		if a.Blocks.AnchorRow != b.Blocks.AnchorRow || !bitsEqual(a.Blocks.Probs, b.Blocks.Probs) {
			return false
		}
	}
	return true
}

// TestCordialSessionEncodeRestoreResume pins the durable-session contract:
// checkpoint a session mid-stream, restore it, and the restored session's
// decisions over the remaining events are identical (bit-for-bit in the
// probabilities) to the uninterrupted session's.
func TestCordialSessionEncodeRestoreResume(t *testing.T) {
	fleet := testFleet(t, 2, 150)
	train, test, err := SplitBanks(fleet.Faults, xrand.New(3), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	p := fitPipeline(t, RandomForest, train)
	strategy := &CordialStrategy{Pipeline: p, Geometry: hbm.DefaultGeometry}
	r := xrand.New(41)

	checked := 0
	for _, bf := range test {
		if len(bf.Events) < 2 {
			continue
		}
		cut := 1 + r.Intn(len(bf.Events)-1)
		sess := strategy.NewSession(hbm.BankAddress{})
		for _, e := range bf.Events[:cut] {
			sess.OnEvent(e)
		}
		blob, err := sess.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := strategy.RestoreSession(hbm.BankAddress{}, blob)
		if err != nil {
			t.Fatalf("restore at cut %d: %v", cut, err)
		}
		// Classification outcome survives.
		wc, wok := sess.Class()
		gc, gok := restored.Class()
		if wc != gc || wok != gok {
			t.Fatalf("class diverged after restore: (%v,%v) vs (%v,%v)", wc, wok, gc, gok)
		}
		for j, e := range bf.Events[cut:] {
			want := sess.OnEvent(e)
			got := restored.OnEvent(e)
			if !decisionsEqual(want, got) {
				t.Fatalf("event %d after cut %d: decision diverged:\noriginal %+v\nrestored %+v", j, cut, want, got)
			}
		}
		checked++
		if checked >= 25 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no banks exercised")
	}
}

// TestRestoreSessionRejectsMismatchedConfig: a state encoded under one
// geometry must not silently drive a pipeline with another. A quiet image
// holds observations only, which mean the same under any configuration.
func TestRestoreSessionRejectsMismatchedConfig(t *testing.T) {
	fleet := testFleet(t, 1, 120)
	train, _, err := SplitBanks(fleet.Faults, xrand.New(3), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	p := fitPipeline(t, RandomForest, train)
	strategy := &CordialStrategy{Pipeline: p, Geometry: hbm.DefaultGeometry}

	cfg := p.Config()
	cfg.Pattern.UERBudget++
	other, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	otherStrategy := &CordialStrategy{Pipeline: other, Geometry: hbm.DefaultGeometry}

	quiet, err := AppendQuietImage(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := otherStrategy.RestoreSession(hbm.BankAddress{}, quiet); err != nil {
		t.Errorf("quiet image refused under another pattern config: %v", err)
	}
	sess := strategy.NewSession(hbm.BankAddress{})
	sess.OnEvent(mcelog.Event{Time: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC), Addr: hbm.Address{Row: 3}, Class: ecc.ClassUER})
	blob, err := sess.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := otherStrategy.RestoreSession(hbm.BankAddress{}, blob); err == nil {
		t.Error("mismatched pattern config accepted")
	}

	// Corrupt and truncated images fail cleanly.
	for _, bad := range [][]byte{nil, {1, 2, 3}, blob[:5], append([]byte("XXXX"), blob[4:]...)} {
		if _, err := strategy.RestoreSession(hbm.BankAddress{}, bad); err == nil {
			t.Errorf("corrupt session image %v accepted", bad)
		}
	}
}
