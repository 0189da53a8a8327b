package trace

import (
	"slices"
	"sync"
	"testing"

	"cordial/internal/mcelog"
)

// TestFleetLogOnFirstRead pins the lazy fleet log: Generate keeps each
// bank's sorted run and merges nothing; the first Log call, from however
// many goroutines, merges the runs once, in generation order, and releases
// them; every later call returns that same log.
func TestFleetLogOnFirstRead(t *testing.T) {
	f := generate(t, 3)
	if f.log != nil {
		t.Fatal("Generate built the fleet log")
	}

	// The runs are the faulty banks' events and the benign banks' events,
	// in the order the banks were generated.
	runs := slices.Clone(f.runs)
	if want := len(f.Faults) + len(f.BenignBankKeys); len(runs) != want {
		t.Fatalf("%d runs, want one per bank (%d)", len(runs), want)
	}
	faults, benign := 0, 0
	for i, run := range runs {
		if faults < len(f.Faults) && len(run) > 0 && &run[0] == &f.Faults[faults].Events[0] {
			faults++
			continue
		}
		if benign == len(f.BenignBankKeys) {
			t.Fatalf("run %d is neither the next fault's events nor a benign bank's", i)
		}
		for _, ev := range run {
			if ev.Addr.BankKey() != f.BenignBankKeys[benign] {
				t.Fatalf("run %d holds an event of bank %#x, want benign bank %d (%#x)",
					i, ev.Addr.BankKey(), benign, f.BenignBankKeys[benign])
			}
		}
		benign++
	}
	if faults != len(f.Faults) || benign != len(f.BenignBankKeys) {
		t.Fatalf("runs cover %d of %d faults and %d of %d benign banks, out of order",
			faults, len(f.Faults), benign, len(f.BenignBankKeys))
	}
	want := mcelog.Merge(runs)

	logs := make([]*mcelog.Log, 8)
	var wg sync.WaitGroup
	for i := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			logs[i] = f.Log()
		}()
	}
	wg.Wait()
	for i, l := range logs {
		if l != logs[0] {
			t.Fatalf("goroutine %d got log %p, goroutine 0 got %p", i, l, logs[0])
		}
	}
	if again := f.Log(); again != logs[0] {
		t.Fatalf("a second Log call returned %p, the first %p", again, logs[0])
	}
	if got := logs[0]; got.Len() != want.Len() || !slices.Equal(got.Events(), want.Events()) {
		t.Fatalf("log of %d events is not the merge of the banks' runs (%d events)", got.Len(), want.Len())
	}
	if f.runs != nil {
		t.Fatalf("%d runs still held after the merge", len(f.runs))
	}
}
