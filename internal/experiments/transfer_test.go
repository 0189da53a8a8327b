package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestTransferSmoke runs a tiny two-profile transfer study and checks the
// pair grid and metric ranges, and every field against a golden written when
// the study switched a process-wide profile phase by phase: each call site
// that packs, keys or spares an address must be handed the profile whose
// banks it holds.
func TestTransferSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pipelines")
	}
	p := DefaultTransfer()
	p.Profiles = []string{"hbm2e", "ddr5-dimm"}
	p.UERBanks = 120 // at 40, a ddr5-dimm fleet scored under hbm2e's geometry and layout reads the same
	p.BenignBanks = 0
	p.Model.Trees = 8
	res, err := RunTransfer(p)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("testdata/transfer.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []TransferRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("transfer rows\n%+v\nwant the golden\n%+v", res.Rows, want)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4 (2×2 pair grid)", len(res.Rows))
	}
	seen := map[string]bool{}
	for _, r := range res.Rows {
		seen[r.Train+"→"+r.Eval] = true
		for name, v := range map[string]float64{
			"pattern F1": r.PatternF1, "block F1": r.BlockF1,
			"ICR": r.ICR, "cross-row ICR": r.CrossRowICR,
		} {
			if v < 0 || v > 1 {
				t.Errorf("%s→%s: %s = %g out of [0,1]", r.Train, r.Eval, name, v)
			}
		}
	}
	if len(seen) != 4 {
		t.Fatalf("pair grid incomplete: %v", seen)
	}

	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "baseline") || !strings.Contains(out, "ddr5-dimm") {
		t.Fatalf("render missing expected content:\n%s", out)
	}
}

// TestTransferValidate pins the parameter checks.
func TestTransferValidate(t *testing.T) {
	p := DefaultTransfer()
	p.Profiles = []string{"hbm2e"}
	if _, err := RunTransfer(p); err == nil {
		t.Error("single-profile transfer accepted")
	}
	p = DefaultTransfer()
	p.Profiles = []string{"hbm2e", "no-such-topology"}
	if _, err := RunTransfer(p); err == nil {
		t.Error("unknown profile accepted")
	}
}
