package mcelog

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/hbm"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/address_checks.golden from the current checks")

// checkedFields pairs each hbm.Address field with the Geometry dimension
// bounding it.
var checkedFields = []struct{ addr, dim string }{
	{"Node", "Nodes"}, {"NPU", "NPUsPerNode"}, {"HBM", "HBMsPerNPU"}, {"SID", "SIDsPerHBM"},
	{"Channel", "ChannelsPerSID"}, {"PseudoChannel", "PseudoChPerCh"}, {"Rank", "RanksPerModule"},
	{"Device", "DevicesPerRank"}, {"BankGroup", "BankGroups"}, {"Bank", "BanksPerGroup"},
	{"Row", "RowsPerBank"}, {"Column", "ColsPerBank"},
}

// verdict renders a check's outcome for the golden table.
func verdict(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// addressCheckTable runs Address.Validate, Address.PackChecked and
// Event.Validate under a profile on one in-range cell with each
// field in turn moved to its edges: 0, dim-1, dim, the layout's capacity,
// -1 for the int row and column, and 255 for a uint8 field.
func addressCheckTable(p *hbm.Profile) []string {
	profile, g, l := p.Name, p.Geometry, &p.Layout
	base := hbm.Address{Row: 1, Column: 2}
	// Unpacking all ones puts every field at its capacity minus one.
	top := reflect.ValueOf(l.Unpack(^uint64(0)))
	geo := reflect.ValueOf(g)
	at := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	var lines []string
	row := func(label string, a hbm.Address) {
		_, packErr := l.PackChecked(a)
		lines = append(lines, fmt.Sprintf("%s %s | Validate: %s | PackChecked: %s | Event.Validate: %s",
			profile, label, verdict(a.Validate(g)), verdict(packErr),
			verdict(Event{Time: at, Addr: a, Class: ecc.ClassCE}.Validate(g))))
	}
	row("base", base)
	for _, f := range checkedFields {
		dim := int(geo.FieldByName(f.dim).Int())
		if dim <= 0 {
			dim = 1 // absent rank or device: one value
		}
		kind := top.FieldByName(f.addr).Kind()
		capacity := 1
		if kind == reflect.Int {
			capacity += int(top.FieldByName(f.addr).Int())
		} else {
			capacity += int(top.FieldByName(f.addr).Uint())
		}
		values := []int{0, dim - 1, dim, capacity}
		switch kind {
		case reflect.Int:
			values = append(values, -1)
		case reflect.Uint8:
			values = append(values, 255)
		}
		slices.Sort(values)
		for _, v := range slices.Compact(values) {
			a := base
			fv := reflect.ValueOf(&a).Elem().FieldByName(f.addr)
			if kind == reflect.Int {
				fv.SetInt(int64(v))
			} else if fv.OverflowUint(uint64(v)) {
				continue // the field cannot hold the value at all
			} else {
				fv.SetUint(uint64(v))
			}
			row(fmt.Sprintf("%s=%d", f.addr, v), a)
		}
	}
	return lines
}

// TestAddressChecksGolden pins the verdict and exact error text of the
// three address checks at every field's edges, under an HBM and a DIMM
// profile. The checks run on every generated event, at the HTTP edge and in
// a handoff import, so a change that makes them cheaper must leave what they
// accept and what they say untouched.
func TestAddressChecksGolden(t *testing.T) {
	var lines []string
	for _, name := range []string{"hbm2e", "ddr5-dimm"} {
		p, err := hbm.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, addressCheckTable(p)...)
	}
	got := strings.Join(lines, "\n") + "\n"
	const path = "testdata/address_checks.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Errorf("%d cases, golden has %d", len(lines), len(wantLines))
	}
	for i := range min(len(lines), len(wantLines)) {
		if lines[i] != wantLines[i] {
			t.Errorf("case %d:\n got  %s\n want %s", i, lines[i], wantLines[i])
		}
	}
}
