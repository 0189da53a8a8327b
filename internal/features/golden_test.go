package features

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/mcelog"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/bankstate_*.hex from the current encoder")

// goldenFixture is one bank history whose encoded state is pinned byte for
// byte: the images under testdata/ were written by the time.Time/map
// representation (the commit before the fixed-width re-layout), so passing
// means old snapshots, WAL recovery and cluster handoff keep loading and new
// ones are indistinguishable from them.
type goldenFixture struct {
	name   string
	events []mcelog.Event
}

func goldenFixtures() []goldenFixture {
	at := func(d time.Duration, row int, class ecc.Class, bits mcelog.ErrBits) mcelog.Event {
		return mcelog.Event{Time: t0.Add(d), Addr: hbmAddr(row), Class: class, Bits: bits}
	}
	const m = time.Minute
	// The quiet bank the fleet is made of: seven CEs over five rows.
	ceOnly := []mcelog.Event{
		at(0, 1200, ecc.ClassCE, 0x0101),
		at(17*m+3*time.Second+250*time.Millisecond, 1203, ecc.ClassCE, 0),
		at(17*m+3*time.Second+250*time.Millisecond, 1200, ecc.ClassCE, 0x0303),
		at(95*m, 1188, ecc.ClassCE, 0),
		at(41*time.Hour, 1210, ecc.ClassCE, 0x8001),
		at(41*time.Hour+1, 1203, ecc.ClassCE, 0),
		at(900*time.Hour, 1191, ecc.ClassCE, 0x0101),
	}
	// Two of three budget UERs seen; the second UER (the cutoff) shares its
	// timestamp with a CE before it and a UEO and a repeat-row UER after it,
	// and later traffic is staged behind the cutoff.
	midBudget := []mcelog.Event{
		at(0, 500, ecc.ClassCE, 0),
		at(5*m, 500, ecc.ClassUEO, 0x0201),
		at(9*m, 512, ecc.ClassUER, 0xff01),
		at(9*m, 498, ecc.ClassCE, 0),
		at(30*m, 505, ecc.ClassCE, 0),
		at(30*m, 530, ecc.ClassUER, 0x0102),
		at(30*m, 531, ecc.ClassUEO, 0),
		at(30*m, 512, ecc.ClassUER, 0),
		at(44*m, 529, ecc.ClassCE, 0x0404),
		at(61*m, 533, ecc.ClassUEO, 0),
		at(61*m, 512, ecc.ClassUER, 0),
	}
	// An aggregation bank long past its budget: the third UER fixes the
	// cutoff, ties at the cutoff still count, everything later only feeds the
	// block stage.
	postBudget := append(append([]mcelog.Event(nil), midBudget...),
		at(70*m, 540, ecc.ClassUER, 0x0180),
		at(70*m, 541, ecc.ClassCE, 0),
		at(70*m, 530, ecc.ClassUER, 0),
		at(71*m, 548, ecc.ClassUER, 0),
		at(80*m, 547, ecc.ClassCE, 0x0101),
		at(26*time.Hour, 556, ecc.ClassUER, 0x0101),
		at(26*time.Hour, 400, ecc.ClassUEO, 0),
		at(300*time.Hour, 549, ecc.ClassUER, 0),
	)
	return []goldenFixture{
		{"ce_only", ceOnly},
		{"mid_budget_cutoff_tie", midBudget},
		{"post_budget_aggregation", postBudget},
	}
}

func (g goldenFixture) state(t testing.TB) *BankState {
	t.Helper()
	st, err := NewBankState(DefaultPatternConfig(), DefaultBlockSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.events {
		st.Observe(e)
	}
	return st
}

func (g goldenFixture) path() string {
	return filepath.Join("testdata", "bankstate_"+g.name+".hex")
}

// golden returns the checked-in image of the fixture.
func (g goldenFixture) golden(t testing.TB) []byte {
	t.Helper()
	text, err := os.ReadFile(g.path())
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatalf("%s: %v", g.path(), err)
	}
	return want
}

// TestBankStateGoldenImages pins the version-2 layout against images
// produced before the re-layout, in both directions: the encoder still
// writes exactly those bytes, and decoding them gives a state that writes
// them again and continues like the state that never left memory.
func TestBankStateGoldenImages(t *testing.T) {
	for _, g := range goldenFixtures() {
		t.Run(g.name, func(t *testing.T) {
			st := g.state(t)
			got, err := st.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(g.path(), []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want := g.golden(t)
			if !bytes.Equal(got, want) {
				t.Fatalf("encoded state differs from %s (%d vs %d bytes)", g.path(), len(got), len(want))
			}
			restored, err := decodeState(want)
			if err != nil {
				t.Fatal(err)
			}
			again, err := restored.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, want) {
				t.Fatal("decoded golden image re-encodes differently")
			}
			last := g.events[len(g.events)-1]
			for i, row := range []int{last.Addr.Row + 2, 1, last.Addr.Row + 2, 40000} {
				e := mcelog.Event{Time: last.Time.Add(time.Duration(i) * time.Hour), Addr: hbmAddr(row), Class: ecc.ClassUER}
				st.Observe(e)
				restored.Observe(e)
				assertStateEquivalent(t, st, restored, row, e.Time.Add(time.Minute))
			}
		})
	}
}
