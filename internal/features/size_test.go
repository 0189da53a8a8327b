package features

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"cordial/internal/ecc"
	"cordial/internal/mcelog"
)

// TestBankStateSize is the bytes-per-bank gate: a fleet holds one BankState
// per bank that has logged a UER, so the struct's size is most of such a
// bank's resident memory. 968 B is one row table, whose entries rank the
// budget rows, with its first 16 entries (256 B) inside the state; core's
// session holds the state by value and must stay in the 1 024-byte size class.
// That is the bytes the session and its table took apart: the state was 704 B,
// a session in the 768-byte class, and the table a 256-byte object of its own.
// Four row tables made the state 800 B, in the 896-byte class.
func TestBankStateSize(t *testing.T) {
	if got := unsafe.Sizeof(BankState{}); got > 968 {
		t.Errorf("BankState is %d bytes, want ≤ 968", got)
	}
	if got := unsafe.Sizeof(seqAccum{}); got > 64 {
		t.Errorf("seqAccum is %d bytes, want ≤ 64", got)
	}
}

// ceOnlyBank is the quiet bank a fleet is made of: seven CEs over five rows.
func ceOnlyBank(i int) []mcelog.Event {
	rows := [7]int{0, 3, 0, 9, 3, 17, 24}
	out := make([]mcelog.Event, len(rows))
	for j, r := range rows {
		out[j] = mcelog.Event{
			Time:  t0.Add(time.Duration(i)*time.Second + time.Duration(j)*time.Hour),
			Addr:  hbmAddr(100 + i%4000 + r),
			Class: ecc.ClassCE,
			Bits:  mcelog.MakeErrBits(1<<(j%8), 1),
		}
	}
	return out
}

// TestFootprintMatchesHeap holds the self-reported footprint (what /statsz
// and the per-shard state gauges publish) to the heap the states really
// occupy: 10 000 CE-only banks, reported total within ±15 % of the measured
// HeapAlloc growth.
func TestFootprintMatchesHeap(t *testing.T) {
	const banks = 10000
	histories := make([][]mcelog.Event, banks)
	for i := range histories {
		histories[i] = ceOnlyBank(i)
	}
	states := make([]*BankState, banks)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range states {
		st, err := NewBankState(DefaultPatternConfig(), DefaultBlockSpec())
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range histories[i] {
			st.Observe(e)
		}
		states[i] = st
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	measured := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	reported := 0.0
	for _, st := range states {
		reported += float64(st.Footprint().ApproxBytes)
	}
	t.Logf("reported %.0f B/bank, measured %.0f B/bank", reported/banks, measured/banks)
	if ratio := reported / measured; ratio < 0.85 || ratio > 1.15 {
		t.Errorf("Footprint reports %.0f B/bank but the heap grew %.0f B/bank (ratio %.2f, want within ±15 %%)",
			reported/banks, measured/banks, ratio)
	}
	runtime.KeepAlive(states)
	runtime.KeepAlive(histories)
}
