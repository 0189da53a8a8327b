package features

import (
	"testing"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/mcelog"
)

// FuzzIncrementalFeatureEquivalence decodes arbitrary bytes into a
// nondecreasing-timestamp event stream and asserts that the incremental
// BankState is bit-identical to the batch reference at every prefix, for
// both the pattern vector and every block vector (BlockVector and the rows
// of BlockVectorsInto alike). This is the correctness pin for the
// O(1)-per-event refactor: any divergence between the two paths, however
// obscure the triggering sequence, is a crash here.
func FuzzIncrementalFeatureEquivalence(f *testing.F) {
	// Seeds cover the known-tricky shapes: timestamp ties at the first
	// UER, cutoff extensions revealing pending events, repeat UER rows,
	// and post-budget traffic.
	f.Add([]byte{0x00})
	f.Add([]byte{0x13, 0x02, 0x10, 0x00, 0x02, 0x14, 0x03, 0x00, 0x10, 0x05})
	f.Add([]byte{0x21, 0x02, 0x20, 0x04, 0x02, 0x20, 0x00, 0x00, 0x21, 0x07, 0x02, 0x20, 0x00})
	f.Add([]byte{0x02, 0x02, 0x08, 0x11, 0x02, 0x08, 0x00, 0x02, 0x08, 0x09, 0x01, 0x30, 0x22})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// First byte picks the budget (1..4) and the block geometry.
		cfg := PatternConfig{UERBudget: 1 + int(data[0]&0x03)}
		spec := BlockSpec{WindowRadius: 8, BlockSize: 4}
		if data[0]&0x04 != 0 {
			spec = BlockSpec{WindowRadius: 16, BlockSize: 8}
		}
		data = data[1:]

		// Each subsequent byte is one event:
		//   bits 0-1  class (3 maps to CE, keeping all classes reachable)
		//   bits 2-4  row delta from a small palette, so rows cluster,
		//             repeat, and occasionally jump out of the window
		//   bits 5-7  time advance in 13-minute steps (0 = duplicate
		//             timestamp, the tie cases the cutoff logic must get
		//             exactly right)
		const maxEvents = 120
		if len(data) > maxEvents {
			data = data[:maxEvents]
		}
		events := make([]mcelog.Event, 0, len(data))
		now := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
		row := 100
		deltas := [8]int{0, 1, -1, 3, -3, 20, -20, 7}
		classes := [4]ecc.Class{ecc.ClassCE, ecc.ClassCE, ecc.ClassUEO, ecc.ClassUER}
		for _, b := range data {
			class := classes[b&0x03]
			row += deltas[(b>>2)&0x07]
			if row < 0 {
				row = 0
			}
			now = now.Add(time.Duration(b>>5) * 13 * time.Minute)
			events = append(events, mcelog.Event{Time: now, Addr: hbmAddr(row), Class: class})
		}
		assertPrefixEquivalence(t, events, cfg, spec)
	})
}
