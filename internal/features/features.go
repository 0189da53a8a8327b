// Package features implements Cordial's feature extraction (§IV-B and
// §IV-D): spatial, temporal and count features computed from a bank's error
// events — for failure-pattern classification (using all CEs/UEOs and the
// first three UERs) and for per-block cross-row failure prediction (using
// everything observed up to the decision time, plus block-local geometry).
//
// Every vector comes from a BankState fed one event at a time via Observe:
// O(1) amortized per event and bounded memory — the representation the
// offline dataset builders and the online stream engine share. The original
// whole-slice implementations are kept as the executable specification in
// reference_test.go; equivalence with them is enforced by table tests and a
// fuzz target.
//
// Missing information is encoded with the Missing sentinel, which tree
// learners split around naturally. A bank with no events of a class
// yields Missing for all of that class's statistics; a freshly created
// BankState (no events at all) yields Missing for every sequence
// statistic, zero for counts, and an error from PatternVector until the
// first UER arrives. Feature vectors have a fixed, documented order; the
// *FeatureNames functions return the matching column names.
package features

import (
	"fmt"
	"slices"
	"time"
)

// Missing is the sentinel for undefined feature values (no events of the
// relevant class). It is far outside every real value range (rows are
// non-negative, times are non-negative hours).
const Missing = -1.0

// secondsToHours converts a duration to fractional hours.
func hours(d time.Duration) float64 { return d.Hours() }

// seqStats summarises one error class's row and time sequences.
type seqStats struct {
	count int

	rowMin, rowMax float64
	// Consecutive |row difference| statistics, in event-time order.
	rowDiffMin, rowDiffMax, rowDiffAvg float64
	// Consecutive inter-arrival statistics, in hours.
	dtMin, dtMax, dtAvg float64
}

// PatternConfig configures pattern-classification feature extraction.
type PatternConfig struct {
	// UERBudget is the number of first UERs used (§IV-C default: 3).
	UERBudget int
}

// DefaultPatternConfig returns the paper's first-three-UER budget.
func DefaultPatternConfig() PatternConfig { return PatternConfig{UERBudget: 3} }

// patternFeatureCount is kept in sync with PatternVector/PatternFeatureNames.
const patternFeatureCount = 29

// PatternFeatureNames returns the column names of PatternVector, in order.
// The same order is produced by both the batch and the incremental
// (BankState.PatternVector) extraction paths. The slice is built once and
// shared: callers must not write it, and its capacity is its length, so an
// append copies it.
func PatternFeatureNames() []string { return patternNames }

var patternNames = func() []string {
	names := make([]string, 0, patternFeatureCount)
	for _, class := range []string{"ce", "ueo", "uer"} {
		names = append(names,
			class+"_row_min", class+"_row_max",
			class+"_row_diff_min", class+"_row_diff_max", class+"_row_diff_avg",
			class+"_dt_min_h", class+"_dt_max_h",
		)
	}
	names = append(names,
		"uer_row_span",
		"uer_count_used",
		"ce_count_before_first_uer",
		"ueo_count_before_first_uer",
		"all_row_diff_avg",
		"first_error_to_first_uer_h",
		"ce_rate_before_first_uer",
		"uer_dt_avg_h",
	)
	return slices.Clip(names)
}()

// BlockSpec describes the cross-row prediction window geometry (§IV-D):
// WindowRadius rows above and below the last UER row, divided into blocks of
// BlockSize rows. The paper uses radius 64 with 8-row blocks → 16 blocks.
type BlockSpec struct {
	WindowRadius int
	BlockSize    int
}

// DefaultBlockSpec returns the paper's 16×8 geometry.
func DefaultBlockSpec() BlockSpec { return BlockSpec{WindowRadius: 64, BlockSize: 8} }

// Validate checks the spec's internal consistency.
func (s BlockSpec) Validate() error {
	if s.WindowRadius <= 0 || s.BlockSize <= 0 {
		return fmt.Errorf("features: block spec %+v must be positive", s)
	}
	if (2*s.WindowRadius)%s.BlockSize != 0 {
		return fmt.Errorf("features: window 2×%d not divisible by block size %d", s.WindowRadius, s.BlockSize)
	}
	return nil
}

// NumBlocks returns the number of blocks in the window.
func (s BlockSpec) NumBlocks() int { return 2 * s.WindowRadius / s.BlockSize }

// BlockRange returns the inclusive row range [lo, hi] of block index b
// (0 ≤ b < NumBlocks) anchored at the given last UER row. Ranges may fall
// outside the bank; callers clip against geometry when needed.
func (s BlockSpec) BlockRange(lastUERRow, b int) (lo, hi int) {
	lo = lastUERRow - s.WindowRadius + b*s.BlockSize
	return lo, lo + s.BlockSize - 1
}

// BlockFeatureCount is the length of a block vector, kept in sync with
// BlockVector/BlockFeatureNames.
const BlockFeatureCount = 35

// BlockFeatureNames returns the column names of BlockVector, in order.
// The same order is produced by both the batch and the incremental
// (BankState.BlockVector) extraction paths. Like PatternFeatureNames, it is
// built once, read-only and full.
func BlockFeatureNames() []string { return blockNames }

var blockNames = func() []string {
	names := make([]string, 0, BlockFeatureCount)
	for _, class := range []string{"ce", "ueo", "uer"} {
		names = append(names,
			class+"_count",
			class+"_row_diff_min", class+"_row_diff_max", class+"_row_diff_avg",
			class+"_dt_min_h", class+"_dt_max_h", class+"_dt_avg_h",
		)
	}
	names = append(names,
		"all_count",
		"time_since_last_event_h",
		"block_offset_rows",
		"block_abs_offset_rows",
		"block_prior_error_count",
		"block_prior_uer_count",
		"dist_to_nearest_ce_row",
		"dist_to_nearest_ueo_row",
		"dist_to_nearest_uer_row",
		"uer_rows_observed",
		"anchor_row",
		"uer_row_mean_offset",
		"block_dist_to_uer_mean",
		"block_dist_to_ce_mean",
	)
	return slices.Clip(names)
}()
