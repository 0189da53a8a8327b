package wal

import (
	"fmt"
	"strings"
	"testing"

	"cordial/internal/obs"
)

// TestWALMetrics: the journal's instruments count appends, fsyncs and
// their failures, and the gauges track segments / next LSN — all scraped
// through the registry's exposition output.
func TestWALMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	ffs := NewFaultFS(OSFS)
	w, err := Open(t.TempDir(), Options{FS: ffs, Sync: SyncAlways, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	for i := 0; i < 3; i++ {
		if _, err := w.Append([]byte("rec")); err != nil {
			t.Fatal(err)
		}
	}
	ffs.FailSyncAfter(0)
	if _, err := w.Append([]byte("doomed")); err == nil {
		t.Fatal("append under failing fsync succeeded")
	}
	ffs.FailSyncAfter(-1)

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"cordial_wal_appends_total 3",
		"cordial_wal_append_errors_total 1",
		"cordial_wal_fsync_errors_total 1",
		"cordial_wal_segments 1",
		"cordial_wal_next_lsn 5", // the doomed frame was written before its fsync failed: LSN 4 is spent
		// Four appends, the failed one too, are ⌈4/64⌉ samples: the first.
		`cordial_stage_seconds_count{stage="wal_append"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}
	// The fsync stage samples every fsync counted, the failed one too: the 3
	// per-append syncs, the failed one and the header sync of openSegment.
	fsyncs := w.metrics.fsyncs.Value()
	if want := fmt.Sprintf(`cordial_stage_seconds_count{stage="fsync"} %d`, (fsyncs+obs.StageEvery-1)/obs.StageEvery); fsyncs < 4 || !strings.Contains(out, want+"\n") {
		t.Errorf("%d fsyncs counted; want at least 4 and %q in exposition:\n%s", fsyncs, want, out)
	}
}

// TestWALMetricsDisabled: a journal without a registry runs with nil
// instruments end to end.
func TestWALMetricsDisabled(t *testing.T) {
	w, err := Open(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("rec")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
