package stream

import (
	"cmp"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"cordial/internal/obs"
)

// rotatedFiles lists path.<stamp> siblings, sorted by name.
func rotatedFiles(t *testing.T, path string) []string {
	t.Helper()
	matches, err := filepath.Glob(path + ".*")
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestDeadLetterRotatesAtSizeCap: the active file never exceeds
// MaxFileBytes, full files rotate aside, and pruning keeps only MaxFiles
// rotated files — so a sustained poison stream cannot fill the disk.
func TestDeadLetterRotatesAtSizeCap(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dead.jsonl")
	clock := obs.NewFakeClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	l, err := openDeadLetterLog(path, DeadLetterRotation{
		MaxFileBytes: 64,
		MaxFiles:     2,
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()

	line := []byte(strings.Repeat("x", 30)) // 31 bytes with newline; 2 per file
	for i := 0; i < 20; i++ {
		l.write(line)
	}

	if st, err := os.Stat(path); err != nil || st.Size() > 64 {
		t.Errorf("active file size = %v (err %v), want <= 64", st.Size(), err)
	}
	rot := rotatedFiles(t, path)
	if len(rot) != 2 {
		t.Errorf("rotated files = %d (%v), want 2", len(rot), rot)
	}
	// Total trail stays under (MaxFiles+1) * MaxFileBytes.
	total := int64(0)
	for _, p := range append(rot, path) {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		total += st.Size()
	}
	if total > 3*64 {
		t.Errorf("total trail = %d bytes, want <= %d", total, 3*64)
	}
}

// TestDeadLetterAgePruning: rotated files older than MaxAge disappear on
// the next rotation even when the count cap would keep them.
func TestDeadLetterAgePruning(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dead.jsonl")
	clock := obs.NewFakeClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	l, err := openDeadLetterLog(path, DeadLetterRotation{
		MaxFileBytes: 32,
		MaxFiles:     100, // count cap out of the way
		MaxAge:       time.Minute,
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()

	line := []byte(strings.Repeat("y", 30))
	l.write(line) // fills the file
	l.write(line) // rotates: one rotated file stamped t0
	if got := rotatedFiles(t, path); len(got) != 1 {
		t.Fatalf("rotated files = %d, want 1", len(got))
	}

	clock.Advance(2 * time.Minute)
	l.write(line) // rotates again; the t0 file is now past MaxAge
	rot := rotatedFiles(t, path)
	if len(rot) != 1 {
		t.Fatalf("rotated files after age prune = %d (%v), want 1", len(rot), rot)
	}
	// The survivor must be the fresh one (stamped after the advance).
	if !strings.HasSuffix(rot[0], ".jsonl."+strconv.FormatInt(clock.Now().UnixNano(), 10)) {
		t.Errorf("surviving rotated file %q is not the freshest", rot[0])
	}
}

// TestDeadLetterOpenPrunesLeftovers: boot-time open prunes rotated files
// from earlier runs so a crash loop cannot accumulate them.
func TestDeadLetterOpenPrunesLeftovers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dead.jsonl")
	for i := 1; i <= 5; i++ {
		if err := os.WriteFile(path+"."+strconv.Itoa(i), []byte("old\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A non-numeric sibling must be left alone.
	other := path + ".bak"
	if err := os.WriteFile(other, []byte("keep\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	l, err := openDeadLetterLog(path, DeadLetterRotation{MaxFileBytes: 1 << 20, MaxFiles: 2}, obs.SystemClock{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()

	rot := rotatedFiles(t, path)
	kept := 0
	for _, p := range rot {
		if p == other {
			continue
		}
		kept++
	}
	if kept != 2 {
		t.Errorf("kept %d rotated files (%v), want 2", kept, rot)
	}
	if _, err := os.Stat(other); err != nil {
		t.Errorf("non-numeric sibling was pruned: %v", err)
	}
}

// TestDeadLetterRotationStampsAdvance: every rotation takes a stamp above the
// newest rotated file's, so a clock that stands still cannot make a rotation
// replace the file before it, and a clock that steps back cannot make prune
// keep the older file over the newer.
func TestDeadLetterRotationStampsAdvance(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxFiles int
		step     time.Duration // clock move before the second rotation
		want     []string      // the rotated files' lines, oldest file first
	}{
		{"clock stands still", 100, 0, []string{"a\nb\n", "c\nd\n"}},
		{"clock steps back", 1, -time.Hour, []string{"c\nd\n"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "dead.jsonl")
			clock := obs.NewFakeClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
			l, err := openDeadLetterLog(path, DeadLetterRotation{MaxFileBytes: 4, MaxFiles: tc.maxFiles}, clock)
			if err != nil {
				t.Fatal(err)
			}
			defer l.close()
			for _, line := range []string{"a", "b", "c"} { // "c" rotates a and b aside
				l.write([]byte(line))
			}
			clock.Advance(tc.step)
			for _, line := range []string{"d", "e"} { // "e" rotates c and d aside
				l.write([]byte(line))
			}
			rot := rotatedFiles(t, path)
			slices.SortFunc(rot, func(a, b string) int {
				x, _ := strconv.ParseInt(a[len(path)+1:], 10, 64)
				y, _ := strconv.ParseInt(b[len(path)+1:], 10, 64)
				return cmp.Compare(x, y)
			})
			var got []string
			for _, p := range rot {
				b, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, string(b))
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("rotated files hold %q, want %q", got, tc.want)
			}
		})
	}
}
