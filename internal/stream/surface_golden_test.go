package stream

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/obs"
	"cordial/internal/wal"
)

// goldenSurfaceServer boots the engine whose telemetry names every key and
// family the daemon can emit: durable, restarted over a snapshot plus a
// journal suffix (so the recovery and snapshot fields are non-zero), with a
// shadow evaluation scoring a bank born under it, and with its last journal
// append failed (so the omitempty error string is present).
func goldenSurfaceServer(t *testing.T) *Server {
	t.Helper()
	ffs := wal.NewFaultFS(wal.OSFS)
	cfg := Config{
		Models:     newFakeModels(1, 2),
		Shards:     2,
		Durability: DurabilityConfig{Dir: filepath.Join(t.TempDir(), "wal"), FS: ffs, Sync: wal.SyncAlways},
	}
	first := newTestEngine(t, cfg)
	ce := uerAt(testBank(4), 7, 0)
	ce.Class = ecc.ClassCE
	feed(t, first, uerAt(testBank(1), 100, 0), uerAt(testBank(1), 101, 1), ce)
	if _, err := first.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := first.Ingest(uerAt(testBank(1), 102, 2)); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	e := newTestEngine(t, cfg)
	t.Cleanup(func() { e.Close() })
	srv := NewServer(e, ServerConfig{})
	if err := e.StartShadow(2); err != nil {
		t.Fatal(err)
	}
	bank := testBank(3)
	post(t, srv, jsonlBody(t, uerAt(bank, 10, 3), uerAt(bank, 11, 4), uerAt(bank, 12, 5), uerAt(bank, 12, 6)))
	if err := e.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ffs.FailSyncAfter(0)
	if err := e.Ingest(uerAt(bank, 13, 7)); err == nil {
		t.Fatal("ingest under a failing fsync succeeded")
	}
	return srv
}

// jsonKeyTypes flattens a decoded JSON value into "path<TAB>type" lines, one
// per node, containers included; array elements share the path "p[]".
func jsonKeyTypes(path string, v any, out map[string]bool) {
	kind := "null"
	switch x := v.(type) {
	case map[string]any:
		kind = "object"
		for k, c := range x {
			jsonKeyTypes(strings.TrimPrefix(path+"."+k, "."), c, out)
		}
	case []any:
		kind = "array"
		for _, c := range x {
			jsonKeyTypes(path+"[]", c, out)
		}
	case string:
		kind = "string"
	case float64:
		kind = "number"
	case bool:
		kind = "bool"
	}
	if path != "" {
		out[path+"\t"+kind] = true
	}
}

// metricFamilies reduces an exposition payload to one line per family: name,
// type, the label keys its series carry, and the help text.
func metricFamilies(t *testing.T, exposition string) []string {
	t.Helper()
	type family struct {
		name, kind, help string
		labels           map[string]bool
	}
	var fams []*family
	for _, line := range strings.Split(exposition, "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, help, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			fams = append(fams, &family{name: name, help: help, labels: make(map[string]bool)})
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if cur := fams[len(fams)-1]; cur.name != fields[2] {
				t.Fatalf("TYPE line %q follows HELP for %s", line, cur.name)
			}
			fams[len(fams)-1].kind = fields[3]
		case line != "":
			snap, err := obs.ParseText(strings.NewReader(line))
			if err != nil {
				t.Fatalf("exposition line %q: %v", line, err)
			}
			cur := fams[len(fams)-1]
			if !strings.HasPrefix(snap.Samples[0].Name, cur.name) {
				t.Fatalf("series %q under family %s", line, cur.name)
			}
			for _, l := range snap.Samples[0].Labels {
				cur.labels[l.Key] = true
			}
		}
	}
	lines := make([]string, len(fams))
	for i, f := range fams {
		keys := make([]string, 0, len(f.labels))
		for k := range f.labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		lines[i] = fmt.Sprintf("%s\t%s\t{%s}\t%s", f.name, f.kind, strings.Join(keys, ","), f.help)
	}
	sort.Strings(lines)
	return lines
}

// TestStatsSurfaceGoldens pins the names operator tooling keys on: every
// /statsz JSON key path with its JSON type, and every /metrics family with its
// type, label keys and help. Renaming a key, changing a value's type or
// dropping a family is a wire change and must show up as a golden diff.
func TestStatsSurfaceGoldens(t *testing.T) {
	srv := goldenSurfaceServer(t)

	rec, body := get(t, srv, "/statsz")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /statsz = %d: %s", rec.Code, body)
	}
	var stats any
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("statsz not JSON: %v\n%s", err, body)
	}
	// One wire shape for a shadow scoreboard: /statsz embeds ShadowStats as
	// tagged, which is what GET /v1/models embeds too.
	tagged, err := json.Marshal(srv.engine.ShadowStats())
	if err != nil {
		t.Fatal(err)
	}
	var want any
	if err := json.Unmarshal(tagged, &want); err != nil {
		t.Fatal(err)
	}
	if got := stats.(map[string]any)["shadow"]; !reflect.DeepEqual(got, want) {
		t.Errorf("/statsz shadow = %v, ShadowStats encodes as %v", got, want)
	}

	set := make(map[string]bool)
	jsonKeyTypes("", stats, set)
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	for _, g := range []struct {
		file  string
		lines []string
	}{
		{"statsz_keys.golden", keys},
		{"metric_families.golden", metricFamilies(t, scrapeMetrics(t, srv))},
	} {
		path := filepath.Join("testdata", g.file)
		got := strings.Join(g.lines, "\n") + "\n"
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs (rerun with -update-golden if the wire change is intended)\n--- got\n%s--- want\n%s", path, got, want)
		}
	}
}
