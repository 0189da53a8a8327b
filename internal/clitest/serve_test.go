package clitest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"cordial/internal/stream"
)

// startDaemon starts one of the built daemons and kills it when the test ends.
func startDaemon(t *testing.T, bin, name string, args ...string) *Daemon {
	t.Helper()
	d := &Daemon{Name: name, Path: filepath.Join(bin, name), Args: args}
	t.Cleanup(d.Kill)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	return d
}

// startServe starts cordial-serve on an ephemeral port with demo-mode
// defaults; extraArgs append to (and may override) them.
func startServe(t *testing.T, bin string, extraArgs ...string) *Daemon {
	t.Helper()
	return startDaemon(t, bin, "cordial-serve", append([]string{
		"-selftrain", "-seed", "7", "-train-banks", "50", "-trees", "10",
		"-addr", "127.0.0.1:0",
	}, extraArgs...)...)
}

// stop sends SIGTERM and requires a clean exit.
func stop(t *testing.T, d *Daemon) {
	t.Helper()
	if err := d.Terminate(30 * time.Second); err != nil {
		t.Fatalf("%s exit: %v\noutput:\n%s", d.Name, err, d.Output())
	}
}

// check fails the test on a harness error.
func check(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// post POSTs body to path and decodes the JSON answer, which must carry
// status want.
func post(t *testing.T, d *Daemon, path string, want int, body []byte) map[string]any {
	t.Helper()
	resp, err := http.Post(d.URL(path), "application/octet-stream", bytes.NewReader(body))
	check(t, err)
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); resp.StatusCode != want || err != nil {
		t.Fatalf("POST %s = %d, want %d (%v)\noutput:\n%s", path, resp.StatusCode, want, err, d.Output())
	}
	return out
}

// ingest POSTs body to path and requires all n of its events accepted.
func ingest(t *testing.T, d *Daemon, path string, body []byte, n int) {
	t.Helper()
	if res := post(t, d, path, http.StatusOK, body); int(res["accepted"].(float64)) != n {
		t.Fatalf("POST %s: %v, want %d accepted", path, res, n)
	}
}

// reference feeds a whole log of n events to a daemon that never fails,
// stops it and returns its action set.
func reference(t *testing.T, d *Daemon, log []byte, n int) map[string]bool {
	t.Helper()
	ingest(t, d, "/v1/events", log, n)
	check(t, WaitDrained(d))
	want, err := ActionSet(d)
	check(t, err)
	if len(want) == 0 {
		t.Fatal("reference daemon emitted no actions; fleet too small")
	}
	stop(t, d)
	return want
}

// metrics scrapes /metrics through the real HTTP stack.
func metrics(t *testing.T, d *Daemon) string {
	t.Helper()
	resp, err := http.Get(d.URL("/metrics"))
	check(t, err)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	check(t, err)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	return string(body)
}

// TestCLIServeEndToEnd drives the daemon over a localhost port: JSONL
// ingest of a generated fleet log, session inspection, stats, action
// retrieval, malformed-batch resilience, a mid-batch disconnect, the
// Prometheus scrape, a wire log file POSTed as it stands, and graceful
// SIGTERM shutdown with a drain report.
func TestCLIServeEndToEnd(t *testing.T) {
	bin := buildAll(t)
	work := t.TempDir()

	// A JSONL fleet log for ingestion.
	logPath := filepath.Join(work, "fleet.jsonl")
	out := run(t, bin, "cordial-gen", "-seed", "9", "-uer-banks", "50",
		"-benign-banks", "60", "-log", logPath, "-format", "jsonl", "-truth", "")
	if !strings.Contains(out, "50 faulty banks") {
		t.Fatalf("gen output: %s", out)
	}
	logBytes, err := os.ReadFile(logPath)
	check(t, err)
	lines := strings.Split(strings.TrimSpace(string(logBytes)), "\n")

	p := startServe(t, bin)

	// Readiness first — the stronger gate: 200 here means no degraded
	// sessions and a working journal, not merely "the process is up".
	var ready struct {
		Ready   bool     `json:"ready"`
		Reasons []string `json:"reasons"`
	}
	if code := GetJSON(nil, p.URL("/readyz"), &ready); code != http.StatusOK || !ready.Ready {
		t.Fatalf("readyz = %d (ready=%v reasons=%v)", code, ready.Ready, ready.Reasons)
	}
	// Liveness stays a separate, weaker probe.
	if code := GetJSON(nil, p.URL("/healthz"), nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}

	// Ingest the whole month in one batch, and wait until every event has
	// flowed through its session.
	ingest(t, p, "/v1/events", logBytes, len(lines))
	check(t, WaitDrained(p))
	var stats map[string]any
	if code := GetJSON(nil, p.URL("/statsz"), &stats); code != http.StatusOK {
		t.Fatalf("statsz = %d", code)
	}
	if int(stats["ingested"].(float64)) != len(lines) {
		t.Errorf("statsz ingested %v, want %d", stats["ingested"], len(lines))
	}
	if int(stats["sessionsLive"].(float64)) == 0 {
		t.Error("no live sessions after ingest")
	}

	// 50 faulty banks with a same-scale model: actions are expected.
	var acts struct {
		Actions []struct {
			Kind string `json:"kind"`
			Bank string `json:"bank"`
		} `json:"actions"`
	}
	if code := GetJSON(nil, p.URL("/v1/actions"), &acts); code != http.StatusOK {
		t.Fatalf("actions = %d", code)
	}
	if len(acts.Actions) == 0 {
		t.Fatalf("no actions emitted; stats %v\noutput:\n%s", stats, p.Output())
	}

	// Inspect the bank behind the first action.
	var sess struct {
		Bank   string `json:"bank"`
		Events int    `json:"events"`
	}
	if code := GetJSON(nil, p.URL("/v1/banks/"+acts.Actions[0].Bank), &sess); code != http.StatusOK {
		t.Fatalf("banks/{addr} = %d", code)
	}
	if sess.Events == 0 || sess.Bank != acts.Actions[0].Bank {
		t.Errorf("session %+v for bank %s", sess, acts.Actions[0].Bank)
	}
	// Unknown bank and garbage address.
	if code := GetJSON(nil, p.URL("/v1/banks/n127.u7.h1.s1.c7.p1.g3.b3.r0.col0"), nil); code != http.StatusNotFound {
		t.Errorf("unknown bank = %d", code)
	}
	if code := GetJSON(nil, p.URL("/v1/banks/junk"), nil); code != http.StatusBadRequest {
		t.Errorf("junk bank = %d", code)
	}

	// Malformed batch: good line + garbage + bad class; daemon keeps the
	// good line and reports the rest.
	batch := lines[0] + "\nnot json\n" +
		`{"time":"2026-01-01T00:00:00Z","addr":"n0.u0.h0.s0.c0.p0.g0.b0.r1.col1","class":"??"}` + "\n"
	res := post(t, p, "/v1/events", http.StatusOK, []byte(batch))
	if int(res["accepted"].(float64)) != 1 || int(res["rejected"].(float64)) != 2 {
		t.Fatalf("malformed batch result %v", res)
	}

	// Mid-batch disconnect: declare a large body, send half a line, slam
	// the connection. The daemon must stay healthy.
	conn, err := net.Dial("tcp", p.Addr())
	check(t, err)
	fmt.Fprintf(conn, "POST /v1/events HTTP/1.1\r\nHost: %s\r\nContent-Length: 1000000\r\nContent-Type: application/jsonl\r\n\r\n", p.Addr())
	fmt.Fprintf(conn, "%s\n{\"time\":\"2026-01-01T", lines[0])
	conn.Close()
	time.Sleep(100 * time.Millisecond)
	if code := GetJSON(nil, p.URL("/readyz"), nil); code != http.StatusOK {
		t.Fatalf("readyz after disconnect = %d", code)
	}
	check(t, WaitDrained(p))
	if code := GetJSON(nil, p.URL("/statsz"), &stats); code != http.StatusOK {
		t.Fatalf("statsz after disconnect = %d", code)
	}

	// One /metrics scrape: the ingest counter agrees with /statsz, and the
	// fold stage's samples are exported as a histogram series, ⌈n/64⌉ of the
	// n events processed.
	scrape := metrics(t, p)
	for _, want := range []string{
		fmt.Sprintf("\ncordial_ingest_accepted_total %d\n", int(stats["ingested"].(float64))),
		"\n# TYPE cordial_stage_seconds histogram\n",
		fmt.Sprintf("\ncordial_stage_seconds_count{stage=\"fold\"} %d\n", (int(stats["processed"].(float64))+63)/64),
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("metrics scrape missing %q", strings.TrimSpace(want))
		}
	}

	// File ≡ wire: what cordial-gen writes in its default format is a
	// /v1/events.bin body as it stands, and cordial-study counts the same
	// events in the file that the daemon accepts from it.
	wirePath := filepath.Join(work, "fleet.wire")
	out = run(t, bin, "cordial-gen", "-seed", "5", "-uer-banks", "4", "-benign-banks", "4",
		"-log", wirePath, "-truth", "")
	var nwire int
	if _, err := fmt.Sscanf(out, "generated %d events", &nwire); err != nil || nwire == 0 {
		t.Fatalf("gen output: %s", out)
	}
	wire, err := os.ReadFile(wirePath)
	check(t, err)
	if res := post(t, p, "/v1/events.bin", http.StatusOK, wire); int(res["accepted"].(float64)) != nwire {
		t.Errorf("wire ingest %v, want %d accepted", res, nwire)
	}
	if out := run(t, bin, "cordial-study", "-log", wirePath); !strings.HasPrefix(out, fmt.Sprintf("log: %d events,", nwire)) {
		t.Errorf("cordial-study does not count the %d events the daemon accepted:\n%s", nwire, out)
	}

	// Graceful shutdown: SIGTERM → drain report → clean exit.
	stop(t, p)
	if !strings.Contains(p.Output(), "drained") {
		t.Errorf("no drain report in output:\n%s", p.Output())
	}
}

// TestCLIServeRetraining drives the online retraining loop on a live
// daemon with the journal and model registry enabled: a drifted pattern mix
// in, a retrain forced off the journal, the candidate's shadow twins fed
// fresh drifted banks, the shadow scoreboard read, and the candidate
// promoted through the admin API, with /readyz 200 throughout. The
// lifecycle interval is parked at 30m so the test, not the timer, drives
// every transition.
func TestCLIServeRetraining(t *testing.T) {
	bin := buildAll(t)
	work := t.TempDir()
	// The paper's field mix is single-row dominant; this one is
	// scattered/whole-column heavy.
	drifted := func(seed string) []byte {
		path := filepath.Join(work, "drift-"+seed+".wire")
		run(t, bin, "cordial-gen", "-seed", seed, "-uer-banks", "40", "-benign-banks", "10",
			"-weights", "single=5,scattered=70,wholecol=25", "-log", path, "-truth", "")
		data, err := os.ReadFile(path)
		check(t, err)
		return data
	}
	d := startServe(t, bin, "-seed", "3", "-train-banks", "20", "-trees", "5",
		"-wal-dir", filepath.Join(work, "wal"), "-fsync", "never",
		"-retrain", "-retrain-interval", "30m")
	ready := func(when string) {
		t.Helper()
		if code := GetJSON(nil, d.URL("/readyz"), nil); code != http.StatusOK {
			t.Fatalf("readyz = %d %s\noutput:\n%s", code, when, d.Output())
		}
	}
	var models struct {
		ActiveVersion uint64 `json:"activeVersion"`
		Lifecycle     struct {
			CandidateVersion uint64 `json:"candidateVersion"`
		} `json:"lifecycle"`
	}
	var stats struct {
		ActiveModelVersion uint64             `json:"activeModelVersion"`
		Shadow             stream.ShadowStats `json:"shadow"`
	}

	ready("at boot")
	post(t, d, "/v1/events.bin", http.StatusOK, drifted("11"))
	ready("after the first ingest")
	if res := post(t, d, "/v1/models/retrain", http.StatusAccepted, []byte(`{"trigger":"clitest"}`)); res["status"] != "retraining" {
		t.Fatalf("forced retrain answered %v", res)
	}
	if code := GetJSON(nil, d.URL("/v1/models"), &models); code != http.StatusOK || models.Lifecycle.CandidateVersion != 2 {
		t.Fatalf("/v1/models = %d, candidate %d; want candidate 2", code, models.Lifecycle.CandidateVersion)
	}
	// Fresh drifted banks (another seed) create their sessions while the
	// shadow is live, so each gets a candidate twin and the shadow scores
	// real traffic before the promotion decision.
	post(t, d, "/v1/events.bin", http.StatusOK, drifted("12"))
	ready("while the shadow runs")

	// The drift-trained candidate covers more of the drifted UERs than the
	// incumbent, over the same UERs, and never panicked.
	check(t, WaitDrained(d))
	if code := GetJSON(nil, d.URL("/statsz"), &stats); code != http.StatusOK {
		t.Fatalf("statsz = %d", code)
	}
	sh := stats.Shadow
	t.Logf("shadow ICR %d/%d, primary ICR %d/%d", sh.ShadowICR.Covered, sh.ShadowICR.Total,
		sh.PrimaryICR.Covered, sh.PrimaryICR.Total)
	if sh.ShadowICR.Total == 0 || sh.ShadowICR.Total != sh.PrimaryICR.Total ||
		sh.ShadowICR.Covered <= sh.PrimaryICR.Covered || sh.CandidatePanics != 0 {
		t.Errorf("shadow scoreboard %+v: want the candidate ahead over equal totals, no panics", sh)
	}

	if res := post(t, d, "/v1/models/promote", http.StatusOK, nil); res["activeVersion"] != 2.0 {
		t.Fatalf("promotion answered %v", res)
	}
	check(t, PollUntil("the swap on /metrics", 10*time.Second, func() bool {
		return strings.Contains(metrics(t, d), "\ncordial_model_swaps_total 1\n")
	}))
	ready("after promotion")
	if code := GetJSON(nil, d.URL("/statsz"), &stats); code != http.StatusOK || stats.ActiveModelVersion != 2 {
		t.Errorf("statsz = %d, activeModelVersion %d; want 2", code, stats.ActiveModelVersion)
	}
	if code := GetJSON(nil, d.URL("/v1/models"), &models); code != http.StatusOK || models.ActiveVersion != 2 {
		t.Errorf("/v1/models = %d, activeVersion %d; want the registry pointer on 2", code, models.ActiveVersion)
	}
	stop(t, d)
}

// TestCLIServeCrashRecovery is the boot-kill-restart smoke: a daemon with a
// WAL directory and -snapshot-interval checkpoints what it ingested, takes
// more, and is SIGKILLed — no drain, no shutdown snapshot. A new process over
// the same directory must report recovery with sessions from the periodic
// snapshot and the rest replayed from the journal, accept the rest of the
// log, and converge to exactly the action set of a daemon that never crashed:
// the actions it re-derives from the journal, with those the first process
// emitted before its snapshot (a snapshot holds sessions, not actions).
func TestCLIServeCrashRecovery(t *testing.T) {
	bin := buildAll(t)
	work := t.TempDir()
	logBytes, lines := jsonlFleet(t, bin, "-seed", "21", "-uer-banks", "30", "-benign-banks", "20")
	half, more := len(lines)/2, 3*len(lines)/4
	part := func(from, to int) []byte { return []byte(strings.Join(lines[from:to], "\n") + "\n") }
	// The daemons must share one model: same self-train seed, smaller than
	// the default to keep the trainings cheap.
	serveArgs := func(walDir string) []string {
		return []string{"-train-banks", "30", "-trees", "8",
			"-wal-dir", walDir, "-fsync", "never", "-snapshot-interval", "1s"}
	}

	// Reference: never crashes.
	ref := startServe(t, bin, serveArgs(filepath.Join(work, "wal-ref"))...)
	want := reference(t, ref, logBytes, len(lines))
	if !strings.Contains(ref.Output(), "snapshot") {
		t.Errorf("no shutdown snapshot report in reference output:\n%s", ref.Output())
	}

	// Victim: half the log, checkpointed by the periodic snapshots, then a
	// quarter more and SIGKILL well before the next snapshot.
	walDir := filepath.Join(work, "wal-crash")
	p1 := startServe(t, bin, serveArgs(walDir)...)
	ingest(t, p1, "/v1/events", part(0, half), half)
	checkpoint(t, p1)
	got, err := ActionSet(p1)
	check(t, err)
	ingest(t, p1, "/v1/events", part(half, more), more-half)
	p1.Kill()

	// Survivor: same directory; must recover the snapshot and the journal,
	// then finish the log and match the reference exactly.
	p2 := startServe(t, bin, serveArgs(walDir)...)
	if !strings.Contains(p2.Output(), "recovered") {
		t.Errorf("no recovery report in output:\n%s", p2.Output())
	}
	var stats map[string]any
	if code := GetJSON(nil, p2.URL("/statsz"), &stats); code != http.StatusOK {
		t.Fatalf("statsz = %d", code)
	}
	if stats["walEnabled"] != true {
		t.Errorf("statsz walEnabled = %v", stats["walEnabled"])
	}
	if got, _ := stats["recoveredSessions"].(float64); got == 0 {
		t.Errorf("recoveredSessions = %v; want sessions from the periodic snapshot", stats["recoveredSessions"])
	}
	// The journal keeps its one segment, so every record is replayed: those
	// the snapshot covers are refused by their watermarks, the rest folded.
	if got, _ := stats["recoveredEvents"].(float64); int(got) != more {
		t.Errorf("recoveredEvents = %v, want %d", stats["recoveredEvents"], more)
	}
	if seq, _ := stats["lastSnapshotSeq"].(float64); int(seq) >= more {
		t.Fatalf("recovered snapshot %v covers the last quarter too: SIGKILL came after the next snapshot, and no suffix is replayed", seq)
	}
	ingest(t, p2, "/v1/events", part(more, len(lines)), len(lines)-more)
	check(t, WaitDrained(p2))
	after, err := ActionSet(p2)
	check(t, err)
	for k := range after {
		got[k] = true
	}
	sameActions(t, "recovered daemon", want, got)
	stop(t, p2)
}

// TestCLIServePeriodicSnapshot: a daemon that -snapshot-interval has
// checkpointed after its whole log boots back, SIGKILLed, from a snapshot
// that covers every event it accepted.
func TestCLIServePeriodicSnapshot(t *testing.T) {
	bin := buildAll(t)
	logBytes, lines := jsonlFleet(t, bin, "-seed", "22", "-uer-banks", "10", "-benign-banks", "10")
	args := []string{"-train-banks", "30", "-trees", "8", "-wal-dir", filepath.Join(t.TempDir(), "wal"),
		"-fsync", "never", "-snapshot-interval", "200ms"}
	d := startServe(t, bin, args...)
	ingest(t, d, "/v1/events", logBytes, len(lines))
	checkpoint(t, d)
	d.Kill()

	d = startServe(t, bin, args...)
	var stats struct {
		RecoveredSessions int `json:"recoveredSessions"`
		LastSnapshotSeq   int `json:"lastSnapshotSeq"`
	}
	if code := GetJSON(nil, d.URL("/statsz"), &stats); code != http.StatusOK ||
		stats.RecoveredSessions == 0 || stats.LastSnapshotSeq < len(lines) {
		t.Fatalf("statsz = %d, %+v after a restart; want sessions from a snapshot covering all %d events\noutput:\n%s",
			code, stats, len(lines), d.Output())
	}
	stop(t, d)
}

// jsonlFleet generates a JSONL fleet log with cordial-gen's genArgs and
// returns it whole and split into lines.
func jsonlFleet(t *testing.T, bin string, genArgs ...string) ([]byte, []string) {
	t.Helper()
	logPath := filepath.Join(t.TempDir(), "fleet.jsonl")
	run(t, bin, append(append([]string{"cordial-gen"}, genArgs...), "-log", logPath, "-format", "jsonl", "-truth", "")...)
	data, err := os.ReadFile(logPath)
	check(t, err)
	return data, strings.Split(strings.TrimSpace(string(data)), "\n")
}

// sameActions requires got to equal the reference action set want.
func sameActions(t *testing.T, who string, want, got map[string]bool) {
	t.Helper()
	for k := range want {
		if !got[k] {
			t.Errorf("%s missing action %s", who, k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("%s invented action %s", who, k)
		}
	}
}

// checkpoint waits for d to drain, then for two periodic snapshots counted
// by cordial_snapshot_seconds_count on /metrics: the second began after the
// drain.
func checkpoint(t *testing.T, d *Daemon) {
	t.Helper()
	check(t, WaitDrained(d))
	count := func() int {
		for _, line := range strings.Split(metrics(t, d), "\n") {
			if v, ok := strings.CutPrefix(line, "cordial_snapshot_seconds_count "); ok {
				n, err := strconv.Atoi(v)
				check(t, err)
				return n
			}
		}
		t.Fatal("no cordial_snapshot_seconds_count on /metrics")
		return 0
	}
	base := count()
	check(t, PollUntil("two periodic snapshots", 10*time.Second, func() bool { return count() >= base+2 }))
}

// TestCLIServeFlagErrors covers startup validation: each bad command line
// fails Start within seconds, for its own reason.
func TestCLIServeFlagErrors(t *testing.T) {
	bin := buildAll(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "need -models <path> or -selftrain"},
		{[]string{"-models", "/nonexistent"}, "open /nonexistent"},
		{[]string{"-selftrain", "-models", "x"}, "mutually exclusive"},
		{[]string{"-selftrain", "-policy", "bogus"}, `unknown ingest policy "bogus"`},
		{[]string{"-selftrain", "-snapshot-interval", "5s"}, "-snapshot-interval requires -wal-dir"},
		{[]string{"-selftrain", "-wal-dir", "x", "-fsync", "sometimes"}, `unknown sync policy "sometimes"`},
		{[]string{"-selftrain", "-log-format", "xml"}, `unknown log format "xml"`},
	} {
		d := &Daemon{Name: "cordial-serve", Path: filepath.Join(bin, "cordial-serve"), Args: tc.args}
		t.Cleanup(d.Kill)
		began := time.Now()
		err := d.Start()
		if took := time.Since(began); err == nil || !strings.Contains(err.Error(), tc.want) || took > 10*time.Second {
			t.Errorf("cordial-serve %v: Start = %v after %v; want %q within 10 s", tc.args, err, took, tc.want)
		}
	}
}
