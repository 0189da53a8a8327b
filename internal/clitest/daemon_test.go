package clitest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// Daemon is one supervised fleet process (cordial-serve, cordial-control
// or cordial-router): launch, scan stdout for the resolved-address slog
// line, capture output. It lives outside testing.T so a test can SIGKILL a
// process from any goroutine mid-run.
type Daemon struct {
	Name string // role label: n1, cordial-control, cordial-router
	Path string // binary path
	Args []string

	mu    sync.Mutex
	cmd   *exec.Cmd
	addr  string
	out   *tailBuf
	read  chan struct{} // closed once stdout is read to its end
	alive bool
}

// tailBuf is a concurrency-safe, bounded output capture: it keeps the
// last maxTail bytes so a chatty daemon cannot balloon the test.
type tailBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

const maxTail = 256 << 10

func (b *tailBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n, err := b.buf.Write(p)
	if b.buf.Len() > maxTail {
		b.buf.Next(b.buf.Len() - maxTail) // the buffer reuses the skipped front
	}
	return n, err
}

func (b *tailBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startupTimeout bounds how long a daemon may take to report its listen
// address; self-training dominates and can be slow on loaded CI hosts.
const startupTimeout = 3 * time.Minute

// Start launches the process and blocks until it logs
// "msg=listening addr=127.0.0.1:NNNNN" on stdout. A process that closes
// stdout first (it exited at boot) fails at once, with its exit status and
// output.
func (d *Daemon) Start() error {
	d.mu.Lock()
	if d.alive {
		d.mu.Unlock()
		return fmt.Errorf("clitest: %s already running", d.Name)
	}
	// The test owns stdout's read end, so Wait cannot close it under the
	// reader: the output is whole once read is closed.
	stdout, pw, err := os.Pipe()
	if err != nil {
		d.mu.Unlock()
		return err
	}
	cmd := exec.Command(d.Path, d.Args...)
	out := &tailBuf{}
	cmd.Stdout, cmd.Stderr = pw, out
	err = cmd.Start()
	pw.Close()
	if err != nil {
		stdout.Close()
		d.mu.Unlock()
		return fmt.Errorf("clitest: start %s: %w", d.Name, err)
	}
	read := make(chan struct{})
	d.cmd, d.out, d.read, d.alive = cmd, out, read, true
	d.mu.Unlock()

	// addrc receives the address once, or is closed when stdout ends
	// without one.
	addrc := make(chan string, 1)
	go func() {
		defer close(read)
		defer stdout.Close()
		sent := false
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64<<10), 64<<10)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(out, line)
			if sent || !strings.Contains(line, "msg=listening") {
				continue
			}
			if _, rest, ok := strings.Cut(line, "addr="); ok {
				if fields := strings.Fields(rest); len(fields) > 0 {
					addrc <- strings.Trim(fields[0], `"`)
					sent = true
				}
			}
		}
		io.Copy(out, stdout) // a line past the scanner's limit: keep draining
		if !sent {
			close(addrc)
		}
	}()

	select {
	case addr, ok := <-addrc:
		if !ok { // a process that closed stdout but lives on is killed too
			err := d.stop(syscall.SIGKILL, time.Minute)
			return fmt.Errorf("clitest: %s exited before reporting its address (%v); output:\n%s",
				filepath.Base(d.Path), err, out.String())
		}
		d.mu.Lock()
		d.addr = addr
		d.mu.Unlock()
		return nil
	case <-time.After(startupTimeout):
		d.Kill()
		return fmt.Errorf("clitest: %s never reported its address; output:\n%s",
			filepath.Base(d.Path), out.String())
	}
}

// Addr returns the daemon's resolved listen address.
func (d *Daemon) Addr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.addr
}

// URL joins the daemon's base URL with path.
func (d *Daemon) URL(path string) string { return "http://" + d.Addr() + path }

// Alive reports whether the process has been started and not yet killed or
// terminated through d.
func (d *Daemon) Alive() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.alive
}

// Output returns the captured (bounded) stdout+stderr tail.
func (d *Daemon) Output() string {
	d.mu.Lock()
	out := d.out
	d.mu.Unlock()
	if out == nil {
		return ""
	}
	return out.String()
}

// Kill SIGKILLs the process and reaps it.
func (d *Daemon) Kill() { d.stop(syscall.SIGKILL, time.Minute) }

// Terminate sends SIGTERM and waits up to grace for the process to exit,
// then escalates to SIGKILL. It returns the exit error: nil is a clean exit.
func (d *Daemon) Terminate(grace time.Duration) error { return d.stop(syscall.SIGTERM, grace) }

// stop delivers sig and reaps the process, SIGKILLing it after grace; the
// output is whole when it returns.
func (d *Daemon) stop(sig syscall.Signal, grace time.Duration) error {
	d.mu.Lock()
	cmd, read := d.cmd, d.read
	d.cmd, d.alive = nil, false
	d.mu.Unlock()
	if cmd == nil {
		return nil
	}
	cmd.Process.Signal(sig)
	done := make(chan error, 1)
	go func() {
		err := cmd.Wait()
		<-read
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(grace):
		cmd.Process.Kill()
		<-done
		return fmt.Errorf("clitest: %s did not exit within %v of %v", d.Name, grace, sig)
	}
}

// BuildBinaries builds the named commands of the module into dir in one go
// build. Package paths resolve from the test's working directory, which is
// inside the module.
func BuildBinaries(dir string, names ...string) error {
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, name := range names {
		args = append(args, "cordial/cmd/"+name)
	}
	if msg, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		return fmt.Errorf("clitest: building %s: %v\n%s", strings.Join(names, ", "), err, msg)
	}
	return nil
}

// ActionSet fetches /v1/actions and reduces it to the deduplicated
// comparison set (recovery re-emits actions at least once, so comparisons
// are on sets, never counts).
func ActionSet(d *Daemon) (map[string]bool, error) {
	var acts struct {
		Actions []struct {
			Kind  string `json:"kind"`
			Bank  string `json:"bank"`
			Rows  []int  `json:"rows"`
			Class string `json:"class"`
		} `json:"actions"`
	}
	if code := GetJSON(nil, d.URL("/v1/actions?limit=1000000"), &acts); code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/actions = %d", code)
	}
	set := make(map[string]bool, len(acts.Actions))
	for _, a := range acts.Actions {
		set[fmt.Sprintf("%s|%s|%v|%s", a.Kind, a.Bank, a.Rows, a.Class)] = true
	}
	return set, nil
}

// WaitDrained polls /statsz until processed catches up with ingested.
func WaitDrained(d *Daemon) error {
	return PollUntil(d.Name+" drained", 2*time.Minute, func() bool {
		var stz struct {
			Ingested  uint64 `json:"ingested"`
			Processed uint64 `json:"processed"`
		}
		return GetJSON(nil, d.URL("/statsz"), &stz) == http.StatusOK &&
			stz.Processed == stz.Ingested
	})
}

// GetJSON fetches url, decoding the body into out when non-nil. A
// transport error returns status 0; a nil client waits up to 30 s.
func GetJSON(client *http.Client, url string, out any) int {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	resp, err := client.Get(url)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(out); err != nil {
			return 0
		}
	} else {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	}
	return resp.StatusCode
}

// PollUntil polls cond every 50ms until it holds or the deadline passes.
func PollUntil(what string, limit time.Duration, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("clitest: timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return nil
}

func shDaemon(t *testing.T, script string) *Daemon {
	t.Helper()
	sh, err := exec.LookPath("sh")
	if err != nil {
		t.Skip("no sh on PATH")
	}
	d := &Daemon{Name: "sh", Path: sh, Args: []string{"-c", script}}
	t.Cleanup(d.Kill)
	return d
}

// TestDaemonStartFailsFast: a process that exits before logging its address
// fails Start at once, with its exit status and its output, instead of
// holding the caller for the whole startupTimeout.
func TestDaemonStartFailsFast(t *testing.T) {
	d := shDaemon(t, "echo boom >&2; exit 3")
	errc := make(chan error, 1)
	go func() { errc <- d.Start() }()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "exit status 3") || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("Start = %v; want the exit status and the output", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Start still blocked 10 s after the process exited")
	}
	if d.Alive() {
		t.Error("Alive after a failed start")
	}
}

// TestDaemonTerminateExitStatus: Terminate returns the process's exit error,
// nil for a clean exit, and the output it returns after holds every line the
// process wrote before exiting.
func TestDaemonTerminateExitStatus(t *testing.T) {
	for code, want := range map[string]string{"0": "", "4": "exit status 4"} {
		d := shDaemon(t, `trap 'echo msg=drained; exit `+code+`' TERM
echo msg=listening addr=127.0.0.1:1
while :; do sleep 0.05; done`)
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		if d.Addr() != "127.0.0.1:1" {
			t.Fatalf("Addr = %q", d.Addr())
		}
		got := ""
		if err := d.Terminate(10 * time.Second); err != nil {
			got = err.Error()
		}
		if got != want {
			t.Errorf("exit %s: Terminate = %q, want %q", code, got, want)
		}
		if !strings.Contains(d.Output(), "msg=drained") {
			t.Errorf("exit %s: output lost its last line:\n%s", code, d.Output())
		}
	}
}
