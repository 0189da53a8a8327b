package chaos

import (
	"os/exec"
	"strings"
	"testing"
	"time"
)

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
