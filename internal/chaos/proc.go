package chaos

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Daemon is one supervised fleet process (cordial-serve, cordial-control
// or cordial-router): launch, scan stdout for the resolved-address slog
// line, capture output. It lives outside testing.T so the chaos runner can
// SIGKILL, pause and restart processes mid-run, and the clitest end-to-end
// tests start every daemon through it too.
type Daemon struct {
	Name string // role label: node-1, control, router, reference
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
// last maxTail bytes so a chatty daemon cannot balloon the harness.
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
		return fmt.Errorf("chaos: %s already running", d.Name)
	}
	// The harness owns stdout's read end, so Wait cannot close it under the
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
		return fmt.Errorf("chaos: start %s: %w", d.Name, err)
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
			return fmt.Errorf("chaos: %s exited before reporting its address (%v); output:\n%s",
				filepath.Base(d.Path), err, out.String())
		}
		d.mu.Lock()
		d.addr = addr
		d.mu.Unlock()
		return nil
	case <-time.After(startupTimeout):
		d.Kill()
		return fmt.Errorf("chaos: %s never reported its address; output:\n%s",
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

// Alive reports whether the harness believes the process is running (it
// has been started and not yet killed/terminated by the harness).
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

// Signal delivers sig to the process.
func (d *Daemon) Signal(sig syscall.Signal) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.alive || d.cmd == nil || d.cmd.Process == nil {
		return fmt.Errorf("chaos: %s is not running", d.Name)
	}
	return d.cmd.Process.Signal(sig)
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
		return fmt.Errorf("chaos: %s did not exit within %v of %v", d.Name, grace, sig)
	}
}
