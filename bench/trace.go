package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// frame share the frame index as trace id; Parent is the index of the
// enclosing span in the same recorder, -1 for a root.
type span struct {
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer records spans in memory; a nil tracer records nothing, which is
// how the untraced run shares the traced run's code. It is used from one
// goroutine at a time.
type tracer struct {
	origin time.Time
	base   int // added to every trace id; set per pass so frames of different passes stay apart
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, trace, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Trace: t.base + trace, Name: name, Start: int64(time.Since(t.origin)), Parent: parent})
	return len(t.spans) - 1
}

// setBase moves the trace ids of the spans that follow to their own range.
func (t *tracer) setBase(pass int) {
	if t != nil {
		t.base = pass * 1_000_000
	}
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.origin))
}

// add records a span whose ends were measured elsewhere (the verdict span:
// frame due time to action receipt, taken on the consumer side).
func (t *tracer) add(name string, trace int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Trace: t.base + trace, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)), Parent: -1})
}

// total sums the durations of every span called name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// selfTimes returns, per span name, total duration minus the part its
// child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// write stores the spans as JSON lines and prints the self-time table.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %d spans written to %s; self time by span:\n", len(t.spans), path)
	for _, n := range names {
		fmt.Printf("#   %-16s total %10.3f ms  self %10.3f ms\n", n,
			float64(t.total(n))/1e6, float64(self[n])/1e6)
	}
	return nil
}
