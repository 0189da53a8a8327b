package wal

import (
	"fmt"
	"strconv"
	"strings"
)

// FaultSpec is a parsed disk-fault description, the bridge that lets an
// external harness (cordial-chaos) arm FaultFS inside a live daemon: the
// process is started with a spec on its command line and a disarmed
// FaultFS in the WAL path, and a signal toggles the spec on and off at
// chaos-scheduled times. In-process tests keep calling the FaultFS
// methods directly; the spec is only the serialised form.
type FaultSpec struct {
	// WriteBudget, when >= 0, arms LimitWriteBytes(WriteBudget): the write
	// that crosses the budget runs short (the torn-record shape).
	WriteBudget int64
	// SyncsLeft, when >= 0, arms FailSyncAfter(SyncsLeft): that many more
	// syncs succeed, every later one fails.
	SyncsLeft int
	// FailOpens arms the open fault.
	FailOpens bool
}

// ParseFaultSpec parses a comma-separated fault list:
//
//	sync-fail            every fsync fails
//	sync-fail=N          fsyncs fail after N more succeed
//	write-budget=N       writes run short after N more bytes
//	open-fail            every open fails
//
// An empty string is a valid spec with nothing armed.
func ParseFaultSpec(s string) (FaultSpec, error) {
	spec := FaultSpec{WriteBudget: -1, SyncsLeft: -1}
	if strings.TrimSpace(s) == "" {
		return spec, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		key, val, hasVal := strings.Cut(part, "=")
		switch key {
		case "sync-fail":
			n := 0
			if hasVal {
				v, err := strconv.Atoi(val)
				if err != nil || v < 0 {
					return FaultSpec{}, fmt.Errorf("wal: bad sync-fail count %q", val)
				}
				n = v
			}
			spec.SyncsLeft = n
		case "write-budget":
			if !hasVal {
				return FaultSpec{}, fmt.Errorf("wal: write-budget needs a byte count")
			}
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil || v < 0 {
				return FaultSpec{}, fmt.Errorf("wal: bad write-budget %q", val)
			}
			spec.WriteBudget = v
		case "open-fail":
			if hasVal {
				return FaultSpec{}, fmt.Errorf("wal: open-fail takes no value")
			}
			spec.FailOpens = true
		case "":
			return FaultSpec{}, fmt.Errorf("wal: empty fault in spec %q", s)
		default:
			return FaultSpec{}, fmt.Errorf("wal: unknown fault %q (want sync-fail[=N], write-budget=N, open-fail)", key)
		}
	}
	return spec, nil
}

// String renders the spec back into its parseable form.
func (s FaultSpec) String() string {
	var parts []string
	if s.SyncsLeft == 0 {
		parts = append(parts, "sync-fail")
	} else if s.SyncsLeft > 0 {
		parts = append(parts, fmt.Sprintf("sync-fail=%d", s.SyncsLeft))
	}
	if s.WriteBudget >= 0 {
		parts = append(parts, fmt.Sprintf("write-budget=%d", s.WriteBudget))
	}
	if s.FailOpens {
		parts = append(parts, "open-fail")
	}
	return strings.Join(parts, ",")
}

// Armed reports whether the spec injects anything at all.
func (s FaultSpec) Armed() bool {
	return s.SyncsLeft >= 0 || s.WriteBudget >= 0 || s.FailOpens
}

// Apply arms f with the spec's faults.
func (s FaultSpec) Apply(f *FaultFS) {
	f.LimitWriteBytes(s.WriteBudget)
	f.FailSyncAfter(s.SyncsLeft)
	f.FailOpens(s.FailOpens)
}

// Disarm clears every fault, returning f to pass-through behaviour.
func (f *FaultFS) Disarm() {
	f.LimitWriteBytes(-1)
	f.FailSyncAfter(-1)
	f.FailOpens(false)
	f.FailTruncates(false)
	f.FailRemoves(false)
}
