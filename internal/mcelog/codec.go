package mcelog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/hbm"
)

// jsonEvent is the interchange shape for one event in the JSONL codec.
// The bits field is the intra-word error pattern; it is omitted when zero
// so logs from producers without syndrome detail keep their shape.
type jsonEvent struct {
	Time  time.Time `json:"time"`
	Addr  string    `json:"addr"`
	Class string    `json:"class"`
	Bits  uint16    `json:"bits,omitempty"`
}

// jsonEventOf renders an event in the interchange shape.
func jsonEventOf(e Event) jsonEvent {
	return jsonEvent{Time: e.Time.UTC(), Addr: e.Addr.String(), Class: e.Class.String(), Bits: uint16(e.Bits)}
}

// ParseJSONEvent is parseJSONEvent under hbm2e. Bench-only until ROADMAP item
// 15: everything else parses lines through BodyReader.
func ParseJSONEvent(line []byte) (Event, error) { return parseJSONEvent(hbm.HBM2E, line) }

// parseJSONEvent parses one JSONL-encoded event (the per-line shape
// WriteJSONL emits), checking address and class syntax under p and the
// timestamp sanity window: the line decoder of BodyReader.
func parseJSONEvent(p *hbm.Profile, line []byte) (Event, error) {
	var je jsonEvent
	if err := json.Unmarshal(line, &je); err != nil {
		return Event{}, fmt.Errorf("mcelog: decoding event: %w", err)
	}
	addr, err := p.Layout.ParseAddress(je.Addr)
	if err != nil {
		return Event{}, fmt.Errorf("mcelog: %w", err)
	}
	class, err := ecc.ParseClass(je.Class)
	if err != nil {
		return Event{}, fmt.Errorf("mcelog: %w", err)
	}
	if err := ValidateTime(je.Time); err != nil {
		return Event{}, err
	}
	return Event{Time: je.Time, Addr: addr, Class: class, Bits: ErrBits(je.Bits)}, nil
}

// WriteJSONL writes the log as JSON Lines: one event object per line.
func (l *Log) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, e := range l.events {
		if err := enc.Encode(jsonEventOf(e)); err != nil {
			return fmt.Errorf("mcelog: encoding event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// MarshalJSONEvent renders one event in the per-line shape WriteJSONL
// emits (no trailing newline). It is ParseJSONEvent's inverse, for
// producers that build a JSONL request body event by event.
func MarshalJSONEvent(ev Event) ([]byte, error) {
	return json.Marshal(jsonEventOf(ev))
}
