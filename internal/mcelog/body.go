package mcelog

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"

	"cordial/internal/hbm"
)

// Codec names the encoding of an event body. An ingest route names its
// body's codec; ReadLog works it out from a file's first bytes.
type Codec uint8

const (
	// JSONL is one event object per line, in WriteJSONL's shape.
	JSONL Codec = iota
	// Wire is a CBF2 (or legacy CBF1) frame stream, in WriteWire's shape.
	Wire
)

// Pos is a place in an event body in its codec's own unit: line N of a
// JSONL body, or record Rec of frame N of a frame stream. Lines and frames
// count from 1, records from 0; Rec is -1 where the place is a whole line or
// frame.
type Pos struct {
	Codec  Codec
	N, Rec int
}

func (p Pos) String() string {
	switch {
	case p.Codec == JSONL:
		return "line " + strconv.Itoa(p.N)
	case p.Rec < 0:
		return "frame " + strconv.Itoa(p.N)
	}
	return fmt.Sprintf("frame %d record %d", p.N, p.Rec)
}

// RecordError is one record refused at Pos. The body goes on past it.
type RecordError struct {
	Pos Pos
	Err error
}

func (e *RecordError) Error() string { return e.Pos.String() + ": " + e.Err.Error() }

func (e *RecordError) Unwrap() error { return e.Err }

// BodyReader is the one loop that decodes events from bytes: a request body
// at either ingest route of a serve node or the router, or a log file. Every
// record goes through the checked decoders (parseJSONEvent,
// WireFrame.EventChecked), so an event it yields is well-formed under the
// profile's layout; validating it against a fleet's geometry is the caller's.
// Reset points one at a body, and at the next one, keeping its buffers.
type BodyReader struct {
	lines  *bufio.Scanner // JSONL; nil for frames
	frames FrameDecoder
	frame  WireFrame
	recs   int // records in frame
	pos    Pos
}

// Reset points the reader at body in codec (nil: at nothing), its addresses
// under p. maxLine caps a JSONL line; an ingest door passes its body cap plus
// one, so that a line too long for the reader is a body over the cap.
func (b *BodyReader) Reset(p *hbm.Profile, codec Codec, body io.Reader, maxLine int) {
	b.pos, b.recs, b.lines = Pos{Codec: codec, Rec: -1}, 0, nil
	b.frames.prof = p // the profile of the JSONL lines too
	b.frames.Reset(body)
	if codec == JSONL && body != nil {
		b.lines = bufio.NewScanner(body)
		b.lines.Buffer(nil, maxLine)
	}
}

// Pos returns the place of the last step; once the body has ended, the
// number of lines or frames read.
func (b *BodyReader) Pos() Pos { return b.pos }

// FrameEnd reports whether the last step took a frame's last record: where
// a caller that keeps the body's frames as its batches flushes.
func (b *BodyReader) FrameEnd() bool { return b.pos.Rec >= 0 && b.pos.Rec == b.recs-1 }

// Next takes one step. It returns the next event and nil; or a *RecordError
// for a record refused, after which reading goes on; or the end of the
// body: io.EOF at a clean end, else why the body cannot be read past here
// (framing damage, wrapping ErrWireFrame; a transport error; a line over the
// cap), the events before it standing.
func (b *BodyReader) Next() (Event, error) {
	if b.lines != nil {
		return b.nextLine()
	}
	if b.pos.Rec+1 == b.recs {
		fr, err := b.frames.Next()
		if err != nil {
			return b.stop(err)
		}
		b.frame, b.recs, b.pos.Rec = fr, fr.Len(), -1
		b.pos.N++
	}
	b.pos.Rec++
	ev, err := b.frame.EventChecked(b.pos.Rec)
	if err != nil {
		return Event{}, &RecordError{Pos: b.pos, Err: err}
	}
	return ev, nil
}

// nextLine is Next of a JSONL body. A blank line is counted and skipped.
func (b *BodyReader) nextLine() (Event, error) {
	for b.lines.Scan() {
		b.pos.N++
		if len(b.lines.Bytes()) == 0 {
			continue
		}
		ev, err := parseJSONEvent(b.frames.prof, b.lines.Bytes())
		if err != nil {
			return Event{}, &RecordError{Pos: b.pos, Err: err}
		}
		return ev, nil
	}
	return b.stop(b.lines.Err())
}

// stop ends the body: a nil err or io.EOF is a clean end, returned as io.EOF.
func (b *BodyReader) stop(err error) (Event, error) {
	if err == nil || errors.Is(err, io.EOF) {
		err = io.EOF
	}
	b.pos.Rec = -1
	return Event{}, err
}

// ReadLog reads a log file in either format, worked out from its first
// bytes: a CBF2 (or legacy CBF1) frame stream, or JSON Lines. It stops at
// the first refused record or at a damaged body (a torn or corrupt frame,
// wrapping ErrWireFrame; a line longer than MaxWireFrameBytes) and returns
// the error with what came before: the lines before a refused line, the
// whole frames before a refused record's frame. Addresses are read under p.
func ReadLog(p *hbm.Profile, r io.Reader) (*Log, error) {
	br := bufio.NewReader(r)
	codec := JSONL
	if head, _ := br.Peek(len(wireMagic)); string(head) == wireMagic || string(head) == wireMagicV1 {
		codec = Wire
	}
	var body BodyReader
	body.Reset(p, codec, br, MaxWireFrameBytes)
	log := &Log{}
	for {
		ev, err := body.Next()
		switch e := err.(type) {
		case nil:
			log.events = append(log.events, ev)
			continue
		case *RecordError: // drop its frame's records before it
			log.events = log.events[:len(log.events)-max(e.Pos.Rec, 0)]
		}
		if err == io.EOF {
			return log, nil
		}
		return log, err
	}
}
