// Package bincodec is the little-endian field cursor behind the engine's
// snapshot images: the per-bank feature state (internal/features) and the
// session records and framing around it (internal/stream). One Cursor both
// writes and reads, so an image's layout is ONE walk over its fields — the
// encoder and decoder cannot drift apart — and every check a reader needs
// (truncation, ranges, sorted row lists, collection lengths the input cannot
// hold) lives here once. The layouts predate the compact in-memory state:
// integers are stored as 64 bits and read back into fewer, so reading is
// where out-of-range values are refused rather than truncated.
package bincodec

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// UnsetTime is the in-memory value of a timestamp no event has written. It
// orders before every real instant and is stored as the (seconds,
// nanoseconds) of time.Time{}, which is what the layouts held when these
// fields were time.Time.
const UnsetTime = math.MinInt64

var zeroTimeSec = time.Time{}.Unix()

// TimeOf converts a nanosecond timestamp back to a time.Time (the zero Time
// for UnsetTime).
func TimeOf(ns int64) time.Time {
	if ns == UnsetTime {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// Cursor appends fields to B (encoding) or consumes them from B at Off
// (decoding). The first failure sticks in Err and later reads are no-ops;
// What names the image in error messages.
type Cursor struct {
	B      []byte
	Off    int
	Decode bool
	Err    error
	What   string
}

// Fail records the first error.
func (c *Cursor) Fail(format string, args ...any) {
	if c.Err == nil {
		c.Err = fmt.Errorf("%s: %s (offset %d)", c.What, fmt.Sprintf(format, args...), c.Off)
	}
}

// next returns the n bytes of the next field: the input's when decoding
// (nil once decoding has failed), n appended bytes when encoding, which the
// caller overwrites in full. Appending by reslicing — B is sized up front by
// whoever starts an encode — stores no pointer, so the hot encode loop runs
// free of GC write barriers.
func (c *Cursor) next(n int) []byte {
	if !c.Decode {
		end := len(c.B) + n
		if end > cap(c.B) {
			c.B = append(c.B, make([]byte, n)...)
		}
		c.B = c.B[:end]
		return c.B[end-n:]
	}
	if c.Err == nil && (n < 0 || n > len(c.B)-c.Off) {
		c.Fail("truncated (need %d of %d bytes)", n, len(c.B))
	}
	if c.Err != nil {
		return nil
	}
	c.Off += n
	return c.B[c.Off-n : c.Off]
}

// Done reports a finished decode: the sticky error, or one for input left
// over after the last field.
func (c *Cursor) Done() error {
	if c.Err == nil && c.Off != len(c.B) {
		c.Fail("%d trailing bytes", len(c.B)-c.Off)
	}
	return c.Err
}

func (c *Cursor) U8(p *uint8) {
	if s := c.next(1); s != nil {
		if c.Decode {
			*p = s[0]
		} else {
			s[0] = *p
		}
	}
}

// Flag codes a bool as one byte, which must read back as 0 or 1.
func (c *Cursor) Flag(p *bool) {
	var v uint8
	if *p {
		v = 1
	}
	c.U8(&v)
	if v > 1 {
		c.Fail("flag byte %#x", v)
	}
	*p = v == 1
}

func (c *Cursor) U16(p *uint16) {
	if s := c.next(2); s != nil {
		if c.Decode {
			*p = binary.LittleEndian.Uint16(s)
		} else {
			binary.LittleEndian.PutUint16(s, *p)
		}
	}
}

func (c *Cursor) U32(p *uint32) {
	if s := c.next(4); s != nil {
		if c.Decode {
			*p = binary.LittleEndian.Uint32(s)
		} else {
			binary.LittleEndian.PutUint32(s, *p)
		}
	}
}

func (c *Cursor) U64(p *uint64) {
	if s := c.next(8); s != nil {
		if c.Decode {
			*p = binary.LittleEndian.Uint64(s)
		} else {
			binary.LittleEndian.PutUint64(s, *p)
		}
	}
}

func (c *Cursor) F64(p *float64) {
	v := math.Float64bits(*p)
	c.U64(&v)
	*p = math.Float64frombits(v)
}

// Ranged codes an integer the layout holds as an int64 and memory possibly
// in fewer bits: one outside [0, max] is an error, never a truncation.
func Ranged[T int32 | uint32 | int | int64](c *Cursor, p *T, max int64) {
	v := uint64(*p)
	c.U64(&v)
	if int64(v) < 0 || int64(v) > max {
		c.Fail("value %d outside [0, %d]", int64(v), max)
		return
	}
	*p = T(v)
}

// Time codes a nanosecond timestamp as int64 seconds + uint32 nanoseconds.
func (c *Cursor) Time(p *int64) {
	sec, nsec := uint64(zeroTimeSec), uint32(0)
	if t := *p; t != UnsetTime {
		s := t / 1e9
		if t < s*1e9 { // floor, as time.Time.Unix does
			s--
		}
		sec, nsec = uint64(s), uint32(t-s*1e9)
	}
	c.U64(&sec)
	c.U32(&nsec)
	// Whole seconds that keep sec*1e9+nsec inside int64 (years 1678–2262).
	const maxSec = math.MaxInt64/1_000_000_000 - 1
	switch s := int64(sec); {
	case s == zeroTimeSec && nsec == 0:
		*p = UnsetTime
	case s < -maxSec || s > maxSec || nsec >= 1e9:
		c.Fail("timestamp (%d s, %d ns) out of range", s, nsec)
	default:
		*p = s*1e9 + int64(nsec)
	}
}

// Count codes the length of a collection of at most max entries, each at
// least size bytes long, so a length the remaining input cannot hold fails
// before anything is allocated for it.
func (c *Cursor) Count(p *int, max, size int) {
	Ranged(c, p, int64(max))
	if c.Decode && *p > (len(c.B)-c.Off)/size {
		c.Fail("collection of %d entries in %d bytes", *p, len(c.B)-c.Off)
		*p = 0
	}
}

// maxRows bounds a row list: a bank has tens of thousands of rows, so
// anything near this in an image is corruption, not data.
const maxRows = 1 << 24

// Rows codes a list of rows, each in [0, 2³¹). ascending additionally
// requires what is read to be a sorted set (strictly ascending), as binary
// searches over it assume.
func Rows[S ~[]int32](c *Cursor, p *S, ascending bool) {
	n := len(*p)
	c.Count(&n, maxRows, 8)
	if c.Decode {
		*p = nil
		if n > 0 {
			*p = make(S, n)
		}
	}
	for i := range *p {
		Ranged(c, &(*p)[i], math.MaxInt32)
		if ascending && i > 0 && (*p)[i] <= (*p)[i-1] {
			c.Fail("row list not strictly ascending")
		}
	}
}

// BeginBytes starts encoding a length-prefixed byte string whose body the
// caller then writes through c; EndBytes, given what BeginBytes returned, fills
// the length in. The pair writes what Bytes writes of the same body.
func (c *Cursor) BeginBytes() (start int) {
	c.next(8)
	return len(c.B)
}

// EndBytes finishes the byte string BeginBytes started at start.
func (c *Cursor) EndBytes(start int) {
	n := len(c.B) - start
	if n > math.MaxInt32 {
		c.Fail("byte string of %d bytes", n)
		return
	}
	binary.LittleEndian.PutUint64(c.B[start-8:start], uint64(n))
}

// Bytes codes a length-prefixed byte string; a decoded one aliases the input.
func (c *Cursor) Bytes(p *[]byte) {
	n := len(*p)
	c.Count(&n, math.MaxInt32, 1)
	if s := c.next(n); s != nil {
		if c.Decode {
			*p = s
		} else {
			copy(s, *p)
		}
	}
}
