package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// segmentImage frames payloads under LSNs first, first+1, ... into a whole
// segment image, header included — the bytes a journal writes.
func segmentImage(first uint64, payloads ...[]byte) []byte {
	img := append([]byte(segMagic), 0, 0, 0, 0)
	binary.LittleEndian.PutUint16(img[4:6], segVersion)
	for i, p := range payloads {
		var lsn [8]byte
		binary.LittleEndian.PutUint64(lsn[:], first+uint64(i))
		sum := crc32.Update(crc32.Update(0, crcTable, lsn[:]), crcTable, p)
		img = binary.LittleEndian.AppendUint32(img, uint32(len(p)))
		img = binary.LittleEndian.AppendUint32(img, sum)
		img = append(append(img, lsn[:]...), p...)
	}
	return img
}

// FuzzWALDecode feeds arbitrary bytes through both untrusted-input decoders
// — the segment reader, as a tail and as a sealed segment, and the snapshot
// decoder. Corrupt, truncated, or adversarial input must produce an error
// or an early end, never a panic, a buffer larger than the input, or a
// record whose frame does not re-verify.
func FuzzWALDecode(f *testing.F) {
	payload := []byte("seed-record")
	// A well-formed segment...
	f.Add(segmentImage(42, payload, []byte("second")))

	// ...a well-formed snapshot image...
	snap := make([]byte, snapHdrSize)
	copy(snap[:4], snapMagic)
	binary.LittleEndian.PutUint16(snap[4:6], snapVersion)
	binary.LittleEndian.PutUint64(snap[8:16], 7)
	binary.LittleEndian.PutUint64(snap[16:24], uint64(len(payload)))
	snap = append(snap, payload...)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.Checksum(snap, crcTable))
	snap = append(snap, tail[:]...)
	f.Add(snap)

	// ...and some degenerate shapes.
	f.Add([]byte{})
	f.Add([]byte("CSNP"))
	f.Add(append(segmentImage(1), bytes.Repeat([]byte{0xff}, recHdrSize)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tail := range []bool{true, false} {
			var r segmentReader
			off := int64(segHdrSize)
			end, err := r.frames(bytes.NewReader(data), int64(len(data)), tail, func(lsn uint64, p []byte) error {
				// The yielded record is the frame at off, and it re-verifies.
				frame := data[off:]
				if int(binary.LittleEndian.Uint32(frame[0:4])) != len(p) || binary.LittleEndian.Uint64(frame[8:16]) != lsn ||
					!bytes.Equal(frame[recHdrSize:recHdrSize+len(p)], p) {
					t.Fatalf("record at offset %d is not the frame there", off)
				}
				if crc32.Update(crc32.Update(0, crcTable, frame[8:16]), crcTable, p) != binary.LittleEndian.Uint32(frame[4:8]) {
					t.Fatalf("record at offset %d does not re-verify", off)
				}
				off += int64(recHdrSize + len(p))
				return nil
			})
			if err == nil && end != off && end != -1 {
				t.Fatalf("tail=%v: walk ended at %d, past the last record at %d", tail, end, off)
			}
			if cap(r.buf) > len(data) {
				t.Fatalf("tail=%v: read buffer of %d bytes for a %d-byte segment", tail, cap(r.buf), len(data))
			}
		}

		if _, p, err := DecodeSnapshot(data); err == nil {
			// Accepted payload must round-trip through the writer's CRC.
			if len(p) > len(data) {
				t.Fatalf("DecodeSnapshot returned payload longer than input")
			}
		}
	})
}
