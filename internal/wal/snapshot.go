package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
)

// Snapshot file layout:
//
//	magic "CSNP" | uint16 version | uint16 reserved
//	uint64 sequence | uint64 payload length
//	payload
//	uint32 CRC-32C over everything above
//
// Snapshots are written by Publish, so a crash mid-write leaves either the
// old set of snapshots or the old set plus one complete new file — never a
// half-written one under the final name. Loading walks snapshots
// newest-first and falls back past any that fail validation, so one
// corrupted snapshot costs a longer WAL replay, not the recovery.
const (
	snapMagic   = "CSNP"
	snapVersion = 1
	snapHdrSize = 24
	snapPrefix  = "snap-"
	snapSuffix  = ".snap"
)

// MaxSnapshotBytes caps a snapshot payload; decoded lengths beyond it are
// treated as corruption.
const MaxSnapshotBytes = 1 << 30

// ErrNoSnapshot is returned by LoadLatestSnapshot when no valid snapshot
// exists (recovery then replays the journal from its start).
var ErrNoSnapshot = errors.New("wal: no valid snapshot")

// SnapshotInfo identifies one snapshot file.
type SnapshotInfo struct {
	// Seq is the snapshot's sequence number (monotonically increasing).
	Seq uint64
	// Path is the file's full path.
	Path string
}

// ListSnapshots returns the directory's snapshot files, newest (highest
// sequence) first. Files that merely look like snapshots are listed; the
// validity check happens on read.
func ListSnapshots(fs FS, dir string) ([]SnapshotInfo, error) {
	seqs, err := Numbered(fs, dir, snapPrefix, snapSuffix)
	if err != nil {
		return nil, err
	}
	out := make([]SnapshotInfo, len(seqs))
	for i, seq := range seqs {
		out[len(seqs)-1-i] = SnapshotInfo{Seq: seq, Path: filepath.Join(dir, numberedName(snapPrefix, seq, snapSuffix))}
	}
	return out, nil
}

// WriteSnapshot publishes a snapshot with the given sequence number. On
// any error the previous snapshots remain untouched.
func WriteSnapshot(fs FS, dir string, seq uint64, payload []byte) (string, error) {
	if len(payload) > MaxSnapshotBytes {
		return "", fmt.Errorf("wal: snapshot of %d bytes exceeds max %d", len(payload), MaxSnapshotBytes)
	}
	hdr := make([]byte, snapHdrSize)
	copy(hdr[:4], snapMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], snapVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(payload)))
	sum := crc32.Update(0, crcTable, hdr)
	sum = crc32.Update(sum, crcTable, payload)
	tail := binary.LittleEndian.AppendUint32(nil, sum)
	path := filepath.Join(dir, numberedName(snapPrefix, seq, snapSuffix))
	if err := Publish(fs, path, hdr, payload, tail); err != nil {
		return "", err
	}
	return path, nil
}

// ReadSnapshot reads and validates one snapshot file, returning its
// sequence number and payload. Any framing or checksum violation is an
// error — the caller falls back to an older snapshot.
func ReadSnapshot(fs FS, path string) (seq uint64, payload []byte, err error) {
	data, err := ReadFile(fs, path, MaxSnapshotBytes+snapHdrSize+8)
	if err != nil {
		return 0, nil, fmt.Errorf("wal: reading snapshot: %w", err)
	}
	return DecodeSnapshot(data)
}

// DecodeSnapshot validates a snapshot image held in memory. Exposed
// separately so the decoder can be fuzzed without a filesystem.
func DecodeSnapshot(data []byte) (seq uint64, payload []byte, err error) {
	if len(data) < snapHdrSize+4 {
		return 0, nil, fmt.Errorf("wal: snapshot too short (%d bytes)", len(data))
	}
	if string(data[:4]) != snapMagic {
		return 0, nil, fmt.Errorf("wal: bad snapshot magic")
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != snapVersion {
		return 0, nil, fmt.Errorf("wal: unsupported snapshot version %d", v)
	}
	seq = binary.LittleEndian.Uint64(data[8:16])
	n := binary.LittleEndian.Uint64(data[16:24])
	if n > MaxSnapshotBytes || int64(n) != int64(len(data)-snapHdrSize-4) {
		return 0, nil, fmt.Errorf("wal: snapshot length %d inconsistent with file size %d", n, len(data))
	}
	body := data[:snapHdrSize+int(n)]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body, crcTable); got != want {
		return 0, nil, fmt.Errorf("wal: snapshot checksum mismatch")
	}
	return seq, data[snapHdrSize : snapHdrSize+int(n)], nil
}

// LoadLatestSnapshot returns the newest snapshot that validates, skipping
// corrupt ones. ErrNoSnapshot means none validated (or none exist).
func LoadLatestSnapshot(fs FS, dir string) (seq uint64, payload []byte, err error) {
	snaps, err := ListSnapshots(fs, dir)
	if err != nil {
		return 0, nil, err
	}
	for _, s := range snaps {
		if seq, payload, err = ReadSnapshot(fs, s.Path); err == nil {
			return seq, payload, nil
		}
	}
	return 0, nil, ErrNoSnapshot
}

// PruneSnapshots removes all but the newest keep snapshots. At least one
// is always kept; errors removing individual files are returned but the
// sweep continues.
func PruneSnapshots(fs FS, dir string, keep int) error {
	if keep < 1 {
		keep = 1
	}
	snaps, err := ListSnapshots(fs, dir)
	if err != nil {
		return err
	}
	var firstErr error
	for i := keep; i < len(snaps); i++ {
		if rerr := orOS(fs).Remove(snaps[i].Path); rerr != nil && firstErr == nil {
			firstErr = fmt.Errorf("wal: pruning snapshot: %w", rerr)
		}
	}
	return firstErr
}
