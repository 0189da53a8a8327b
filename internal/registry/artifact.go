// Package registry is the versioned model store behind the online
// retraining loop: every fitted pipeline the daemon serves — the boot
// model, drift-triggered candidates, manually promoted artefacts — is a
// numbered, CRC-tailed file on disk, and an atomic active pointer names
// the one new sessions bind. The stream engine resolves strategies through
// the Registry (it satisfies the engine's ModelSource shape), so a model
// swap is a pointer flip here plus a swap record in the engine's journal,
// and crash recovery can rebind every session to the exact version it was
// pinned to.
//
// Artefacts and the active pointer are written by wal.Publish, as the
// engine's snapshots are (temp file, fsync, rename, directory fsync), and
// artefacts carry a checksum tail: a crash mid-write leaves the store's
// previous contents intact, and a corrupt artefact fails loudly at read
// time instead of serving a half-written model.
package registry

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"time"

	"cordial/internal/core"
	"cordial/internal/wal"
)

// Artefact file layout:
//
//	magic "CMDL" | uint16 format version | uint16 reserved
//	uint64 model version | uint64 meta length | uint64 payload length
//	meta JSON | payload (core.Pipeline SaveModels stream)
//	uint32 CRC-32C over everything above
const (
	artMagic   = "CMDL"
	artVersion = 1
	artHdrSize = 32
	artPrefix  = "model-"
	artSuffix  = ".cmdl"
	artNameFmt = artPrefix + "%016x" + artSuffix

	// activeName is the active-pointer file: the hex version of the model
	// new sessions should bind, published anew on Activate.
	activeName = "ACTIVE"
)

// MaxArtifactBytes caps one artefact file; larger decoded lengths are
// treated as corruption.
const MaxArtifactBytes = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Meta describes one stored model version.
type Meta struct {
	// Version is the registry-assigned monotonic version number.
	Version uint64 `json:"version"`
	// CreatedAt is when the artefact was installed.
	CreatedAt time.Time `json:"createdAt"`
	// Trigger records why this version exists: "boot", "train", "drift",
	// "sighup", "import", ...
	Trigger string `json:"trigger,omitempty"`
	// Model is the pipeline's own training provenance (window, event
	// count, class mix, params); nil for pre-metadata artefacts.
	Model *core.ModelMeta `json:"model,omitempty"`
}

func artName(version uint64) string { return fmt.Sprintf(artNameFmt, version) }

// WriteArtifact publishes one model version (wal.Publish). On any error
// existing artefacts are untouched.
func WriteArtifact(fs wal.FS, dir string, meta Meta, payload []byte) (string, error) {
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return "", fmt.Errorf("registry: encoding meta: %w", err)
	}
	if len(metaJSON)+len(payload) > MaxArtifactBytes {
		return "", fmt.Errorf("registry: artefact of %d bytes exceeds max %d",
			len(metaJSON)+len(payload), MaxArtifactBytes)
	}
	hdr := make([]byte, artHdrSize)
	copy(hdr[:4], artMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], artVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], meta.Version)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(metaJSON)))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(len(payload)))
	sum := crc32.Update(0, crcTable, hdr)
	sum = crc32.Update(sum, crcTable, metaJSON)
	sum = crc32.Update(sum, crcTable, payload)
	path := filepath.Join(dir, artName(meta.Version))
	if err := wal.Publish(fs, path, hdr, metaJSON, payload, binary.LittleEndian.AppendUint32(nil, sum)); err != nil {
		return "", err
	}
	return path, nil
}

// ReadArtifact reads and validates one artefact file.
func ReadArtifact(fs wal.FS, path string) (Meta, []byte, error) {
	data, err := wal.ReadFile(fs, path, MaxArtifactBytes+artHdrSize+8)
	if err != nil {
		return Meta{}, nil, fmt.Errorf("registry: reading artefact: %w", err)
	}
	return DecodeArtifact(data)
}

// DecodeArtifact validates an artefact image held in memory. Exposed
// separately so the decoder can be fuzzed without a filesystem.
func DecodeArtifact(data []byte) (Meta, []byte, error) {
	if len(data) < artHdrSize+4 {
		return Meta{}, nil, fmt.Errorf("registry: artefact too short (%d bytes)", len(data))
	}
	if string(data[:4]) != artMagic {
		return Meta{}, nil, fmt.Errorf("registry: bad artefact magic")
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != artVersion {
		return Meta{}, nil, fmt.Errorf("registry: unsupported artefact format version %d", v)
	}
	version := binary.LittleEndian.Uint64(data[8:16])
	metaLen := binary.LittleEndian.Uint64(data[16:24])
	payloadLen := binary.LittleEndian.Uint64(data[24:32])
	total := uint64(len(data))
	if metaLen > MaxArtifactBytes || payloadLen > MaxArtifactBytes ||
		artHdrSize+metaLen+payloadLen+4 != total {
		return Meta{}, nil, fmt.Errorf("registry: artefact lengths (%d meta, %d payload) inconsistent with file size %d",
			metaLen, payloadLen, total)
	}
	body := data[:total-4]
	want := binary.LittleEndian.Uint32(data[total-4:])
	if got := crc32.Checksum(body, crcTable); got != want {
		return Meta{}, nil, fmt.Errorf("registry: artefact checksum mismatch")
	}
	var meta Meta
	if err := json.Unmarshal(data[artHdrSize:artHdrSize+metaLen], &meta); err != nil {
		return Meta{}, nil, fmt.Errorf("registry: decoding artefact meta: %w", err)
	}
	if meta.Version != version {
		return Meta{}, nil, fmt.Errorf("registry: meta version %d disagrees with header %d", meta.Version, version)
	}
	return meta, data[artHdrSize+metaLen : total-4], nil
}

// encodePipeline serialises a fitted pipeline into an artefact payload.
func encodePipeline(pipe *core.Pipeline) ([]byte, error) {
	var buf bytes.Buffer
	if err := pipe.SaveModels(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodePipeline restores a pipeline from an artefact payload.
func decodePipeline(payload []byte) (*core.Pipeline, error) {
	pipe, err := core.New(core.DefaultConfig(core.RandomForest))
	if err != nil {
		return nil, err
	}
	if err := pipe.LoadModels(bytes.NewReader(payload)); err != nil {
		return nil, err
	}
	return pipe, nil
}
