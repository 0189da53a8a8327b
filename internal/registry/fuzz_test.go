package registry

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"
	"time"

	"cordial/internal/core"
)

// writtenArtifact returns the bytes WriteArtifact puts on disk for meta and
// payload.
func writtenArtifact(t testing.TB, meta Meta, payload []byte) []byte {
	t.Helper()
	path, err := WriteArtifact(nil, t.TempDir(), meta, payload)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzDecodeArtifact feeds the CMDL decoder arbitrary bytes — artefacts come
// from disk at boot and from operators (-import): it never panics, and what
// it accepts it accepts as written. Writing the decoded meta and payload back
// yields an artefact that decodes to the same meta and payload and re-encodes
// to itself; when the input's meta was in WriteArtifact's own encoding (every
// seed's is) those bytes are the input's. With reseal set the checksum tail is
// recomputed first, so that mutated headers and metadata reach the checks
// behind it.
func FuzzDecodeArtifact(f *testing.F) {
	at := time.Unix(1700000000, 0).UTC()
	payload, err := encodePipeline(testPipeline(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(writtenArtifact(f, Meta{Version: 3, CreatedAt: at, Trigger: "boot"}, payload), false)
	f.Add(writtenArtifact(f, Meta{Version: 1 << 40, CreatedAt: at, Trigger: "drift",
		Model: &core.ModelMeta{}}, []byte("not a model")), false)
	f.Add(writtenArtifact(f, Meta{}, nil), true)
	f.Add([]byte("CMDL\x01\x00\x00\x00"), true)
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal && len(data) >= artHdrSize+4 {
			data = bytes.Clone(data)
			body := data[:len(data)-4]
			binary.LittleEndian.PutUint32(data[len(body):], crc32.Checksum(body, crcTable))
		}
		meta, payload, err := DecodeArtifact(data)
		if err != nil {
			return
		}
		again := writtenArtifact(t, meta, payload)
		meta2, payload2, err := DecodeArtifact(again)
		if err != nil {
			t.Fatalf("an accepted artefact, written back, is refused: %v", err)
		}
		if !bytes.Equal(payload2, payload) || !bytes.Equal(writtenArtifact(t, meta2, payload2), again) {
			t.Fatal("an accepted artefact does not survive being written back")
		}
		metaLen := binary.LittleEndian.Uint64(data[16:24])
		canonical := bytes.Equal(data[artHdrSize:artHdrSize+metaLen], again[artHdrSize:len(again)-4-len(payload)]) &&
			data[6] == 0 && data[7] == 0 // the reserved field is written as zero
		if canonical && !bytes.Equal(again, data) {
			t.Fatal("an artefact in the writer's own encoding re-encodes to different bytes")
		}
	})
}
