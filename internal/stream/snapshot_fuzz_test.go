package stream

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cordial/internal/bincodec"
)

// encodeSnapshotImages writes an engine snapshot payload of the given layout
// version from decoded parts (the engine itself only encodes live sessions).
func encodeSnapshotImages(ver uint8, hdr snapshotHeader, images []sessionImage) ([]byte, error) {
	out := &bincodec.Cursor{B: append([]byte(engineSnapMagic), ver), What: snapWhat}
	n := len(images)
	hdr.code(out, ver, &n)
	for i := range images {
		c := &bincodec.Cursor{What: snapWhat}
		images[i].code(c, ver)
		if c.Err != nil {
			return nil, c.Err
		}
		out.Bytes(&c.B)
	}
	return out.B, out.Err
}

// FuzzDecodeSnapshotSessions feeds the snapshot / handoff payload decoder
// arbitrary bytes — it reads files a crash may have left and bundles a peer
// sent. It must never panic, and whatever it accepts must survive being
// encoded again: the same header, the same images.
func FuzzDecodeSnapshotSessions(f *testing.F) {
	text, err := os.ReadFile(filepath.Join("testdata", "engine_snapshot.hex"))
	if err != nil {
		f.Fatal(err)
	}
	golden, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		f.Fatal(err)
	}
	hdr, images, err := decodeSnapshotSessions(golden)
	if err != nil {
		f.Fatal(err)
	}
	v1, err := encodeSnapshotImages(1, hdr, images)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(v1)
	f.Add([]byte(engineSnapMagic))
	f.Fuzz(func(t *testing.T, payload []byte) {
		hdr, images, err := decodeSnapshotSessions(payload)
		if err != nil {
			return
		}
		again, err := encodeSnapshotImages(engineSnapVersion, hdr, images)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		hdr2, images2, err := decodeSnapshotSessions(again)
		if err != nil {
			t.Fatalf("re-encoded payload refused: %v", err)
		}
		if hdr2 != hdr || !reflect.DeepEqual(images2, images) {
			t.Fatalf("re-encoded payload decodes differently:\n%+v %+v\n%+v %+v", hdr, images, hdr2, images2)
		}
	})
}
