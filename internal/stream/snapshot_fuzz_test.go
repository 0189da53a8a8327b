package stream

import (
	"bytes"
	"encoding/binary"
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
	pristine, refused := rowCountPayloads(f)
	f.Add(pristine)
	for _, payload := range refused {
		f.Add(payload)
	}
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

// rowCountPayloads is a payload of one session whose row table holds UER rows
// 10 and 20 and spared rows 20 and 30, and copies of it in which the count the
// record keeps beside one of the table's two lists disagrees with the list.
func rowCountPayloads(t testing.TB) (pristine []byte, refused map[string][]byte) {
	im := sessionImage{key: testBank(1).BankKey(), bankSession: bankSession{
		uerEvents: 7777, actions: 5555, rows: []rowMark{{row: 10, uer: true}, {row: 20, uer: true, spared: true}, {row: 30, spared: true}},
	}}
	pristine, err := encodeSnapshotImages(engineSnapVersion, snapshotHeader{}, []sessionImage{im})
	if err != nil {
		t.Fatal(err)
	}
	le64 := func(vs ...uint64) (out []byte) {
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, v)
		}
		return out
	}
	refused = make(map[string][]byte)
	for name, p := range map[string][2][]byte{
		"distinct UER rows beside the UER list": {le64(7777, 2), le64(7777, 3)}, // the UER events come first
		"isolated rows beside the spared list":  {le64(2, 5555), le64(1, 5555)}, // the actions come next
	} {
		i := bytes.Index(pristine, p[0])
		if i < 0 {
			t.Fatalf("%s: pattern %x not in the payload", name, p[0])
		}
		refused[name] = append(append(append([]byte(nil), pristine[:i]...), p[1]...), pristine[i+len(p[0]):]...)
	}
	return pristine, refused
}

// TestSnapshotRefusesRowCountsOffTheTable: a session record writes the bank's
// row table as its UER rows and its spared rows, each list with a count in the
// stats before it, and reading merges the lists back into the table. A count
// that disagrees with its list is refused — the table could not write it back.
func TestSnapshotRefusesRowCountsOffTheTable(t *testing.T) {
	pristine, refused := rowCountPayloads(t)
	_, images, err := decodeSnapshotSessions(pristine)
	if err != nil || len(images) != 1 {
		t.Fatalf("pristine payload: %d images, %v", len(images), err)
	}
	want := []rowMark{{row: 10, uer: true}, {row: 20, uer: true, spared: true}, {row: 30, spared: true}}
	if !reflect.DeepEqual(images[0].rows, want) {
		t.Fatalf("the lists merged into %+v, want %+v", images[0].rows, want)
	}
	if st := images[0].stats(images[0].key); st.DistinctUERRows != 2 || st.RowsIsolated != 2 {
		t.Errorf("the merged table counts %d UER rows and %d isolated, want 2 and 2", st.DistinctUERRows, st.RowsIsolated)
	}
	for name, payload := range refused {
		if _, _, err := decodeSnapshotSessions(payload); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
