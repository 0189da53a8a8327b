package core

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/features"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/xrand"
)

// quietEvents is n non-UER events, alternately CE and UEO, two per minute.
func quietEvents(n int) []mcelog.Event {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	evs := make([]mcelog.Event, n)
	for i := range evs {
		evs[i] = mcelog.Event{Time: base.Add(time.Duration(i/2) * time.Minute), Addr: hbm.Address{Row: 40 + i%4}, Class: ecc.ClassCE + ecc.Class(i%2), Bits: mcelog.ErrBits(i)}
	}
	return evs
}

// obsOf is the observation log of evs.
func obsOf(evs []mcelog.Event) []features.Obs {
	log := make([]features.Obs, len(evs))
	for i, e := range evs {
		log[i] = features.ObsOf(e)
	}
	return log
}

// eventOf is an event whose observation is o.
func eventOf(o features.Obs) mcelog.Event {
	return mcelog.Event{Time: time.Unix(0, o.UnixNano()), Addr: hbm.Address{Row: int(o.Row())}, Class: o.Class(), Bits: o.Bits()}
}

func encodeSession(t testing.TB, sess Session) []byte {
	t.Helper()
	blob, err := sess.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// assertResumeEquivalence drives a session resumed from the quiet prefix of
// events — the observations before the first UER, at most QuietLogMax, which is
// what the engine's store holds when it promotes a bank — and a session that
// folded every event, with the events after the prefix: every decision
// (probabilities bit for bit), the class and the encoded session must agree,
// from the resume on.
func assertResumeEquivalence(t *testing.T, s *CordialStrategy, events []mcelog.Event) {
	t.Helper()
	k := 0
	for k < len(events) && k < QuietLogMax && events[k].Class != ecc.ClassUER {
		k++
	}
	eager := s.NewSession(hbm.BankAddress{})
	for _, e := range events[:k] {
		eager.OnEvent(e)
	}
	resumed := s.ResumeSession(hbm.BankAddress{}, obsOf(events[:k]))
	for i := k; ; i++ {
		gc, gok := resumed.Class()
		wc, wok := eager.Class()
		if gc != wc || gok != wok || !bytes.Equal(encodeSession(t, resumed), encodeSession(t, eager)) {
			t.Fatalf("after event %d of %d (resumed after %d): class (%v,%t), want (%v,%t), or the images differ", i, len(events), k, gc, gok, wc, wok)
		}
		if i == len(events) {
			return
		}
		if got, want := resumed.OnEvent(events[i]), eager.OnEvent(events[i]); !decisionsEqual(got, want) {
			t.Fatalf("event %d: decision diverged:\nresumed %+v\neager   %+v", i, got, want)
		}
	}
}

// featureFuzzCorpus is FuzzIncrementalFeatureEquivalence's seed corpus
// (internal/features/fuzz_test.go): timestamp ties at the first UER, cutoff
// extensions, repeat UER rows, post-budget traffic, the unset-timestamp edges.
var featureFuzzCorpus = [][]byte{
	{0x00},
	{0x13, 0x02, 0x10, 0x00, 0x02, 0x14, 0x03, 0x00, 0x10, 0x05},
	{0x21, 0x02, 0x20, 0x04, 0x02, 0x20, 0x00, 0x00, 0x21, 0x07, 0x02, 0x20, 0x00},
	{0x02, 0x02, 0x08, 0x11, 0x02, 0x08, 0x00, 0x02, 0x08, 0x09, 0x01, 0x30, 0x22},
	{0x00, 0x03, 0x00, 0x02, 0x03, 0x07, 0x20, 0x23},
	{0x01, 0x00, 0x03, 0x03, 0x02, 0x00, 0x07, 0x2b, 0x03, 0x40},
	{0x02, 0x03, 0x07, 0x0b, 0x00, 0x02, 0x20, 0x03},
}

// featureFuzzEvents decodes the event bytes of a corpus entry as that fuzz
// target does, plus error bits (its leading configuration byte is the
// pipeline's business here and is skipped).
func featureFuzzEvents(data []byte) []mcelog.Event {
	now := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	row := 100
	deltas := [8]int{0, 1, -1, 3, -3, 20, -20, 7}
	classes := [4]ecc.Class{ecc.ClassCE, ecc.ClassCE, ecc.ClassUEO, ecc.ClassUER}
	var events []mcelog.Event
	for _, b := range data[1:] {
		row = max(row+deltas[(b>>2)&0x07], 0)
		now = now.Add(time.Duration(b>>5) * 13 * time.Minute)
		events = append(events, mcelog.Event{Time: now, Addr: hbm.Address{Row: row}, Class: classes[b&0x03], Bits: mcelog.ErrBits(b)})
	}
	return events
}

// TestQuietSessionEquivalence holds ResumeSession to its contract at the point
// the engine's store promotes a bank: the fleet's banks, the incremental≡batch
// fuzz corpus and the edges of a bank's quiet life (the engine-level twin of
// these edges is TestQuietStoreEquivalence in internal/stream).
func TestQuietSessionEquivalence(t *testing.T) {
	fleet := testFleet(t, 2, 150)
	train, test, err := SplitBanks(fleet.Faults, xrand.New(3), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	p := fitPipeline(t, RandomForest, train)
	strategy := &CordialStrategy{Pipeline: p, Geometry: hbm.DefaultGeometry}

	t.Run("fleet", func(t *testing.T) {
		spared := 0
		for _, bf := range test {
			assertResumeEquivalence(t, strategy, bf.Events)
			if !bf.Class().IsAggregation() {
				spared++
			}
		}
		if spared == 0 {
			t.Error("no scattered bank in the test fleet")
		}
	})
	t.Run("fuzz corpus", func(t *testing.T) {
		for _, seed := range featureFuzzCorpus {
			assertResumeEquivalence(t, strategy, featureFuzzEvents(seed))
		}
	})

	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(min, row int, class ecc.Class) mcelog.Event {
		return mcelog.Event{Time: base.Add(time.Duration(min) * time.Minute), Addr: hbm.Address{Row: row}, Class: class, Bits: mcelog.MakeErrBits(uint8(1+row%7), 1)}
	}
	// ces is n CEs over a few rows, two per timestamp; failing is a burst of
	// UERs at distinct neighbouring rows, which classifies and predicts.
	ces := func(n int) (evs []mcelog.Event) {
		for i := 0; i < n; i++ {
			evs = append(evs, at(i/2, 500+i%5*3, ecc.ClassCE))
		}
		return evs
	}
	failing := func(from int) (evs []mcelog.Event) {
		for i := 0; i < 5; i++ {
			evs = append(evs, at(from+i, 510+2*i, ecc.ClassUER), at(from+i, 511+2*i, ecc.ClassCE))
		}
		return evs
	}
	edges := map[string][]mcelog.Event{
		"first event a UER":      failing(0),
		"UER is observation 31":  append(ces(30), failing(40)...),
		"UER is observation 32":  append(ces(31), failing(40)...),
		"UER is observation 33":  append(ces(32), failing(40)...),
		"long quiet life":        append(ces(100), failing(60)...),
		"first UER ties the CEs": append(ces(6), failing(2)...), // minute 2 holds CEs 4 and 5
	}
	var ueo []mcelog.Event
	for i := 0; i < 40; i++ {
		ueo = append(ueo, at(i, 900+i%3, ecc.ClassUEO))
	}
	edges["UEO-only bank"] = ueo
	for _, bf := range test {
		if !bf.Class().IsAggregation() {
			last := bf.Events[len(bf.Events)-1].Time
			more := []mcelog.Event{
				{Time: last.Add(time.Hour), Addr: hbm.Address{Row: 7}, Class: ecc.ClassCE},
				{Time: last.Add(2 * time.Hour), Addr: hbm.Address{Row: 9}, Class: ecc.ClassUER},
			}
			edges["spared, then fed more"] = append(append([]mcelog.Event(nil), bf.Events...), more...)
			break
		}
	}
	for name, evs := range edges {
		t.Run(name, func(t *testing.T) { assertResumeEquivalence(t, strategy, evs) })
	}
}

// sessionImageSeeds returns Cordial session images of every kind the decoder
// accepts: quiet images (empty, short, full), a session's with its state and
// a released one's, and the version-1 spellings of the last two.
func sessionImageSeeds(t testing.TB, s *CordialStrategy) [][]byte {
	t.Helper()
	var seeds [][]byte
	for _, n := range []int{0, 3, QuietLogMax} {
		image, err := AppendQuietImage(nil, obsOf(quietEvents(n)))
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, image)
	}
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	state := s.NewSession(hbm.BankAddress{})
	state.OnEvent(mcelog.Event{Time: base, Addr: hbm.Address{Row: 5}, Class: ecc.ClassCE})
	state.OnEvent(mcelog.Event{Time: base.Add(time.Minute), Addr: hbm.Address{Row: 6}, Class: ecc.ClassUER})
	released := &releasedSession{sessionVerdict{classified: true, class: 2}}
	for _, sess := range []Session{state, released} {
		v2 := encodeSession(t, sess)
		v1 := append([]byte(nil), v2...)
		v1[4] = 1
		seeds = append(seeds, v2, v1)
	}
	return seeds
}

// FuzzRestoreSession feeds the session-image decoder — which reads persisted
// snapshots and peers' handoff blobs — arbitrary bytes: it must refuse them or
// return a session that survives further events. A quiet image must restore
// as the session NewSession and OnEvent over its logged events build, and
// re-encode through AppendQuietImage to exactly the input; any other image
// must re-encode to exactly the input (a version-1 one to its version-2
// spelling).
func FuzzRestoreSession(f *testing.F) {
	p, err := New(DefaultConfig(RandomForest)) // unfitted: decoding never reaches a model
	if err != nil {
		f.Fatal(err)
	}
	strategy := &CordialStrategy{Pipeline: p, Geometry: hbm.DefaultGeometry}
	for _, seed := range sessionImageSeeds(f, strategy) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sess, err := strategy.RestoreSession(hbm.BankAddress{}, data)
		if err != nil {
			return
		}
		image := encodeSession(t, sess)
		if log, quiet, err := QuietImageLog(data, nil); quiet {
			if err != nil {
				t.Fatalf("restored a quiet image its decoder refuses: %v", err)
			}
			eager := strategy.NewSession(hbm.BankAddress{})
			for _, o := range log {
				eager.OnEvent(eventOf(o))
			}
			if !bytes.Equal(image, encodeSession(t, eager)) {
				t.Fatal("a quiet image restores to another session than its events build")
			}
			if again, err := AppendQuietImage(nil, log); err != nil || !bytes.Equal(again, data) {
				t.Fatalf("quiet image re-encodes differently (%d vs %d bytes, %v)", len(again), len(data), err)
			}
		} else {
			want := append([]byte(nil), data...)
			want[4] = sessionVersion
			if !bytes.Equal(image, want) {
				t.Fatalf("restored session re-encodes differently (%d vs %d bytes)", len(image), len(data))
			}
		}
		now := time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)
		for i, class := range []ecc.Class{ecc.ClassCE, ecc.ClassUER, ecc.ClassUEO, ecc.ClassUER, ecc.ClassUER} {
			sess.OnEvent(mcelog.Event{Time: now.Add(time.Duration(i) * time.Minute), Addr: hbm.Address{Row: 50 + 3*i}, Class: class})
		}
		encodeSession(t, sess)
	})
}

// TestRestoreSessionImages: every seed image restores — a quiet one as a
// session holding a feature state of its observations — and what a quiet
// bank's log cannot hold is refused, by the decoder and the encoder alike.
func TestRestoreSessionImages(t *testing.T) {
	p, err := New(DefaultConfig(RandomForest))
	if err != nil {
		t.Fatal(err)
	}
	strategy := &CordialStrategy{Pipeline: p, Geometry: hbm.DefaultGeometry}
	seeds := sessionImageSeeds(t, strategy)
	for i, seed := range seeds {
		sess, err := strategy.RestoreSession(hbm.BankAddress{}, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if cs, ok := sess.(*cordialSession); i < 3 && (!ok || cs.released || cs.state.Footprint().Events != []int{0, 3, QuietLogMax}[i]) {
			t.Errorf("seed %d: quiet image restored as %T", i, sess)
		}
	}
	if _, err := AppendQuietImage(nil, obsOf(quietEvents(QuietLogMax+1))); err == nil {
		t.Error("encoded a quiet image longer than QuietLogMax")
	}
	quiet := seeds[1] // three observations of 19 bytes after the 7-byte header and the 8-byte count
	zeroTime := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64(nil, uint64(time.Time{}.Unix())), 0)
	mutate := func(off int, b byte) []byte {
		bad := append([]byte(nil), quiet...)
		bad[off] = b
		return bad
	}
	const obs0 = 7 + 8
	// Late events are folded in arrival order, so a log whose timestamps run
	// backwards is a legitimate image (and a ClassNone observation, which
	// only an unvalidated caller can produce, folds like one in a BankState).
	var late []features.Obs
	for i, class := range []ecc.Class{ecc.ClassCE, ecc.ClassNone, ecc.ClassUEO} {
		late = append(late, features.ObsOf(mcelog.Event{Time: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).Add(-time.Duration(i) * time.Hour), Addr: hbm.Address{Row: 9 + i}, Class: class}))
	}
	image, err := AppendQuietImage(nil, late)
	if err != nil {
		t.Fatalf("out-of-order quiet history does not encode: %v", err)
	}
	if back, quiet, err := QuietImageLog(image, nil); err != nil || !quiet || !slices.Equal(back, late) {
		t.Fatalf("out-of-order quiet history decoded as %v (quiet %t), %v", back, quiet, err)
	}
	if _, err := strategy.RestoreSession(hbm.BankAddress{}, image); err != nil {
		t.Fatalf("out-of-order quiet history does not restore: %v", err)
	}
	for name, bad := range map[string][]byte{
		"version 1 quiet":      mutate(4, 1),
		"classified quiet":     mutate(5, quiet[5]|sessFlagClassified),
		"quiet with state":     mutate(5, quiet[5]|sessFlagHasState),
		"quiet with a class":   mutate(6, 1),
		"unknown flag":         mutate(5, quiet[5]|0x80),
		"count beyond the log": mutate(7, QuietLogMax+1),
		"count beyond input":   mutate(7, 4),
		"UER observation":      mutate(obs0+18, byte(ecc.ClassUER)),
		"unknown class":        mutate(obs0+18, byte(ecc.ClassUER)+1),
		"negative row":         mutate(obs0+12+3, 0x80),
		"unset time":           append(append(append([]byte(nil), quiet[:obs0]...), zeroTime...), quiet[obs0+12:]...),
		"trailing byte":        append(append([]byte(nil), quiet...), 0),
		"truncated":            quiet[:len(quiet)-1],
	} {
		if _, err := strategy.RestoreSession(hbm.BankAddress{}, bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
