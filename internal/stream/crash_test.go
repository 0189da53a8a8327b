package stream

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/registry"
	"cordial/internal/wal"
	"cordial/internal/xrand"
)

var (
	crashSeeds = flag.Int("crash.seeds", 500, "schedules the crash property runs")
	crashFrom  = flag.Uint64("crash.from", 0, "the crash property's first schedule seed")
	crashLog   = slog.New(slog.NewTextHandler(io.Discard, nil))
)

// TestCrashProperty is the durability gate: seeded schedules of ingest,
// rotations, snapshots, registry installs, swaps, prunes, armed disk faults,
// power cuts and restarts over one wal.FaultFS, every boot held to the
// invariants of crashRun.check. A failing schedule is shrunk and printed with
// its seed (rerun it with -args -crash.from=SEED -crash.seeds=1). Each schedule
// runs under the one test its flavor names: TestCrashPropertyDDR5 runs the seeds
// that draw the ddr5-dimm profile, TestCrashPropertyTrained those that serve
// the trained fixture, TestCrashPropertySwap those that swap the model,
// TestCrashPropertyBatched those that cut power right after an IngestBatch,
// and TestCrashProperty the rest.
func TestCrashProperty(t *testing.T)        { crashProperty(t, "") }
func TestCrashPropertyBatched(t *testing.T) { crashProperty(t, "batched") }
func TestCrashPropertyTrained(t *testing.T) { crashProperty(t, "trained") }
func TestCrashPropertySwap(t *testing.T)    { crashProperty(t, "swap") }
func TestCrashPropertyDDR5(t *testing.T)    { crashProperty(t, "ddr5") }

func crashProperty(t *testing.T, flavor string) {
	root := t.TempDir()
	for seed := *crashFrom; seed < *crashFrom+uint64(*crashSeeds); seed++ {
		sc := genCrashSchedule(seed)
		err := error(nil)
		if sc.flavor() != flavor {
			continue
		} else if err = sc.run(root); err == nil {
			continue
		}
		for runs, shrunk := 0, true; shrunk && runs < 200; { // drop chunks of steps while it still fails
			shrunk = false
			for chunk := len(sc.steps) / 2; chunk >= 1; chunk /= 2 {
				for i := 0; i+chunk <= len(sc.steps) && runs < 200; runs++ {
					cand := sc
					cand.steps = append(append([]crashStep(nil), sc.steps[:i]...), sc.steps[i+chunk:]...)
					if cerr := cand.run(root); cerr != nil {
						sc, err, shrunk = cand, cerr, true
					} else {
						i += chunk
					}
				}
			}
		}
		var steps strings.Builder
		for i, st := range sc.steps {
			fmt.Fprintf(&steps, "  %2d %s %s %d -> %d shards %v\n", i, st.op, st.fault, st.arg, st.shards, st.evs)
		}
		t.Fatalf("seed %d (sync %v, ddr5 %v, trained %v, segment %d B, keep %d): %v\nshrunk to %d steps:\n%s",
			seed, sc.sync, sc.ddr5, sc.trained, sc.segBytes, sc.keep, err, len(sc.steps), steps.String())
	}
}

// crashStep is one step: "ingest" (an Ingest per event), "batch" (one
// IngestBatch), "snapshot", "install" (a registry artefact), "swap" (SwapModel
// to version arg, then the ACTIVE flip, as a promotion does), "prune" (the
// registry's, of what the engine does not need, which follows every swap as
// it follows a promotion), "fault" (armed for the next step), "cut" (a power
// cut with seed arg, then a boot under shards) or "restart" (a clean Close,
// then a boot).
type crashStep struct {
	op, fault string
	evs       []mcelog.Event
	arg       uint64
	shards    int
}

type crashSchedule struct {
	sync          wal.SyncPolicy
	ddr5, trained bool
	segBytes      int64
	keep          int
	steps         []crashStep
}

// ddrTestBank returns a distinct DDR5 bank address.
func ddrTestBank(i int) hbm.BankAddress {
	return hbm.BankAddress{
		Node:      uint32(i % 8),
		Rank:      uint8(i / 2 % 2),
		Device:    uint8(i / 4 % 8),
		BankGroup: uint8(i % 8),
		Bank:      uint8(i % 4),
	}
}

func genCrashSchedule(seed uint64) crashSchedule {
	r := xrand.New(seed)
	sc := crashSchedule{sync: wal.SyncPolicy(r.Intn(2)), segBytes: int64(200 + r.Intn(800)), keep: 1 + r.Intn(3)}
	switch r.Intn(20) {
	case 0:
		sc.trained = true
	case 1, 2, 3:
		sc.ddr5 = true
	}
	banks, sec, installed := 4+r.Intn(8), 0, uint64(1)
	events := func(n int) []mcelog.Event {
		evs := make([]mcelog.Event, n)
		for i := range evs {
			bank := testBank(r.Intn(banks))
			if sc.ddr5 {
				bank = ddrTestBank(r.Intn(banks))
			}
			if evs[i] = uerAt(bank, 1+r.Intn(8), sec); r.Intn(4) == 0 {
				evs[i].Class = ecc.ClassCE
			}
			sec++
		}
		return evs
	}
	for n := 6 + r.Intn(18); len(sc.steps) < n; {
		st := crashStep{op: "restart", shards: 1 + r.Intn(5)}
		switch k := r.Intn(100); {
		case k < 30:
			st = crashStep{op: "ingest", evs: events(1 + r.Intn(3))}
		case k < 55:
			st = crashStep{op: "batch", evs: events(1 + r.Intn(16))}
		case k < 65:
			st = crashStep{op: "snapshot"}
		case k < 70:
			installed++
			st = crashStep{op: "install"}
		case k < 76:
			st = crashStep{op: "swap", arg: 1 + r.Uint64n(installed)}
		case k < 86:
			st = crashStep{op: "fault", fault: []string{"write", "sync", "open", "truncate", "remove"}[r.Intn(5)], arg: r.Uint64n(300)}
		case k < 94:
			st.op, st.arg = "cut", r.Uint64()
		}
		if sc.steps = append(sc.steps, st); st.op == "swap" {
			sc.steps = append(sc.steps, crashStep{op: "prune"})
		}
	}
	return sc
}

// flavor names the test that runs the schedule: "ddr5", "trained", "swap"
// (it swaps the model), "batched" (a power cut right after an IngestBatch)
// or "".
func (sc *crashSchedule) flavor() string {
	switch {
	case sc.ddr5:
		return "ddr5"
	case sc.trained:
		return "trained"
	}
	flavor := ""
	for i, st := range sc.steps {
		if st.op == "swap" {
			return "swap"
		} else if st.op == "cut" && i > 0 && sc.steps[i-1].op == "batch" {
			flavor = "batched"
		}
	}
	return flavor
}

// crashOp is one record of the history an engine's state must equal once the
// reference, booted under version 1, folds it: the record at its LSN, under
// the floor of the snapshot its replay ran under (0 for a live fold).
type crashOp struct {
	rec   wal.Record
	floor uint64
}

// crashRun is one schedule's run and what the oracle knows of it: hist is the
// running engine's history, atSnap it as of each snapshot sequence, lifeStart
// the boot's first LSN, caught the last LSN read back into hist and ingested
// the events acknowledged since the boot. acked
// holds every acknowledged record, by recKey, true once seen applied; durable
// those that must survive; unsynced those acknowledged under SyncNever since
// the boot. rewritten: a cut lost applied records, or a replay applied a
// refused append, so the actions served live came from another history.
// armed: a fault is armed for the step; refusing: a truncate fault was armed
// since the boot.
type crashRun struct {
	sc                          *crashSchedule
	dir                         string
	fs                          *wal.FaultFS
	reg                         *registry.Registry
	e                           *Engine
	acts                        []Action
	hist                        []crashOp
	atSnap                      map[uint64][]crashOp
	lifeStart, caught, ingested uint64
	acked, durable, refActions  map[string]bool
	unsynced                    []string
	rewritten, armed, refusing  bool
}

// ActiveModel and ModelByVersion serve the registry's versions, each as the
// trained fixture's strategy or as a fake whose budget tells them apart.
func (cr *crashRun) ActiveModel() (core.Strategy, uint64) {
	s, _ := cr.ModelByVersion(cr.reg.ActiveVersion())
	return s, cr.reg.ActiveVersion()
}

func (cr *crashRun) ModelByVersion(v uint64) (core.Strategy, error) {
	if _, ok := cr.reg.MetaOf(v); !ok {
		return nil, fmt.Errorf("crash run: version %d not in the registry", v)
	}
	return crashRef{cr}.ModelByVersion(v)
}

// crashRef serves the reference every version the schedule installed, pruned
// or not: it folds the whole history, swap records the journal has since
// dropped included.
type crashRef struct{ *crashRun }

func (r crashRef) ModelByVersion(v uint64) (core.Strategy, error) {
	if r.sc.trained {
		pipe, err := trainedPipeline()
		return &core.CordialStrategy{Pipeline: pipe, Geometry: hbm.DefaultGeometry}, err
	}
	return &fakeStrategy{budget: 2 + int(v%3)}, nil
}

func (sc *crashSchedule) run(root string) error {
	pipe, err := tinyPipeline() // fitted under the default profile
	if err != nil {
		return err
	}
	if sc.ddr5 {
		defer hbm.ActivateProfile(hbm.ActivateProfile(hbm.DDR5DIMM))
	}
	cr := &crashRun{sc: sc, fs: wal.NewFaultFS(wal.OSFS), atSnap: map[uint64][]crashOp{}, acked: map[string]bool{}, durable: map[string]bool{}}
	if cr.dir, err = os.MkdirTemp(root, "run"); err != nil {
		return err
	}
	defer os.RemoveAll(cr.dir)
	defer func() {
		if cr.e != nil {
			cr.e.Close()
		}
	}()
	if cr.reg, err = registry.Open(registry.Options{Dir: cr.dir, FS: cr.fs, Keep: 1}); err == nil {
		if _, err = cr.reg.Install(pipe, "boot"); err == nil {
			err = cr.reg.Activate(1)
		}
	}
	if err != nil {
		return err
	} else if err := cr.boot(3); err != nil {
		return fmt.Errorf("first boot: %w", err)
	}
	for i, st := range sc.steps {
		if err := cr.step(st, pipe); err != nil {
			return fmt.Errorf("step %d (%s): %w", i, st.op, err)
		} else if st.op != "fault" {
			cr.fs.Disarm()
			cr.armed = false
		}
	}
	if err := cr.step(crashStep{op: "restart", shards: 2}, pipe); err != nil {
		return fmt.Errorf("final restart: %w", err)
	}
	cr.e.Close()
	if cr.acts = append(cr.acts, drainActions(cr.e)...); !cr.rewritten && !maps.Equal(actionKeys(nil, cr.acts), cr.refActions) {
		return fmt.Errorf("deduplicated actions differ from the reference's")
	}
	return nil
}

// step runs one step. An error the engine or the registry returns under an
// armed fault breaks no invariant.
func (cr *crashRun) step(st crashStep, pipe *core.Pipeline) error {
	switch st.op {
	case "ingest":
		for _, ev := range st.evs {
			if err := cr.e.Ingest(ev); err == nil {
				cr.ackEvents(ev)
			} else if err = cr.faulted(err); err != nil {
				return err
			}
		}
	case "batch":
		if n, _, err := cr.e.IngestBatch(st.evs); err == nil {
			cr.ackEvents(st.evs[:n]...)
		} else if err = cr.faulted(err); err != nil {
			return err
		}
	case "snapshot":
		if err := cr.pin(); err != nil {
			return err
		}
		cr.e.Snapshot()
	case "install":
		cr.reg.Install(pipe, "train")
	case "swap":
		if cr.e.snapSeq.Load() == 0 { // the first swap snapshots first
			if err := cr.pin(); err != nil {
				return err
			}
		}
		if lsn, err := cr.e.SwapModel(st.arg); err == nil {
			cr.ack(fmt.Sprint("swap@", lsn))
			cr.reg.Activate(st.arg)
		}
	case "prune":
		cr.reg.Prune(cr.e.NeededVersions())
	case "fault":
		cr.armed, cr.refusing = true, cr.refusing || st.fault == "truncate"
		map[string]func(){
			"write":    func() { cr.fs.LimitWriteBytes(int64(st.arg)) },
			"sync":     func() { cr.fs.FailSyncAfter(int(st.arg % 4)) },
			"open":     func() { cr.fs.FailOpens(true) },
			"truncate": func() { cr.fs.FailTruncates(true) },
			"remove":   func() { cr.fs.FailRemoves(true) },
		}[st.fault]()
	case "cut", "restart":
		cr.fs.Disarm()
		if st.op == "cut" {
			if err := cr.fs.PowerCut(st.arg); err != nil {
				return err
			}
			cr.rewritten = cr.rewritten || cr.sc.sync == wal.SyncNever
		}
		clean := cr.e.Close() == nil && st.op == "restart"
		cr.acts = append(cr.acts, drainActions(cr.e)...)
		for _, k := range cr.unsynced {
			cr.durable[k] = cr.durable[k] || clean
		}
		cr.e, cr.unsynced = nil, nil
		var err error
		if cr.reg, err = registry.Open(registry.Options{Dir: cr.dir, FS: cr.fs, Keep: 1}); err != nil {
			return err
		}
		active, err := wal.ReadFile(nil, filepath.Join(cr.dir, "ACTIVE"), 64)
		if err == nil {
			_, _, err = registry.ReadArtifact(nil, filepath.Join(cr.dir, "model-"+string(bytes.TrimSpace(active))+".cmdl"))
		}
		if err != nil {
			return fmt.Errorf("ACTIVE (%q) names no artefact that decodes: %w", active, err)
		}
		return cr.boot(st.shards)
	}
	if got := cr.e.Stats().Ingested; got != cr.ingested {
		return fmt.Errorf("Ingested = %d, %d events acknowledged since the boot", got, cr.ingested)
	}
	return nil
}

// faulted checks an ingest error: it must be an armed fault's, or stem from a
// truncate fault since the boot — a failed write that a truncate fault kept
// from being cut off makes the journal refuse appends.
func (cr *crashRun) faulted(err error) error {
	switch {
	case cr.armed && (errors.Is(err, wal.ErrInjectedWrite) || errors.Is(err, wal.ErrInjectedSync) || errors.Is(err, wal.ErrInjectedOpen)):
	case cr.refusing && errors.Is(err, wal.ErrInjectedTruncate):
	default:
		return fmt.Errorf("ingest failed with no fault to explain it: %w", err)
	}
	return nil
}

func (cr *crashRun) ackEvents(evs ...mcelog.Event) {
	for _, ev := range evs {
		cr.ack(string(mcelog.RecordOf(ev).Append(nil)))
	}
	cr.ingested += uint64(len(evs))
}

// ack records an acknowledged record: it must survive under SyncAlways, and
// under SyncNever once a clean Close has synced it.
func (cr *crashRun) ack(key string) {
	cr.acked[key] = false
	if cr.sc.sync == wal.SyncAlways {
		cr.durable[key] = true
	} else {
		cr.unsynced = append(cr.unsynced, key)
	}
}

// recKey names a journal record as ack does: an event by its bytes, which
// are unique in a schedule, and a swap by its LSN.
func recKey(r wal.Record) string {
	if _, _, swap, _ := decodeJournalRecord(r.Payload); swap {
		return fmt.Sprint("swap@", r.LSN)
	}
	return string(r.Payload)
}

// pin drains the engine, reads back into the history the records this boot
// acknowledged since the last read (off the disk, past any armed fault), and
// records the history as of the snapshot taken next — before its write, for
// a snapshot whose publish fails after the rename still restores.
func (cr *crashRun) pin() error {
	if err := cr.e.Drain(10 * time.Second); err != nil {
		return err
	}
	recs, err := wal.ReadJournal(nil, cr.dir)
	for _, rec := range recs {
		if _, ok := cr.acked[recKey(rec)]; ok && rec.LSN >= cr.lifeStart && rec.LSN > cr.caught {
			cr.hist = append(cr.hist, crashOp{rec: rec})
		}
		cr.caught = max(cr.caught, rec.LSN)
	}
	cr.atSnap[max(cr.e.wal.NextLSN(), cr.e.snapSeq.Load()+1)] = slices.Clip(cr.hist)
	return err
}

// boot starts the engine over the directory, rebuilds the history its state
// must equal from the snapshot it restored and the journal it replayed, and
// checks it.
func (cr *crashRun) boot(shards int) (err error) {
	cr.e, err = New(Config{Models: cr, Shards: shards, Logger: crashLog, Durability: DurabilityConfig{
		Dir: cr.dir, FS: cr.fs, Sync: cr.sc.sync, SegmentBytes: cr.sc.segBytes, SnapshotKeep: cr.sc.keep}})
	if err != nil {
		return fmt.Errorf("boot with no synced frame damaged: %w", err)
	}
	h, ok := cr.atSnap[cr.e.snapSeq.Load()]
	if !ok && cr.e.snapSeq.Load() != 0 {
		return fmt.Errorf("restored snapshot %d, which the schedule never took", cr.e.snapSeq.Load())
	}
	recs, err := wal.ReadJournal(cr.fs, cr.dir)
	h = slices.Clip(h)
	events := uint64(0)
	for i, rec := range recs {
		if i > 0 && rec.LSN <= recs[i-1].LSN {
			return fmt.Errorf("journal LSN %d after %d", rec.LSN, recs[i-1].LSN)
		} else if recKey(rec) == string(rec.Payload) {
			events++
		}
		h = append(h, crashOp{rec: rec, floor: cr.e.recoveredFloor})
	}
	if got := cr.e.Stats().RecoveredEvents; got != events {
		return fmt.Errorf("RecoveredEvents = %d, the journal holds %d", got, events)
	}
	cr.hist, cr.lifeStart, cr.caught, cr.ingested, cr.refusing = h, cr.e.wal.NextLSN(), 0, 0, false
	if err != nil {
		return err
	}
	return cr.check()
}

// check holds the running engine to its history:
//   - no LSN names two records;
//   - every acknowledged record is applied at most once, and every one that
//     must survive is applied;
//   - the engine's snapshot body is byte-identical to that of a reference
//     that folds the history on one shard, never cut, with the same swaps: so
//     every session is pinned to the same version, and the same one is active;
//   - (in run, at the end) unless the history was rewritten, both emitted the
//     same deduplicated actions.
func (cr *crashRun) check() (err error) {
	ref, err := New(Config{Models: crashRef{cr}, Shards: 1, Logger: crashLog})
	if err != nil {
		return err
	}
	defer func() {
		ref.Close()
		cr.refActions = actionKeys(nil, drainActions(ref))
	}()
	strat, err := crashRef{cr}.ModelByVersion(1)
	if err != nil {
		return err
	}
	ref.seedEpochs(modelEpoch{version: 1, strategy: strat})
	for k := range cr.acked {
		cr.acked[k] = false
	}
	byLSN := map[uint64]string{}
	for _, op := range cr.hist {
		r := op.rec
		if p, ok := byLSN[r.LSN]; ok && p != string(r.Payload) {
			return fmt.Errorf("LSN %d names two records", r.LSN)
		}
		byLSN[r.LSN] = string(r.Payload)
		rec, version, swap, err := decodeJournalRecord(r.Payload)
		applied := swap
		if swap {
			if strat, err = ref.strategyFor(version); err != nil {
				return err
			}
			ref.installEpoch(modelEpoch{version: version, sinceLSN: r.LSN, strategy: strat})
		} else if err == nil {
			res := ref.shards[0].lockedStep(stepEnv{epochs: ref.epochList(), floor: op.floor}, []queued{{rec: rec, lsn: r.LSN}})
			ref.deliver(res)
			applied = res.refused == 0
		} else {
			return err
		}
		switch was, acked := cr.acked[recKey(r)]; {
		case applied && acked && was && !swap:
			return fmt.Errorf("record at LSN %d applied twice", r.LSN)
		case applied && acked:
			cr.acked[recKey(r)] = true
		case applied:
			cr.rewritten = true
		}
	}
	want, _, err := ref.encodeSnapshot(nil)
	got, _, gerr := cr.e.encodeSnapshot(nil)
	switch {
	case err != nil || gerr != nil:
		return fmt.Errorf("encoding snapshots: %v, %v", err, gerr)
	case !bytes.Equal(got[snapBodyOffset:], want[snapBodyOffset:]) || cr.e.ActiveModelVersion() != ref.ActiveModelVersion():
		return fmt.Errorf("recovered state differs from the reference's (active %d, reference %d)",
			cr.e.ActiveModelVersion(), ref.ActiveModelVersion())
	}
	for k, must := range cr.durable {
		if must && !cr.acked[k] {
			return fmt.Errorf("acknowledged record %x lost", k)
		}
	}
	return nil
}
