//go:build mutants

package cordial

import (
	"bytes"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mutants is the mutation catalogue. Each entry plants one defect — the old
// text of a file, which must occur once, replaced by new — and names the tests
// ("package Test", then any test-binary arguments) each of which must fail on
// it. Run it with
//
//	go test -tags mutants -run TestMutants -timeout 30m .
var mutants = []struct {
	name, file, old, new string
	tests                []string
}{
	// The durability defects the journal-and-files change fixed.
	{"sealed segment's CRC-bad tail read as torn", "internal/wal/wal.go",
		"\t\t\tif tail {\n\t\t\t\treturn off, nil\n\t\t\t}\n\t\t\treturn off, fmt.Errorf(\"%w: record checksum",
		"\t\t\tif true {\n\t\t\t\treturn off, nil\n\t\t\t}\n\t\t\treturn off, fmt.Errorf(\"%w: record checksum",
		[]string{"internal/wal TestSealedSegmentBadFinalRecordIsCorrupt"}},
	{"takeover writes into the dead node's directory", "internal/wal/wal.go",
		"\tfs = orOS(fs)\n", "\tfs = orOS(fs)\n\tif w, err := Open(dir, Options{FS: fs}); err == nil {\n\t\tw.Close()\n\t}\n",
		[]string{"internal/wal TestReadJournal"}},
	{"no directory fsync at segment creation", "internal/wal/wal.go",
		"\tif err := w.opts.FS.SyncDir(w.dir); err != nil {\n\t\treturn fmt.Errorf(\"wal: syncing journal directory: %w\", err)\n\t}\n", "",
		[]string{"internal/wal TestDirectoriesSynced", "internal/stream TestCrashProperty"}},
	{"no directory fsync in Publish", "internal/wal/publish.go",
		"\tif err := fs.SyncDir(dir); err != nil {\n\t\treturn fmt.Errorf(\"wal: syncing directory of %s: %w\", path, err)\n\t}\n", "",
		[]string{"internal/wal TestDirectoriesSynced", "internal/stream TestCrashPropertySwap"}},
	{"no cut after a failed write", "internal/wal/wal.go", `	if terr := w.f.Truncate(w.size); terr != nil {
		w.failed = fmt.Errorf("wal: journal refuses appends: cutting off a failed write: %w", terr)
	} else if _, serr := w.f.Seek(w.size, io.SeekStart); serr != nil {
		w.failed = fmt.Errorf("wal: journal refuses appends: seeking past a failed write: %w", serr)
	}
`, "", []string{"internal/wal TestFailedWriteKeepsLaterAppends", "internal/stream TestCrashProperty"}},
	{"LSN reused after a failed rotation", "internal/wal/wal.go",
		"(i+1)*recordSize]); err != nil {\n\t\t\tw.setNextLSN(max(first, w.written))", "(i+1)*recordSize]); err != nil {\n\t\t\tw.setNextLSN(first)",
		[]string{"internal/stream TestCrashProperty"}},

	// The defects the crash property found.
	{"LSN reused after a power cut under -fsync never", "internal/stream/durable.go",
		"w.Floor(e.snapSeq.Load())", "w.Floor(0)",
		[]string{"internal/stream TestRecoveryFloorsJournalAtSnapshot", "internal/stream TestCrashProperty"}},
	{"a swap before the first snapshot rebinds older banks at reboot", "internal/stream/models.go",
		"\tif e.wal != nil && e.snapSeq.Load() == 0 {", "\tif false {",
		[]string{"internal/stream TestCrashPropertySwap"}},

	// What the kill-point suites and the recovery tests that cuts replaced caught.
	{"replay refolds the record at a bank's watermark", "internal/stream/shard.go",
		"\tif lsn <= *last {", "\tif lsn < *last {", []string{"internal/stream TestCrashProperty"}},
	{"a batch's events queued under per-shard LSNs", "internal/stream/ingest.go",
		"q.lsn = uint64(len(sc.enc) / mcelog.WireRecordSize)", "q.lsn = uint64(sc.pos[si])",
		[]string{"internal/stream TestCrashPropertyBatched"}},
	{"a restored Cordial session forgets its classification", "internal/core/durable.go",
		"classified: flags&sessFlagClassified != 0, class: class}", "class: class}",
		[]string{"internal/stream TestCrashPropertyTrained -crash.seeds=2000"}},
	{"a restored session is rebuilt for another bank", "internal/stream/durable.go",
		"ds.RestoreSession(st.layout.bank(im.key), im.blob)", "ds.RestoreSession(st.layout.bank(0), im.blob)",
		[]string{"internal/stream TestCrashPropertyDDR5"}},
	{"replay drops model swap records", "internal/stream/durable.go",
		"\t\t\te.installEpoch(modelEpoch{version: version, sinceLSN: lsn, strategy: strat})\n", "\t\t\t_ = strat\n",
		[]string{"internal/stream TestCrashPropertySwap"}},
	{"a torn frame header read as corruption", "internal/wal/wal.go",
		"return off, nil // a frame header cut short", "return off, ErrCorrupt // a frame header cut short",
		[]string{"internal/wal TestWALPowerCutRepair", "internal/stream TestCrashProperty"}},
	{"a torn final frame read as corruption", "internal/wal/wal.go",
		"\t\t\tif tail || length <= MaxRecordBytes {", "\t\t\tif false {",
		[]string{"internal/wal TestWALPowerCutRepair", "internal/stream TestCrashProperty"}},
	{"a header-torn final segment read as corruption", "internal/wal/wal.go",
		"\t\tif end < 0 {\n", "\t\tif end < 0 {\n\t\t\treturn nil, ErrCorrupt\n",
		[]string{"internal/wal TestWALDamagedFinalSegmentRemoved", "internal/stream TestCrashPropertyBatched"}},
	{"the torn tail left in place", "internal/wal/wal.go",
		"\t\tif err := f.Truncate(end); err != nil {", "\t\tif err := error(nil); err != nil {",
		[]string{"internal/wal TestWALPowerCutRepair", "internal/stream TestCrashProperty"}},
	{"a segment a failed rotation left behind wedges the journal", "internal/wal/wal.go",
		"os.O_RDWR|os.O_CREATE|os.O_TRUNC", "os.O_RDWR|os.O_CREATE|os.O_EXCL",
		[]string{"internal/stream TestCrashProperty -crash.seeds=1000"}},
	{"a prune removes a version the journal's swap records name", "internal/stream/models.go",
		"\tfor _, ep := range e.epochList() {\n\t\tout = append(out, ep.version)\n\t}\n", "",
		[]string{"internal/stream TestCrashPropertySwap -crash.seeds=1000"}},
	{"a failed fsync acknowledged", "internal/wal/wal.go",
		"\t\tif serr := w.syncTimed(); serr != nil {", "\t\tif serr := w.syncTimed(); serr != nil && false {",
		[]string{"internal/stream TestCrashProperty"}},

	// The per-bank allocation budget: what one promoted bank costs and holds.
	{"budget rows written in row order", "internal/features/codec.go",
		"\tslices.SortFunc(ranked, func(a, b rowEntry) int { return cmp.Compare(a.rank, b.rank) })\n", "\t_ = cmp.Compare[int]\n",
		[]string{"internal/stream TestQuietStoreEquivalence"}},
	{"a released session keeps its row table", "internal/core/pipeline.go",
		"\t\t\ts.state, s.released = features.BankState{}, true\n", "\t\t\ts.released = true\n",
		[]string{"internal/core TestCordialSessionReleasesStateWhenSpared"}},
	{"a spared bank keeps its feature state's session", "internal/stream/shard.go",
		"\t\tbs.sess = core.Released(bs.sess)\n", "",
		[]string{"internal/stream TestEngineFeatureStateStats"}},
	{"a bank's budget rows counted past the budget", "internal/features/state.go",
		"\tif s.budgetDone {\n\t\treturn s.cfg.UERBudget\n\t}\n", "",
		[]string{"internal/features TestIncrementalEquivalenceTable", "internal/features TestBankStateGoldenImages"}},

	// A bank's rows as runs held in its slot.
	{"add forgets to join the next run", "internal/rowset/rowset.go",
		"\tcase before && after:\n\t\truns[i-1].hi = runs[i].hi\n\t\ts.remove(i)\n", "",
		[]string{"internal/rowset FuzzRowRuns", "internal/rowset TestSetAgainstMap"}},
	{"the spill drops the last inline run", "internal/rowset/rowset.go",
		"s.inline[:s.n]...)", "s.inline[:s.n-1]...)",
		[]string{"internal/rowset FuzzRowRuns", "internal/rowset TestRunsAllocs", "internal/stream FuzzBankHistory"}},
	{"the snapshot reader merges the spared list into the UER runs", "internal/stream/durable.go",
		"\t\tim.spared.Add(int(row))\n", "\t\tim.uerRows.Add(int(row))\n",
		[]string{"internal/stream TestSnapshotRefusesRowCountsOffTheTable", "internal/stream TestEngineSnapshotGolden"}},

	// The verdict oracle's: a bank's verdicts are a function of its history
	// under every serving form. The first two were planted for it; the rest
	// are what the equivalence suites it replaced killed.
	{"the quiet store takes one event past its cap", "internal/stream/shard.go",
		"sl.count() < quietCap", "sl.count() <= quietCap",
		[]string{"internal/stream FuzzBankHistory"}},
	{"a promotion resumes under the newest model, not its bank's", "internal/stream/shard.go",
		"bs.sess = st.totals.version(sl.ver()).quiet.ResumeSession(",
		"bs.sess = env.epochs[len(env.epochs)-1].strategy.(core.QuietStrategy).ResumeSession(",
		[]string{"internal/stream FuzzBankHistory"}},
	{"replay ignores the snapshot floor", "internal/stream/shard.go",
		"if q.lsn != 0 && q.lsn <= env.floor {", "if false {",
		[]string{"internal/stream FuzzBankHistory", "internal/stream TestDroppedBankStaysDropped", "internal/stream TestBankMovesAwayAndBack"}},
	{"the engine does not flag an already-spared row as a UER row", "internal/stream/shard.go",
		"\t\tbs.uerRows.Add(ev.Addr.Row)\n", "\t\tif !bs.spared.Has(ev.Addr.Row) {\n\t\t\tbs.uerRows.Add(ev.Addr.Row)\n\t\t}\n",
		[]string{"internal/stream FuzzBankHistory", "internal/stream TestEngineSnapshotGolden"}},
	{"an adopted bank keeps its source's watermark", "internal/stream/handoff.go",
		"\t\tbs.lastLSN = st.appliedLSN\n", "",
		[]string{"internal/stream FuzzBankHistory"}},
	{"the shard step skips admission", "internal/stream/shard.go",
		"if !st.admit(last, q.lsn) {", "if st.admit(last, q.lsn) && false {",
		[]string{"internal/stream FuzzBankHistory"}},
	{"Decide appends to the last decision's rows", "internal/core/pipeline.go",
		"buf.rows = pipe.appendRows(buf.rows[:0],", "buf.rows = pipe.appendRows(buf.rows,",
		[]string{"internal/stream FuzzBankHistory"}},
	{"a resumed session drops its newest logged observation", "internal/core/pipeline.go",
		"cs.state.Replay(log)", "cs.state.Replay(log[:max(len(log), 1)-1])",
		[]string{"internal/stream FuzzBankHistory"}},

	// Training hands trees over as records and codes datasets as they are built.
	{"the ±0 rank fix-up dropped from the threshold remap", "internal/mltree/arena.go",
		"\t\t\t\trank++ // +0: its table holds −0 too, just before it\n", "",
		[]string{"internal/mltree TestRankKernelExactness"}},
	{"a member's leaf rows numbered one past its base", "internal/mltree/arena.go",
		"rows += uint32(len(m.leaves()) / width)", "rows += uint32(len(m.leaves())/width) + 1",
		[]string{"internal/mltree TestArenaForestEquivalence", "internal/core TestSaveModelsGolden"}},
	{"the coder gives −0 and +0 codes of their own", "internal/mltree/coded.go",
		"w == start || c.vals[hi] != c.vals[w-1]", "w == start || math.Float64bits(c.vals[hi]) != math.Float64bits(c.vals[w-1])",
		[]string{"internal/mltree FuzzCodedRows", "internal/mltree TestCodedMatrix"}},

	// Trees kept in their builder's store, RNGs by value, row tables made at
	// the rows a promoted bank reaches.
	{"a tree's view starts on the last leaf word of the tree before", "internal/mltree/arena.go",
		"\tb.free = b.free[w:]\n", "\tb.free = b.free[w-1:]\n",
		[]string{"internal/mltree TestArenaForestEquivalence", "internal/core TestSaveModelsGolden"}},
	{"every grown tree's record allocated on its own", "internal/mltree/arena.go",
		"rec: b.take(n + s + (s+3)/4 + len(b.leaf))", "rec: make([]uint64, n+s+(s+3)/4+len(b.leaf))",
		[]string{"internal/mltree TestForestFitAllocsFlatInTrees", "internal/core TestFitTransientBytes"}},
	{"forest members copy one RNG instead of splitting it", "internal/mltree/forest.go",
		"rngs[t] = rng.Split()", "rngs[t] = *rng",
		[]string{"internal/mltree TestParentFixture", "internal/core TestSaveModelsGolden"}},
	{"a row table starts below the rows a promoted bank reaches", "internal/rowset/rowset.go",
		"const minCap = 16", "const minCap = 8",
		[]string{"internal/rowset TestTableAgainstSortedSlice", "internal/stream TestPromotedBankAllocs", "internal/stream TestHotBankAllocs"}},

	// The feature table's first 16 rows inside the state.
	{"the spill drops the last inline entry", "internal/rowset/rowset.go",
		"2*cap(t.spill))), t.All()...)", "2*cap(t.spill))), t.All()[:len(t.All())-1]...)",
		[]string{"internal/rowset TestTableAgainstSortedSlice", "internal/features FuzzIncrementalFeatureEquivalence", "internal/features TestStateCopyKeepsRows"}},
	{"Reset leaves the inline count", "internal/rowset/rowset.go",
		"t.n, t.spill = 0, t.spill[:0]", "t.spill = t.spill[:0]",
		[]string{"internal/rowset TestTableAgainstSortedSlice", "internal/features TestResetStateIsFresh", "internal/core TestSaveModelsGolden"}},
	{"a copied state's table reads the source's inline array", "internal/rowset/rowset.go",
		"\t\tt.n++\n\t\treturn\n", "\t\tt.n++\n\t\tt.spill = t.inline[:t.n]\n\t\treturn\n",
		[]string{"internal/features TestStateCopyKeepsRows"}},
	{"a coded matrix's set sized from the Coder's expectation, not its pairs", "internal/mltree/coded.go",
		"c := newCoder(len(X[0]), len(X), pairs)", "c := newCoder(len(X[0]), len(X), len(X)+len(X)/2+len(X[0])+0*pairs)",
		[]string{"internal/mltree TestCodePatternMatrixAllocs"}},

	// Value codes as narrow as each feature's values.
	{"a column widens one value late, its 257th value cut to a byte", "internal/mltree/coded.go",
		"\tcase c > math.MaxUint8:\n", "\tcase c > math.MaxUint8+1:\n",
		[]string{"internal/mltree FuzzCodedRows", "internal/mltree TestCodeWidths", "internal/core TestSaveModelsGolden"}},
	{"a widened column keeps none of its codes from before it widened", "internal/mltree/coded.go",
		"\tfor i, c := range codes {\n\t\tout[i] = W(c)\n\t}\n", "",
		[]string{"internal/mltree FuzzCodedRows", "internal/mltree TestCodeWidths", "internal/core TestSaveModelsGolden"}},
	{"rank remaps a two-byte column as a one-byte one, leaving its numbers", "internal/mltree/coded.go",
		"\tcase col.u16 != nil:\n\t\tremapCodes(col.u16, to)\n", "",
		[]string{"internal/mltree FuzzCodedRows", "internal/mltree TestCodeWidths", "internal/core TestSaveModelsGolden"}},

	// One stage instrument on one clock.
	{"a promotion copies the chain it resumes from", "internal/stream/shard.go",
		"\t\tst.chain = st.store.log(sl, st.chain)\n", "\t\tst.chain = append([]features.Obs(nil), st.store.log(sl, st.chain)...)\n",
		[]string{"internal/stream TestPromotionAllocs"}},
	{"the sampler reads the clock on every occurrence", "internal/obs/obs.go",
		"(s.n.Add(1)-1)%StageEvery != 0", "(s.n.Add(1)-1)%1 != 0",
		[]string{"internal/obs TestStageSampling", "internal/obs TestStageConcurrentSampling", "internal/stream TestClockReadsPerEvent"}},
	{"the first occurrence is not sampled", "internal/obs/obs.go",
		"(s.n.Add(1)-1)%StageEvery != 0", "s.n.Add(1)%StageEvery != 0",
		[]string{"internal/obs TestStageSampling", "internal/stream TestStatszMetricsAgree"}},
	{"fold is observed into queue_wait's histogram", "internal/stream/metrics.go",
		`m.fold = reg.Stage("fold")`, `m.fold = reg.Stage("queue_wait")`,
		[]string{"internal/stream TestStatszMetricsAgree"}},

	// One session contract: what the deleted Decide-equals-OnEvent tests and
	// the oracle's Decide-hidden form killed (the first five, and "Decide
	// appends to the last decision's rows" above), the deleted fallbacks and
	// refusals, their gate, and the engine's free list of working sets.
	{"the engine skips the class mirror", "internal/stream/shard.go",
		"\tif !bs.classified {\n\t\tif class, fired := bs.sess.Class(); fired {", "\tif false {\n\t\tif class, fired := bs.sess.Class(); fired {",
		[]string{"internal/stream FuzzBankHistory", "internal/stream TestEngineSessionStats"}},
	{"the engine reads no footprint", "internal/stream/shard.go",
		"\tfp, released := bs.sess.StateFootprint()\n", "\tfp, released := features.StateFootprint{}, false\n",
		[]string{"internal/stream FuzzBankHistory", "internal/stream TestEngineFeatureStateStats"}},
	{"OnEvent decides into a shared buffer", "internal/core/pipeline.go",
		"func (s *cordialSession) OnEvent(e mcelog.Event) Decision { return s.Decide(e, nil) }",
		"var onEventBuf DecisionBuffer\n\nfunc (s *cordialSession) OnEvent(e mcelog.Event) Decision { return s.Decide(e, &onEventBuf) }",
		[]string{"internal/core TestOnEventDecisionsAreCallersOwn"}},
	{"an action's rows alias the decision's", "internal/stream/shard.go",
		"fresh := vb.carve(n)", "fresh := d.IsolateRows[:0]",
		[]string{"internal/stream FuzzBankHistory", "internal/stream TestOnlineOfflineEquivalence"}},
	{"the engine decides through OnEvent, not into its buffer", "internal/stream/shard.go",
		"d := bs.sess.Decide(ev, &vb.dec)", "d := bs.sess.OnEvent(ev)",
		[]string{"internal/stream TestPredictingFoldAllocs", "internal/stream TestHotBankAllocs"}},
	{"a checkpoint drops a session's image error", "internal/stream/durable.go",
		"im.blob, err = im.sess.EncodeState()", "im.blob, _ = im.sess.EncodeState()",
		[]string{"internal/stream TestDurabilityRequiresDurableStrategy"}},
	{"a restore drops the strategy's refusal", "internal/stream/durable.go",
		"sess, err = ds.RestoreSession(", "sess, _ = ds.RestoreSession(",
		[]string{"internal/stream TestRecoverySnapshotFallback", "internal/stream TestShardTotalsMatchRecount"}},
	{"the engine asserts a session capability again", "internal/stream/shard.go",
		"\tfp, released := bs.sess.StateFootprint()\n", "\tfp, released := bs.sess.(core.ClassifiedSession).StateFootprint()\n",
		[]string{". TestDeletedStaysDeleted"}},
	{"every IngestBatch builds its working set", "internal/stream/ingest.go",
		"if n := len(e.scratch); n > 0 {", "if n := len(e.scratch); n > 0 && false {",
		[]string{"internal/stream TestIngestScratchReused", "internal/stream TestDurableBatchAllocs"}},
	{"the free list is capped below the batches in flight", "internal/stream/ingest.go",
		"\te.scratch = append(e.scratch, sc)\n", "\tif len(e.scratch) < 1 {\n\t\te.scratch = append(e.scratch, sc)\n\t}\n",
		[]string{"internal/stream TestIngestScratchKeepsPeak"}},
	{"a failed checkpoint leaves the engine ready", "internal/stream/durable.go",
		"\t\te.lastSnapErr.Store(err.Error())\n", "",
		[]string{"internal/stream TestSnapshotFailureNotReady", "internal/stream TestDurabilityRequiresDurableStrategy"}},
	{"a checkpoint that succeeds again leaves the engine not ready", "internal/stream/durable.go",
		"\te.lastSnapErr.Store(\"\") // a checkpoint works again: readiness restored\n", "",
		[]string{"internal/stream TestSnapshotFailureNotReady"}},

	// One explicit topology: each process resolves its profile once and hands
	// it to every call site.
	{"the router keys under hbm2e whatever the ring says", "internal/cluster/router.go",
		"prof := ring.Profile()", "prof := hbm.HBM2E",
		[]string{"internal/cluster TestRouterCodecMatrix"}},
	{"the engine packs with hbm.HBM2E instead of cfg.Profile", "internal/stream/engine.go",
		"layout: newRecordLayout(cfg.Profile),", "layout: newRecordLayout(hbm.HBM2E),",
		[]string{"internal/stream TestTwoProfilesOneProcess", "internal/stream TestOnlineOfflineEquivalenceDDR5", "internal/stream TestCrashPropertyDDR5"}},
	{"stream.New accepts a 19-bit row field", "internal/stream/engine.go",
		"width > nodeRowBits {", "width > nodeRowBits+1 {",
		[]string{"internal/stream TestStoreLimitFallbacks"}},
	{"the transfer study evaluates dst banks under src's profile", "internal/experiments/transfer.go",
		"Geometry: dst.profile.Geometry}\n\t\t\tres, err := core.EvaluatePredictionFor(dst.profile,",
		"Geometry: src.profile.Geometry}\n\t\t\tres, err := core.EvaluatePredictionFor(src.profile,",
		[]string{"internal/experiments TestTransferSmoke"}},

	// One input for every learner: the boosters grow on the coded matrix. The
	// first four stand for what the deleted binner and binned-navigation
	// tests killed.
	{"a code→bin map shifted by one at a cut", "internal/mltree/histgbdt.go", `		bin[c] = uint8(b)
		if b < len(cut) && int32(c) == cut[b] {
			b++
		}
`, `		if b < len(cut) && int32(c) == cut[b] {
			b++
		}
		bin[c] = uint8(b)
`, []string{"internal/mltree TestBoostBinsMatchBinner", "internal/mltree TestParentFixture", "internal/core TestSaveModelsGolden"}},
	{"codes above the last cut share its bin", "internal/mltree/histgbdt.go",
		"if b < len(cut) && int32(c) == cut[b] {", "if b < len(cut)-1 && int32(c) == cut[b] {",
		[]string{"internal/mltree TestBoostBinsMatchBinner", "internal/core TestSaveModelsGolden"}},
	{"a cut at a feature's largest code", "internal/mltree/histgbdt.go",
		"if c < top && (len(cut) == 0", "if c <= top && (len(cut) == 0",
		[]string{"internal/mltree TestBoostBinsMatchBinner"}},
	{"the margin update walks a sample at a threshold right", "internal/mltree/grower.go",
		"fr.vals[n.Feature][fr.codes[n.Feature].at(r)] <= n.Threshold", "fr.vals[n.Feature][fr.codes[n.Feature].at(r)] < n.Threshold",
		[]string{"internal/mltree TestParentFixture", "internal/core TestSaveModelsGolden"}},
	{"an unstable booster partition", "internal/mltree/boost.go", `	for _, i := range seg {
		if b.codes[s.feat].at(b.row(int(i))) <= s.bin {
			seg[w], w = i, w+1
		} else {
			r = append(r, i)
		}
	}
	copy(seg[w:], r)
`, `	for hi := len(seg) - 1; w <= hi; {
		if b.codes[s.feat].at(b.row(int(seg[w]))) <= s.bin {
			w++
		} else {
			seg[w], seg[hi] = seg[hi], seg[w]
			hi--
		}
	}
	r = seg[w:]
`, []string{"internal/mltree TestParentFixture", "internal/core TestSaveModelsGolden"}},
	{"the exact mode takes a bin's upper value as its threshold", "internal/mltree/boost.go",
		"best.bin, best.thr = prev, (vals[prev]+vals[c])/2", "best.bin, best.thr = prev, vals[prev]",
		[]string{"internal/mltree TestParentFixture", "internal/core TestSaveModelsGolden"}},
	{"per-bin sums reduced in worker order", "internal/mltree/boost.go", `	runWorkers(len(b.all), want, func(_, f int) {
		switch cells, col := l.sums[b.offset[f]:b.offset[f+1]], b.codes[f]; {
		case col.u32 != nil:
			addBins(b, cells, f, seg, col.u32)
		case col.u16 != nil:
			addBins(b, cells, f, seg, col.u16)
		default:
			addBins(b, cells, f, seg, col.u8)
		}
	})
`, `	chunks := 1 + min(len(workerTokens), want-1) // one run of samples per worker free
	parts := make([][]cell, chunks)
	runWorkers(chunks, chunks, func(_, k int) {
		parts[k] = make([]cell, len(l.sums))
		part := seg[k*len(seg)/chunks : (k+1)*len(seg)/chunks]
		for f := range b.all {
			switch cells, col := parts[k][b.offset[f]:b.offset[f+1]], b.codes[f]; {
			case col.u32 != nil:
				addBins(b, cells, f, part, col.u32)
			case col.u16 != nil:
				addBins(b, cells, f, part, col.u16)
			default:
				addBins(b, cells, f, part, col.u8)
			}
		}
	})
	for _, p := range parts {
		for k := range p {
			l.sums[k].g, l.sums[k].h, l.sums[k].n = l.sums[k].g+p[k].g, l.sums[k].h+p[k].h, l.sums[k].n+p[k].n
		}
	}
`, []string{"internal/mltree TestParallelismEquivalenceAllModels"}},
	{"a booster reads the float rows again", "internal/mltree/gbdt.go",
		"\treturn g.fit(ds, \"GBDT\"", "\t_ = ds.Features\n\treturn g.fit(ds, \"GBDT\"",
		[]string{". TestDeletedStaysDeleted"}},

	// One spare ledger per bank, its marks carved from the engine's chunks;
	// GOSS's buffers taken from the fit's scratch.
	{"a mark keeps the later of two isolation times", "internal/sparing/sparing.go",
		"\t\tif held {\n\t\t\tl.marks[i].sec, l.marks[i].nsec = sec, nsec\n\t\t} else {", "\t\tif held {\n\t\t} else {",
		[]string{"internal/sparing TestRowSpareKeepsEarliestTime", "internal/sparing TestLedgerMatchesMapEngine"}},
	{"re-isolating a row at an earlier time costs no spare", "internal/sparing/sparing.go",
		"\t\tl.used++\n\t\tif held {", "\t\tif !held {\n\t\t\tl.used++\n\t\t}\n\t\tif held {",
		[]string{"internal/sparing TestRowSpareKeepsEarliestTime", "internal/sparing TestLedgerMatchesMapEngine"}},
	{"marks compare seconds and drop nsec", "internal/sparing/sparing.go",
		"return s1 < s2 || s1 == s2 && n1 < n2", "return s1 < s2",
		[]string{"internal/sparing TestLedgerMatchesMapEngine"}},
	{"a run that grows loses its last mark", "internal/sparing/sparing.go",
		"l.marks = append(e.carve(n), l.marks...)", "l.marks = append(e.carve(n), l.marks[:len(l.marks)-1]...)",
		[]string{"internal/sparing TestLedgerMatchesMapEngine"}},
	{"a bank with only row marks reads as bank-spared", "internal/sparing/sparing.go",
		"return l.bankNsec != notSpared }", "return l.bankNsec != notSpared || len(l.marks) > 0 }",
		[]string{"internal/sparing TestUsage", "internal/sparing TestLedgerMatchesMapEngine"}},
	{"every bank's run allocated on its own", "internal/sparing/sparing.go",
		"\trun := e.free[:0:n]\n\te.free = e.free[n:]\n\treturn run\n", "\treturn make([]mark, 0, n)\n",
		[]string{"internal/core TestEvaluateAllocsPerBank"}},
	{"the GOSS scale buffer not cleared between rounds", "internal/mltree/histgbdt.go",
		"\tclear(scale)\n", "",
		[]string{"internal/mltree TestGossScratchReuse"}},
	{"GOSS's buffers allocated every round", "internal/mltree/histgbdt.go",
		"g := newGossScratch(fr.n)\n\treturn boost(fr, y, h.Config.Rounds, func(grad, hess []float64) *treeNode {\n",
		"return boost(fr, y, h.Config.Rounds, func(grad, hess []float64) *treeNode {\n\t\tg := newGossScratch(fr.n)\n",
		[]string{"internal/mltree TestHistGBDTFitAllocsPerRound"}},

	// One fleet harness: what the four cluster tests killed before they moved
	// onto the simulated fleet, and what the simulation found.
	{"the router drops the unconsumed suffix on a 503", "internal/cluster/router.go",
		"carry = append(carry, group[consumed:]...)", "_ = consumed",
		[]string{"internal/cluster TestRouterRoutesAndRetriesStaleRing", "internal/cluster TestFleetSimulation"}},
	{"the router never refreshes its ring after a refusal", "internal/cluster/router.go",
		"if staleRing && len(lines) > 0 {", "if staleRing && false {",
		[]string{"internal/cluster TestRouterRoutesAndRetriesStaleRing", "internal/cluster TestFleetSimulation"}},
	{"adopt leaves the server's ownership as it was", "internal/cluster/node.go",
		"a.server.SetOwnership(desc.Epoch, func(key uint64) bool { return ring.Owns(self, key) })", "_ = self",
		[]string{"internal/cluster TestClusterJoinHandoffLeave", "internal/cluster TestSweepRacesConcurrentJoin", "internal/cluster TestFleetSimulation"}},
	{"adopt installs a same-epoch descriptor's ring", "internal/cluster/node.go",
		"\t\treturn a.ring, nil\n\t}\n\ta.epoch = desc.Epoch", "\t}\n\ta.epoch = desc.Epoch",
		[]string{"internal/cluster TestClusterJoinHandoffLeave"}},
	{"a drop drops nothing", "internal/cluster/node.go",
		"n, err := a.engine.DropSessions(func(key uint64) bool { return !ring.Owns(self, key) })",
		"n, err := a.engine.DropSessions(func(key uint64) bool { return false && !ring.Owns(self, key) })",
		[]string{"internal/cluster TestClusterJoinHandoffLeave", "internal/cluster TestSimRegressions", "internal/cluster TestFleetSimulation"}},
	{"a missed drop is never made up", "internal/cluster/node.go", "\t\ta.dropStale(hb.Epoch)\n", "",
		[]string{"internal/cluster TestSimRegressions", "internal/cluster TestFleetSimulation -sim.from=794 -sim.seeds=1"}},
	{"a leave hands the leaver's banks to no one", "internal/cluster/controlplane.go",
		"\tif len(next.Members) > 0 {\n\t\tvar bundle HandoffBundle", "\tif false {\n\t\tvar bundle HandoffBundle",
		[]string{"internal/cluster TestClusterJoinHandoffLeave", "internal/cluster TestFleetSimulation"}},
	{"a takeover reads no journal", "internal/cluster/controlplane.go",
		"return HandoffBundle{Payload: payload, Suffix: recs}, nil", "return HandoffBundle{Payload: payload, Suffix: recs[:0]}, nil",
		[]string{"internal/cluster TestTakeoverDeadNode", "internal/cluster TestSweepRacesConcurrentJoin", "internal/cluster TestFleetSimulation",
			"internal/clitest TestCLIClusterFailover"}},
	{"an import acknowledged before its snapshot", "internal/stream/handoff.go",
		"\tif e.wal != nil && st.Sessions > 0 {\n\t\tif _, err := e.Snapshot(); err != nil {\n\t\t\treturn st, fmt.Errorf(\"stream: persisting imported",
		"\tif false {\n\t\tif _, err := e.Snapshot(); err != nil {\n\t\t\treturn st, fmt.Errorf(\"stream: persisting imported",
		[]string{"internal/cluster TestFleetSimulation"}},
	{"rebalanceJoin drops at the source before the joiner's import is acknowledged", "internal/cluster/controlplane.go",
		"\t\tif err := postJSON(cp.cfg.Client, \"http://\"+joiner.Addr+\"/cluster/v1/import\",",
		"\t\t_ = postJSON(cp.cfg.Client, \"http://\"+src.Addr+\"/cluster/v1/drop\", dropRequest{Desc: next}, nil)\n\t\tif err := postJSON(cp.cfg.Client, \"http://\"+joiner.Addr+\"/cluster/v1/import\",",
		[]string{"internal/cluster TestSimRegressions", "internal/cluster TestFleetSimulation"}},
	{"a takeover whose distribution failed removes the dead member anyway", "internal/cluster/controlplane.go",
		"if err := cp.distribute(next, bundle); err != nil {\n\t\t\t\tcp.abort()",
		"if err := cp.distribute(next, bundle); err != nil && false {\n\t\t\t\tcp.abort()",
		[]string{"internal/cluster TestSimRegressions"}},
	{"a failed topology change's epoch reused", "internal/cluster/controlplane.go",
		"cp.issued = max(cp.issued, cp.epoch) + 1", "cp.issued = cp.epoch + 1",
		[]string{"internal/cluster TestSimRegressions", "internal/cluster TestFleetSimulation"}},
	{"a join keeps what a failed join imported", "internal/cluster/node.go",
		"func(key uint64) bool { return a.provisional[key] }", "func(key uint64) bool { return false && a.provisional[key] }",
		[]string{"internal/cluster TestSimRegressions"}},
	{"an aborted join empties the joiner", "internal/cluster/controlplane.go",
		"\t\tcp.abort()\n\t\thttp.Error(w, err.Error(), http.StatusBadGateway)",
		"\t\tcp.abort()\n\t\t_ = postJSON(cp.cfg.Client, \"http://\"+m.Addr+\"/cluster/v1/drop\", dropRequest{Desc: cp.Descriptor()}, nil)\n\t\thttp.Error(w, err.Error(), http.StatusBadGateway)",
		[]string{"internal/cluster TestSimRegressions"}},
	{"a sweep that leaves no member commits anyway", "internal/cluster/controlplane.go",
		"if len(dead) == 0 || len(dead) == len(cp.members) {", "if len(dead) == 0 {",
		[]string{"internal/cluster TestSimRegressions", "internal/cluster TestFleetSimulation -sim.from=3559 -sim.seeds=1"}},

	// What the simulation's disk step kills: a node's own disk failing a
	// journal append, an import's snapshot or a drop's. The stale mark was
	// found by it (seed 5600 of 10 000); TestSimRegressions replays the
	// shrunk schedule. The ack of an unpersisted import survives 10 000
	// seeds and dies only under its planted schedule there.
	{"a node acknowledges a batch whose journal append failed", "internal/stream/ingest.go",
		"\t\tif first, err = e.wal.AppendBatch(sc.enc, mcelog.WireRecordSize); err != nil {",
		"\t\tif first, err = e.wal.AppendBatch(sc.enc, mcelog.WireRecordSize); err != nil && false {",
		[]string{"internal/cluster TestFleetSimulation", "internal/stream TestCrashProperty", "internal/stream TestCrashPropertyBatched",
			"internal/stream TestCrashPropertyTrained", "internal/stream TestCrashPropertySwap", "internal/stream TestCrashPropertyDDR5",
			"internal/stream TestReadyzFlipsOnWALAppendFailure", "internal/stream TestRecoveryFsyncFailureSurfaces",
			"internal/stream TestRecoveryFailedRotationKeepsAcknowledged", "internal/stream TestStatsSurfaceGoldens"}},
	{"ImportSessions answers 200 when its snapshot failed", "internal/stream/handoff.go",
		"\t\tif _, err := e.Snapshot(); err != nil {\n\t\t\treturn st, fmt.Errorf(\"stream: persisting imported sessions",
		"\t\tif _, err := e.Snapshot(); err != nil && false {\n\t\t\treturn st, fmt.Errorf(\"stream: persisting imported sessions",
		[]string{"internal/cluster TestSimRegressions"}},
	{"an importer marked stale only once its import succeeded", "internal/cluster/node.go",
		"\ta.setStale(true)\n\tst, err := a.engine.ImportSessions(req.Bundle.Payload, req.Bundle.Suffix, owns)\n\tif err != nil {\n\t\thttp.Error(w, err.Error(), http.StatusInternalServerError)\n\t\treturn\n\t}\n",
		"\tst, err := a.engine.ImportSessions(req.Bundle.Payload, req.Bundle.Suffix, owns)\n\tif err != nil {\n\t\thttp.Error(w, err.Error(), http.StatusInternalServerError)\n\t\treturn\n\t}\n\ta.setStale(true)\n",
		[]string{"internal/cluster TestSimRegressions"}},
	{"a disarmed disk keeps failing", "internal/wal/fs.go",
		"\tf.LimitWriteBytes(-1)\n\tf.FailSyncAfter(-1)\n\tf.FailOpens(false)\n", "",
		[]string{"internal/cluster TestFleetSimulation"}},
	{"a retried drop writes no snapshot", "internal/stream/handoff.go",
		"(dropped > 0 || failed != \"\")", "(dropped > 0 || failed != \"\" && false)",
		[]string{"internal/stream TestRetriedDropPersists"}},

	// What the real binaries' smoke kills, one entry per check of
	// TestCLIClusterFailover ("a takeover reads no journal" above is its
	// verdict-loss entry): poison accepted, recovery and availability.
	{"a serve node ingests events that fail validation", "internal/stream/server.go",
		"\tif err := ev.Validate(q.prof.Geometry); err != nil {", "\tif err := ev.Validate(q.prof.Geometry); err != nil && false {",
		[]string{"internal/clitest TestCLIClusterFailover", "internal/cluster TestIngestDoorMatrix",
			"internal/stream TestIngestCodecParity", "internal/stream TestServerJSONLDurableBatchesAppends"}},
	{"the control plane never runs its failure detector", "cmd/cordial-control/main.go",
		"\tgo cp.Run(sweepCtx)\n", "\t_ = sweepCtx\n",
		[]string{"internal/clitest TestCLIClusterFailover"}},
	{"the router sleeps its retry backoff under the ring lock", "internal/cluster/router.go",
		"\t\t\tbackoff(obs.SystemClock{}, nil, attempt-1, rt.cfg.Backoff, backoffCap)\n",
		"\t\t\trt.mu.Lock()\n\t\t\tbackoff(obs.SystemClock{}, nil, attempt-1, rt.cfg.Backoff, backoffCap)\n\t\t\trt.mu.Unlock()\n",
		[]string{"internal/clitest TestCLIClusterFailover"}},
}

// TestMutants plants each catalogued mutant in one copy of the module, in
// turn, and requires each of its tests to fail — to run and fail, not to fail
// to build.
func TestMutants(t *testing.T) {
	root := t.TempDir()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil || p == ".":
			return err
		case d.IsDir() && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir():
			return os.MkdirAll(filepath.Join(root, p), 0o755)
		}
		b, err := os.ReadFile(p)
		if err == nil {
			err = os.WriteFile(filepath.Join(root, p), b, 0o644)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			path := filepath.Join(root, m.file)
			orig, _ := os.ReadFile(path)
			if n := bytes.Count(orig, []byte(m.old)); n != 1 {
				t.Fatalf("%s holds the old text %d times, want once: update the mutant", m.file, n)
			}
			os.WriteFile(path, bytes.Replace(orig, []byte(m.old), []byte(m.new), 1), 0o644)
			defer os.WriteFile(path, orig, 0o644)
			for _, test := range m.tests {
				f := strings.Fields(test)
				cmd := exec.Command("go", append([]string{"test", "-count", "1", "-run", "^" + f[1] + "$", "./" + f[0], "-args"}, f[2:]...)...)
				cmd.Dir = root
				if out, _ := cmd.CombinedOutput(); !bytes.Contains(out, []byte("--- FAIL: "+f[1]+" ")) {
					t.Errorf("the mutant survived %s:\n%s", test, out)
				}
			}
		})
	}
}
