#!/bin/sh
# CI gate: formatting, vet, build, the full test suite, and the same suite
# under the race detector. The race pass is load-bearing — internal/stream
# is a concurrent engine and its tests are written to provoke races.
# The script starts no daemon itself: the real-binary end-to-end checks are
# Go tests (internal/clitest, which launches and probes the daemons through
# its Daemon type).
#
# Usage: scripts/ci.sh [extra go-test args]
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> deleted stays deleted, one library (the type-checked gates of reach_test.go)"
# TestDeletedStaysDeleted's table holds each deletion gate (deleted names, the
# PR, the replacement, structural checks); TestEveryInternalDeclReached fails on
# a declaration under internal/ that no program reaches. Both run in go test ./...
go test -run 'TestDeletedStaysDeleted|TestEveryInternalDeclReached' -count 1 .

echo "==> go vet"
go vet ./...

echo "==> staticcheck"
# Optional deep linting: run when the binary is installed, skip gracefully
# otherwise (hermetic CI containers don't ship it).
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "staticcheck not installed; skipping"
fi

echo "==> go build"
go build ./...

echo "==> go test"
go test ./... "$@"

echo "==> go test -race (parallel-training equivalence focus)"
# Fast-failing race pass over the tests that exercise the shared worker
# pool hardest: parallel-vs-serial equivalence, arena-vs-pointer equivalence
# for all four model kinds, the rank kernel's exactness table, model round-trips
# and batch inference, the model loader's fuzz corpus, the forest workers'
# reused growers at Parallelism 8 (TestForestFitAllocs), the grower against
# its reference, a fit on a view against a fit on a copy for all four kinds
# (TestViewFitMatchesCopyFit) and two forests fitted at once on two views of
# an uncoded dataset (TestConcurrentViewFits: the coded-matrix memo) and the
# row coder against the float matrix's coding (FuzzCodedRows' corpus, and
# TestCodeWidths: columns either side of the one- and two-byte limits), and
# the boosters' bins against a float binner (TestBoostBinsMatchBinner). The
# stored ≡ eager edge banks (first event a UER, a UER at observation 31/32/33,
# a long quiet life, a first UER tied with CEs, a UEO-only bank, spared banks
# fed more) are FuzzBankHistory's seeds, in the store pass below; the full
# -race suite still covers everything, the engine-level restore of quiet banks
# (TestRestoredQuietSessionThenFails) included.
go test -race -run 'Equivalence|Parallel|RoundTrip|Batch|Grower|Boost|ForestFit|Arena|Rank|LoadModel|ViewFit|ConcurrentView|CodedRows|TestCodeWidths' \
    ./internal/mltree/ ./internal/core/
# The stats path's contract, by the same pattern: readers take no shard lock
# and no snapshot lock, a /statsz costs the same at fleet size, the atomic
# totals they read equal a recount after every kind of writer, a stage
# entered from many goroutines still holds ⌈n/64⌉ samples, and the serving
# path reads its counting clock at most 0.1 times an event.
go test -race -run 'TestStatsSurfacesTakeNoShardLock|TestStatszCostIsFlat|TestShardTotalsMatchRecount|TestHistogramMaxCountSumConcurrent|TestStageConcurrentSampling|TestClockReadsPerEvent' \
    ./internal/stream/ ./internal/obs/
# The quiet-bank store, by the same pattern: the seeded model run (a reader
# walks Sessions()/Session() while banks are inserted, appended to, promoted,
# dropped and restored), the packed store's two limit fallbacks (a row field
# wider than a node's, node references exhausted), live ≡ replayed actions for
# events with a zone or a monotonic reading, banks born stored under a shadow
# evaluation scoring as banks born with their twins; the verdict oracle's
# corpus (FuzzBankHistory: every serving form — store or heap, Decide or
# OnEvent, batches, snapshots, restores, handoff imports, a model swap, a
# poisoned row, 1–5 shards, both profiles — against the offline per-bank
# replay); and a bank's row runs against a sorted slice (FuzzRowRuns' corpus).
go test -race -run 'TestStoreModel|TestShadowOverStoredBanks|TestStoreLimitFallbacks|TestLiveActionEqualsReplayed|FuzzBankHistory|FuzzRowRuns' \
    ./internal/stream/ ./internal/rowset/

echo "==> go test -race"
go test -race ./... "$@"

echo "==> crash property (10 000 seeded schedules with power cuts, the first 1 000 under -race)"
# One durable engine and its model registry over one wal.FaultFS: ingest,
# rotations, snapshots, swaps, armed disk faults, power cuts and restarts
# under new shard counts, each boot held to a reference that is never cut.
# go test ./... runs the first 500 seeds; a failure prints its seed and the
# shrunk schedule (rerun with -args -crash.from=SEED -crash.seeds=1).
go test -count 1 -run 'TestCrashProperty' ./internal/stream/ -args -crash.seeds=10000
go test -race -count 1 -run 'TestCrashProperty' ./internal/stream/ -args -crash.seeds=1000

echo "==> fleet simulation (10 000 seeded schedules, the first 1 000 under -race)"
# The real control plane, router and engines on one fake clock over an
# in-process network: joins, leaves, kills, lease expiries, snapshots, ring
# refreshes, one-shot request faults (the router's ingest door among them),
# lost handoff answers, and disk faults (a node's wal.FaultFS failing its
# writes, syncs or opens for one step), each quiescent fleet held to one
# owner per bank and to a standalone engine fed what the fleet acknowledged. go test ./... runs the first 300 seeds; a failure prints its
# seed and the shrunk schedule (rerun with -args -sim.from=SEED -sim.seeds=1).
go test -count 1 -run 'TestFleetSimulation' ./internal/cluster/ -args -sim.seeds=10000
go test -race -count 1 -run 'TestFleetSimulation' ./internal/cluster/ -args -sim.seeds=1000

echo "==> spare ledger property (1 000 seeded schedules, the engine against the map ledger it replaced)"
# Interleaved banks, unsorted and duplicate rows, earlier re-spares, equal
# times, exhausted channels, row budgets 0/1/64/10 000 and times where
# UnixNano overflows: every answer of sparing.Engine equals the reference's.
go test -count 1 -run 'TestLedgerMatchesMapEngine' ./internal/sparing/

echo "==> mutation catalogue (each catalogued defect, planted in a copy of the module, fails its test)"
go test -tags mutants -run TestMutants -count 1 -timeout 30m .

echo "==> clock-driven tests, ten times under -race"
# The cluster and lifecycle tests move time on obs.FakeClock: a heartbeat, a
# sweep, a shadow timeout or a retrain cooldown passes when a test advances the
# clock, never when a sleep runs out, so a test still timed by the wall clock
# shows up here as a flake. The fleet simulation has its own leg above.
go test -race -count=10 -skip TestFleetSimulation ./internal/cluster/ ./internal/lifecycle/

echo "==> real-binary e2e (daemon, retraining, boot-kill-restart, cluster failover, ddr5-dimm CLI)"
# Real binaries, started and probed through clitest's Daemon; one test binary, so
# the eight commands build once. TestCLIServeEndToEnd: readiness, JSONL and wire
# ingest counts, the /metrics series, cordial-study counting the events the
# daemon accepted from the same wire file, the drain report on SIGTERM.
# TestCLIServeRetraining: drift -> retrain -> shadow -> promote with /readyz 200
# throughout and the candidate ahead on the shadow scoreboard.
# TestCLIServeCrashRecovery: periodic snapshots, more ingest, a SIGKILL, then a
# restart over the same -wal-dir from the snapshot and the journal converges
# to the actions of an uninterrupted reference run. TestCLIServePeriodicSnapshot:
# a SIGKILL after periodic snapshots of the whole log restarts from a snapshot
# that covers every event.
# TestCLIClusterFailover, the one real-process failure smoke: three nodes behind
# cordial-router, one SIGKILLed while the second half arrives as wire frames and
# poison hits the front door; zero verdict loss (the deduplicated action set
# equals a single-node reference), zero poison accepted, recovery within 30 s
# and router /readyz availability >= 0.85 at a 100 ms probe. TestCLITruthGolden: gen -> train -errbits ->
# predict and a transfer study under ddr5-dimm. All run in `go test ./...` too;
# this labeled pass keeps them visible.
go test -run 'TestCLIServeEndToEnd|TestCLIServeRetraining|TestCLIServeCrashRecovery|TestCLIServePeriodicSnapshot|TestCLIClusterFailover|TestCLITruthGolden' \
    -count 1 ./internal/clitest/

echo "==> fuzz smoke (every fuzz target, 5s each)"
# Every decoder of persisted or peer bytes has a fuzz target — the log readers
# and wire-frame decoder, the address parser and packer, the WAL record,
# bank-state, session-image, snapshot-payload and journal-record decoders, the
# handoff envelope, model files, registry artefacts and the metrics scraper —
# and so do the incremental-feature equivalence and the
# ring placement properties. Each target's doc comment states what it holds
# to; 5 s each searches past its seeds. The targets are listed per package by
# `go test -list`, so a new one is fuzzed here without an edit.
for pkg in $(go list ./...); do
	for target in $(go test -list '^Fuzz' "$pkg" | grep '^Fuzz'); do
		echo "--> $target ($pkg)"
		go test -run '^$' -fuzz "^$target\$" -fuzztime 5s "$pkg"
	done
done

echo "==> bench smoke (1 iteration)"
go test -run '^$' -bench . -benchtime 1x ./...

echo "==> binary ingest perf gate (steady-state decode allocates nothing)"
# The zero-allocation claim for the hot decode loop is pinned by an
# AllocsPerRun test, not just a benchmark — run it by name so a regression
# fails CI with a direct message rather than a drifting BENCH number.
go test -run 'TestWireDecodeZeroAllocs' -count 1 ./internal/mcelog/

echo "==> generator perf gate (a benign bank is 1 allocation, a sampled faulty bank <= 10; fleets merge the banks' sorted runs, on first Log())"
# Each simulated bank sorts its own event slice once, in place, and the
# fleet log is one k-way merge of those runs; the allocation test pins the
# first, and the merge property test pins that the merge is exactly the
# stable sort of the concatenation it replaced. Generate merges nothing: the
# first Fleet.Log() call does, once however many goroutines ask, and then
# releases the runs (under -race, so a second merge or an unguarded one shows).
go test -run 'TestGenerateAllocsPerBank' -count 1 ./internal/faultsim/
go test -run 'TestMergeIsStableSortOfConcatenation' -count 1 ./internal/mcelog/
go test -race -run 'TestFleetLogOnFirstRead' -count 1 ./internal/trace/

echo "==> ingest path gate (one journal append per JSONL chunk; a shed event is never journaled; every door answers alike)"
# The one ingest path's contracts that a refactor breaks silently: both
# HTTP codecs reach the engine in chunks, so 3 000 JSONL lines on a
# SyncAlways node cost <= 4 fsyncs, not 3 000; on a journaled engine under
# the drop policy admission precedes the append, so a restart replays
# exactly the events that were accepted; the two codecs leave the same
# engine and counts behind; and the four doors (a serve node's two routes,
# the router's two) give one answer per body. The door tests then run again
# under the race detector, as the one body reader is pooled across requests.
go test -run 'TestServerJSONLDurableBatchesAppends|TestDurableDropNeverResurrects|TestIngestCodecParity|TestIngestDoorMatrix' \
    -count 1 ./internal/stream/ ./internal/cluster/
go test -race -run 'TestServer|TestIngestCodecParity|TestIngestDoorMatrix|TestRouter' \
    -count 1 ./internal/stream/ ./internal/cluster/

echo "==> block inference perf gate (a window prediction allocates only its result; the engine's verdict hand-off makes no garbage)"
# Same idea for the §IV-D hot path: one warmed PredictBlocksState may
# allocate the probabilities it returns and nothing else, a predicting
# OnEvent only its Decision, and a predicting Decide into a reused buffer
# nothing but row-set growth, with the default 80-tree forest. On a warmed
# engine a predicting fold — Decide into the shard's buffer, fresh rows
# carved from its slab — makes ≤ 0.05 mallocs (0.02 measured; four more
# before the buffered hand-off).
go test -run 'TestPredictBlocksStateAllocs' -count 1 ./internal/core/
go test -run 'TestPredictingFoldAllocs' -count 1 ./internal/stream/

echo "==> training perf gate (a forest fit allocates ≤ 0.25 per tree and a per-fit term, never per node, and as much for 128 trees as for 16 over one dataset; a Pipeline.Fit ≤ 4.28 MB in ≤ 429 allocations; a HistGBDT round ≤ 253.5 mallocs and 33 000 B; evaluation ≤ 3.2 mallocs and 4 800 B per bank)"
# The lifecycle refits the forests inside cordial-serve, so training garbage
# lands on the serving heap: the default 80-tree forest on 2 100 rows may
# allocate its members' share of its growers' stores plus a per-fit term
# (value codes, one grower per worker, arena) — ≈ 166 allocations where the
# presorted-list trainer made 207 664 — and one default Pipeline.Fit on 120
# banks at most 4.28 MB and 429 allocations; the dataset builders and the
# evaluators fold every bank through one reset feature state, and spare rows
# into one ledger per bank carved from the sparing engine's chunks; a
# LightGBM round takes GOSS's buffers from its fit's scratch and dedupes its
# draw in the draw's own buffer.
go test -run 'TestForestFitAllocs|TestHistGBDTFitAllocsPerRound|TestGossScratchReuse|TestFitTransientBytes|TestEvaluateAllocsPerBank' -count 1 ./internal/mltree/ ./internal/core/

echo "==> inference memory/exactness gate (≤ 24 B of heap per tree node; files and predictions as the parent commit's)"
# A fitted model lives in memory once, as a rank-quantised arena: the default
# pipeline's live heap per tree node is pinned by a HeapAlloc delta, a fit's
# allocation counts stay where the training gate above put them, and the arena
# may not change one tree in a model file (TestSaveModelsGolden: all three
# backends at Parallelism 1 and 8, one file for both; TestParentFixture: all
# four kinds' files and predictions from before the arena existed, and the
# refit of all but GBDT; XGBoost's hashes moved once, when its gradient sums
# went per value code) or one bit of a prediction on the values
# where rank and float comparison could part (TestRankKernelExactness); the
# block dataset, coded as it is built, reads back the rows the commit before
# that built as floats (TestBuildBlockDatasetGolden).
go test -run 'TestModelHeapPerNode|TestSaveModelsGolden|TestForestFitAllocs|TestParentFixture|TestRankKernelExactness|TestBuildBlockDatasetGolden' \
    -count 1 ./internal/core/ ./internal/mltree/

echo "==> bytes per bank gate (BankState ≤ 968 B, a promoted bank is one allocation: its session ≤ 1 KiB with the state and its first 16 rows inside; a hot bank ≤ 2 mallocs, a promoted bank's restore ≤ 13.5; bankSession ≤ 144 B, store slot 24 B and node 16 B, queue entry ≤ 32 B, a quiet bank ≤ 160 B and ≤ 0.1 mallocs in the engine, ≤ 0.2 mallocs to restore, ≤ 0.05 to snapshot, a promotion ≤ 10 mallocs, a bank address ≤ 16 B, a cell address ≤ 32 B, an event ≤ 64 B, an action ≤ 80 B, a journaled 2-shard batch ≤ 2 mallocs)"
# A fleet engine holds every bank that ever logged an error, so bytes per
# tracked bank is its memory bill. A promoted bank is one allocation: its
# session holds the feature state, and the state its per-row table's first 16
# entries, which every hot_banks bank but a few fits — counted over a whole
# hot-bank lifetime through the shard step and over a warmed engine's, and
# over a restore of such banks from a snapshot. The struct sizes are pinned by
# unsafe.Sizeof (and the store's slot and node and a shard queue's entry hold
# no Go pointer), the whole
# per-bank cost (index entry, slot and seven observation nodes in the shard's
# store, every chunk's slack included — a quiet bank owns no session and no
# feature state) by a HeapAlloc/Mallocs delta over 20 000 CE-only banks under
# the default Cordial strategy, born live and born under a shadow evaluation
# (stored too: the twin waits for the promotion), a snapshot of those banks (encoded from their
# chains into one arena, no session built) and a restore or import of it by
# Mallocs deltas and byte-identical payloads, and a promotion at a bank's first
# UER by its malloc count. The verdict record every consumer copies is pinned
# too — hbm.BankAddress ≤ 16 B, stream.Action ≤ 80 B — as is the record every
# reader, sort and validator moves (hbm.Address ≤ 32 B, mcelog.Event ≤ 64 B),
# and a warmed journaled IngestBatch over two shards allocates only its
# group-commit window (≤ 2).
go test -run 'TestBankStateSize|TestSessionSizeClass|TestPromotedBankAllocs|TestHotBankAllocs|TestRestoreHeapBanksAllocation|TestSessionHeapPerBank|TestStoreLayout|TestRestoreQuietBanksAllocation|TestSnapshotQuietBanksAllocation|TestPromotionAllocs|TestBankAddressSize|TestAddressSize|TestEventSize|TestActionSize|TestDurableBatchAllocs' -count 1 \
    ./internal/features/ ./internal/core/ ./internal/hbm/ ./internal/mcelog/ ./internal/stream/

echo "==> repository benchmark smoke (5 % scale, every workload, manifest check)"
# bench/ is a module of its own, so the root `go test ./...` never sees it;
# its tests run every workload at 5 % scale through the correctness gate and
# check BENCHMARK.json against the metrics the program prints.
(cd bench && go test ./...)

echo "==> topology matrix (profile registry, wire round-trips, cross-profile gates)"
# Every registered profile must validate and round-trip packed addresses
# through the wire codec allocation-free (TestWireProfileMatrix iterates
# the registry) and banks through their key, UnpackBank, CellInBank and JSON
# (TestBankAddressRoundTrip), and a two-profile transfer study must reproduce
# its golden. The ddr5-dimm oracle and crash-property runs are not repeated
# here: they ran under `go test -race ./...` above, in the same process as
# hbm2e's, and TestTwoProfilesOneProcess feeds the two profiles at once.
go test -run 'TestRegisteredProfiles|PackUnpackRoundTrip|TestWireProfileMatrix|TestBankAddressRoundTrip' \
    -count 1 ./internal/hbm/ ./internal/mcelog/
go test -run 'TestTransferSmoke' -count 1 ./internal/experiments/
# The real-binary ddr5-dimm runs are TestCLITruthGolden's, in the e2e leg.

echo "==> ok"
