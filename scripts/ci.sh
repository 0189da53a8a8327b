#!/bin/sh
# CI gate: formatting, vet, build, the full test suite, and the same suite
# under the race detector. The race pass is load-bearing — internal/stream
# is a concurrent engine and its tests are written to provoke races.
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

echo "==> one instrument set (what obs.Histogram and EngineStats replaced stays deleted)"
# The second latency instrument, its quantile estimator, /statsz's mirror
# structs, the lock-taking gauge closure, the second exposition-line parser
# and the offline Trainer were each deleted for one remaining implementation;
# a name coming back means a duplicate came back with it.
if grep -rn "latencySampler\|nearestRank\|jsonLatency\|jsonShadow\|shardSum\|validateLabelBlock\|NewTrainer" \
    --include=*.go internal cmd cordial.go; then
    echo "a deleted duplicate is back (see the matches above)" >&2
    exit 1
fi

echo "==> one bank index (the session map the store replaced stays deleted)"
# A shard's bankStore is its only index of its banks; a second one beside it
# is a second thing to keep in step. Tests may still model one with a map.
if grep -rn "map\[uint64\]\*bankSession" --include=*.go internal/stream | grep -v "_test\.go:"; then
    echo "a session map is back beside the store (see the matches above)" >&2
    exit 1
fi

echo "==> one pack per event (the engine queues, journals and folds the record)"
# IngestBatch packs each event into its record once; the shard step keys it
# with one AND and the journal step copies its bytes. A bank key or a wire
# record computed again inside either is the second pack coming back. A gate
# whose functions are gone would pass by matching nothing, so both must exist.
for fn in 'func (st *shardState) step(' 'func (e *Engine) journalBatch('; do
    if ! grep -qF "$fn" internal/stream/*.go; then
        echo "the pack gate's target is gone: $fn" >&2
        exit 1
    fi
done
if awk '/^func \(st \*shardState\) step\(|^func \(e \*Engine\) journalBatch\(/,/^}/' internal/stream/*.go \
    | grep -n "BankKey(\|AppendWireRecord("; then
    echo "step or journalBatch packs an event again (see the matches above)" >&2
    exit 1
fi

echo "==> one fold (live ingest, boot replay and handoff import all fold through shardState.step)"
# Live ingest, boot replay and handoff import all run one fold: the
# names of the copies it replaced must not come back, the step is the only
# code with a recover around a primary strategy call (the shadow twin keeps
# its own), and it takes no lock, starts no goroutine and reads the clock only
# for the histogram its caller passes.
if grep -rn "foldDetached\|quarantineDetached\|resetSessions" --include=*.go internal/stream; then
    echo "a second fold is back (see the matches above)" >&2
    exit 1
fi
if grep -n "recover()" internal/stream/*.go | grep -v "_test\.go:\|/shard\.go:\|/shadow\.go:"; then
    echo "a recover outside the shard step (see the matches above)" >&2
    exit 1
fi
if awk '/time\.Now\(/ && prev !~ /proc != nil \{$/ || /sync\./ || /^[[:space:]]*go / { print FILENAME ":" FNR ": " $0; bad = 1 }
        { prev = $0 }
        END { exit !bad }' internal/stream/shard.go; then
    echo "shard.go locks, starts a goroutine or reads a clock outside the histogram's nil check (see the matches above)" >&2
    exit 1
fi

echo "==> one quiet tier (the engine's store; a core session is always eager)"
# A bank that has logged no UER is kept as observations in one place, its
# shard's store. Core's own deferral, the footprint that mirrored it and the
# interfaces that joined the two tiers must not come back, and QuietStrategy
# keeps its one method, ResumeSession.
if grep -rnE "maxPending|pendingStart|QuietSession|QuietLog\(|DeferredFootprint|(^|[^[:alnum:]_])Deferred:" \
    --include=*.go internal | grep -v "_test\.go:"; then
    echo "a second quiet tier is back (see the matches above)" >&2
    exit 1
fi
methods=$(awk '/^type QuietStrategy interface \{/,/^\}/' internal/core/pipeline.go | grep -cE '^[[:space:]]+[A-Z][[:alnum:]]*\(')
if [ "$methods" != 1 ]; then
    echo "core.QuietStrategy declares $methods methods, want ResumeSession alone" >&2
    exit 1
fi

echo "==> one coded training matrix (classification training transposes nothing)"
# A dataset is value-coded once and every Tree or Forest fit, on it or on a
# view of it, grows over those codes; the float64 transpose belongs to the
# boosting trainer (gbdt.go), which reads a feature's values at every node.
if grep -rn "columnize(" --include=*.go internal/mltree | grep -v "_test\.go:\|/gbdt\.go:"; then
    echo "columnize is called outside the boosting trainer (see the matches above)" >&2
    exit 1
fi

echo "==> one library, the programs' (no declaration under internal/ that only tests reach)"
# The library reached by no program was deleted with the tests that only
# exercised it; TestEveryInternalDeclReached keeps it gone. It type-checks the
# module and bench/ from source and fails, with file:line and name, on any
# non-test declaration under internal/ that cmd/, examples/, bench/ and the
# root package do not reach, outside its short commented keep-list — and on a
# keep-list entry that no longer exists. It runs inside `go test ./...` too.
go test -run 'TestEveryInternalDeclReached' -count 1 .

echo "==> only the knobs programs turn (deleted learner and serving options stay deleted)"
# Every learner option core.NewModel left at its default became a constant,
# and the code only another value ran was deleted with it: entropy splits,
# early stopping, class weighting, GOSS's off-switch, GBDT's presort cache and
# the forest's unread out-of-bag pass. Serving options nothing set went the
# same way. A name coming back outside tests and docs means an option, or the
# code behind it, came back.
if grep -rnwE "Entropy|Criterion|EarlyStopRounds|PositiveWeight|TopRate|oobScore|copyLists|rootSorted|NoGroupCommit|MaxLineBytes|MaxBatchErrors" \
    --include=*.go internal cmd examples bench cordial.go | grep -v "_test\.go:"; then
    echo "a deleted option is back (see the matches above)" >&2
    exit 1
fi

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
# an uncoded dataset (TestConcurrentViewFits: the coded-matrix memo). The
# stored ≡ eager edge banks (first event a UER, a UER at observation 31/32/33,
# a long quiet life, a first UER tied with CEs, a UEO-only bank, spared banks
# fed more) run in TestQuietStoreEquivalence, in the store pass below; the full
# -race suite still covers everything, the engine-level restore of quiet banks
# (TestRestoredQuietSessionThenFails) included.
go test -race -run 'Equivalence|Parallel|RoundTrip|Batch|Grower|ForestFit|Arena|Rank|LoadModel|ViewFit|ConcurrentView' \
    ./internal/mltree/ ./internal/core/
# The stats path's contract, by the same pattern: readers take no shard lock
# and no snapshot lock, a /statsz costs the same at fleet size, and the atomic
# totals they read equal a recount after every kind of writer.
go test -race -run 'TestStatsSurfacesTakeNoShardLock|TestStatszCostIsFlat|TestShardTotalsMatchRecount|TestHistogramMaxCountSumConcurrent' \
    ./internal/stream/ ./internal/obs/
# The quiet-bank store, by the same pattern: the seeded model run (a reader
# walks Sessions()/Session() while banks are inserted, appended to, promoted,
# dropped and restored), the store ≡ heap-form engine equivalence, the packed
# store's two limit fallbacks (a row field wider than a node's, node references
# exhausted), live ≡ replayed actions for events with a zone or a monotonic
# reading, banks born stored under a shadow evaluation scoring as banks born
# with their twins; and the shard step's seeded interleavings of batches, snapshots,
# restores, handoff imports, a model swap and a poisoned row.
go test -race -run 'TestStoreModel|TestQuietStoreEquivalence|TestShadowOverStoredBanks|TestStoreLimitFallbacks|TestLiveActionEqualsReplayed|TestShardStepInterleavings' ./internal/stream/

echo "==> go test -race"
go test -race ./... "$@"

echo "==> crash-restart e2e (SIGKILL mid-ingest, recover, converge)"
# Kills a live cordial-serve with SIGKILL halfway through an ingest and
# asserts a restart over the same -wal-dir converges to the exact action
# set of an uninterrupted reference run. Runs inside `go test ./...` too;
# this labeled pass keeps the durability guarantee visible in CI output.
go test -run 'TestCLIServeCrashRecovery' -count 1 ./internal/clitest/

echo "==> cluster failover e2e (3 nodes + router, SIGKILL one, zero verdict loss)"
# Three serve nodes behind cordial-router, one SIGKILLed mid-stream. The
# control plane rebuilds the victim's sessions from its journal onto the
# survivors; the test asserts the cluster's deduplicated action set equals
# a single-node reference exactly — no verdict lost, none invented.
go test -run 'TestCLIClusterFailover' -count 1 ./internal/clitest/

echo "==> fuzz smoke (incremental feature equivalence, 5s)"
# Short fuzzing pass over the incremental-vs-batch feature equivalence
# property; the seed corpus alone already covers the known-tricky cutoff
# and timestamp-tie shapes, the extra seconds search for new ones.
go test -run '^$' -fuzz 'FuzzIncrementalFeatureEquivalence' -fuzztime 5s \
    ./internal/features/

echo "==> fuzz smoke (bank-state snapshot decoder, 5s)"
# The state holds rows, counts and times in fewer bits than the snapshot
# layout and binary-searches its row tables: arbitrary bytes must decode to
# an error or to a state that re-encodes to exactly the input — never a
# truncated value, an unsorted table, or a panic. Seeded with real v1 and v2
# images.
go test -run '^$' -fuzz 'FuzzUnmarshalBankState' -fuzztime 5s \
    ./internal/features/

echo "==> fuzz smoke (Cordial session image decoder, 5s)"
# Session images come from disk and from peers (handoff): arbitrary bytes
# must be refused or restore to a session that survives further events. A
# quiet image restores as the session its logged events build and re-encodes
# through AppendQuietImage to exactly the input; any other image re-encodes to
# exactly the input. Seeded with version-1 and version-2 images.
go test -run '^$' -fuzz 'FuzzRestoreSession' -fuzztime 5s ./internal/core/

echo "==> fuzz smoke (WAL record decoder, 5s)"
# The decoder must classify arbitrary bytes as a record, a clean torn
# tail, or corruption — never panic, never over-read.
go test -run '^$' -fuzz 'FuzzWALDecode' -fuzztime 5s ./internal/wal/

echo "==> fuzz smoke (consistent-hash ring placement, 5s)"
# Routing correctness rests on two ring properties: every participant
# that knows the descriptor computes the identical owner for every bank,
# and membership changes move at most ≈1/N of keys.
go test -run '^$' -fuzz 'FuzzRingPlacement' -fuzztime 5s ./internal/cluster/

echo "==> fuzz smoke (binary wire-frame decoder, 5s)"
# The frame decoder sits on the network edge: arbitrary bytes must come
# back as decoded records, a framing error, or clean EOF — never a panic,
# an over-read, or a record that a re-encode wouldn't reproduce.
go test -run '^$' -fuzz 'FuzzBinaryFrameDecode' -fuzztime 5s ./internal/mcelog/

echo "==> fuzz smoke (log file reader, 5s)"
# ReadLog reads every log file, sniffing wire frames from JSON Lines, and
# checks each record as it goes (nothing validates a file's events
# afterwards): arbitrary bytes must never panic, and whatever decodes must
# re-encode through WriteWire to the same events.
go test -run '^$' -fuzz 'FuzzReadLog' -fuzztime 5s ./internal/mcelog/

echo "==> fuzz smoke (model file loader, 5s)"
# A model file is operator input (-models, the registry, SIGHUP reloads):
# arbitrary bytes must be refused or load to a model that predicts a row as
# wide as it says it needs — never one that loads and panics at the first
# prediction. Seeded with files of all four kinds written before models
# compiled to an arena, a forest with class-missing members among them.
go test -run '^$' -fuzz 'FuzzLoadModel' -fuzztime 5s ./internal/mltree/

echo "==> fuzz smoke (exposition text scraper, 5s)"
# ParseText reads a peer's /metrics (the chaos harness asserts SLOs on it):
# arbitrary bytes must never panic, the parser and ValidateLine must agree on
# every line, and an accepted payload's samples must survive re-rendering.
go test -run '^$' -fuzz 'FuzzParseText' -fuzztime 5s ./internal/obs/

echo "==> fuzz smoke (engine snapshot / handoff payload decoder, 5s)"
# decodeSnapshotSessions reads snapshot files a crash may have left and the
# session bundle a peer hands over: arbitrary bytes must never panic, and an
# accepted payload must re-encode to one that decodes to the same images.
# Seeded with the TestEngineSnapshotGolden image and its version-1 layout.
go test -run '^$' -fuzz 'FuzzDecodeSnapshotSessions' -fuzztime 5s ./internal/stream/

echo "==> fuzz smoke (journal / handoff-suffix record decoder, 5s)"
# decodeJournalRecord reads the journal at boot and the record suffix a peer
# hands over (JSON, no checksum): arbitrary bytes must never panic, an
# accepted event or swap record must re-encode to its input, and only a
# 19-byte event record or a 12-byte CSWP record is ever accepted.
go test -run '^$' -fuzz 'FuzzDecodeJournalRecord' -fuzztime 5s ./internal/stream/

echo "==> fuzz smoke (handoff bundle envelope, 5s)"
# handleImport reads a peer's JSON envelope around the snapshot payload and
# journal suffix: arbitrary bytes must never panic the agent, an envelope that
# does not decode must answer 4xx, and a refused bundle must install no
# session. Seeded with a real export and truncations of it.
go test -run '^$' -fuzz 'FuzzHandoffEnvelope' -fuzztime 5s ./internal/cluster/

echo "==> fuzz smoke (registry artefact decoder, 5s)"
# DecodeArtifact reads the model store at boot and whatever an operator
# imports: arbitrary bytes must never panic, and an accepted artefact written
# back must decode to the same model bytes and re-encode to itself (the
# checksum tail is resealed when the input asks, so mutations reach the header
# and metadata checks). Seeded with WriteArtifact output.
go test -run '^$' -fuzz 'FuzzDecodeArtifact' -fuzztime 5s ./internal/registry/

echo "==> fuzz smoke (chaos scenario YAML parser, 5s)"
# parseYAML is a hand-rolled YAML subset reading operator-written scenario
# files: arbitrary bytes must return — no panic, no line it stops consuming —
# with only the value shapes the scenario decoder handles. Seeded with every
# checked-in scenario, whose plan digests TestScenarioPlanDigests pins.
go test -run '^$' -fuzz 'FuzzParseYAML' -fuzztime 5s ./internal/chaos/

echo "==> bench smoke (1 iteration)"
go test -run '^$' -bench . -benchtime 1x ./...

echo "==> binary ingest perf gate (steady-state decode allocates nothing)"
# The zero-allocation claim for the hot decode loop is pinned by an
# AllocsPerRun test, not just a benchmark — run it by name so a regression
# fails CI with a direct message rather than a drifting BENCH number.
go test -run 'TestWireDecodeZeroAllocs' -count 1 ./internal/mcelog/

echo "==> ingest path gate (one journal append per JSONL chunk; a shed event is never journaled)"
# The one ingest path's two contracts that a refactor breaks silently: both
# HTTP codecs reach the engine in chunks, so 3 000 JSONL lines on a
# SyncAlways node cost <= 4 fsyncs, not 3 000; and on a journaled engine
# under the drop policy admission precedes the append, so a restart replays
# exactly the events that were accepted. (The full -race pass above runs
# both under the race detector.)
go test -run 'TestServerJSONLDurableBatchesAppends|TestDurableDropNeverResurrects' \
    -count 1 ./internal/stream/

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

echo "==> training perf gate (a forest fit allocates per tree and per fit, never per node; a Pipeline.Fit ≤ 12 MB)"
# The lifecycle refits the forests inside cordial-serve, so training garbage
# lands on the serving heap: the default 80-tree forest on 2 100 rows may
# allocate each member's generator, node array and probability array plus a
# per-fit term (value codes, one grower per worker, arena)
# — 414 allocations where the presorted-list trainer made 207 664 — and one
# default Pipeline.Fit on 120 banks, its three forest fits over two coded
# datasets, at most 12 MB in all (10.5 measured; 19.1 when each fit
# transposed, presorted and coded its own copy).
go test -run 'TestForestFitAllocs|TestFitTransientBytes' -count 1 ./internal/mltree/ ./internal/core/

echo "==> inference memory/exactness gate (≤ 24 B of heap per tree node; files and predictions as the parent commit's)"
# A fitted model lives in memory once, as a rank-quantised arena: the default
# pipeline's live heap per tree node is pinned by a HeapAlloc delta, a fit's
# allocation counts stay where the training gate above put them, and the arena
# may not change one tree in a model file (TestSaveModelsGolden: all three
# backends at Parallelism 1 and 8, one file for both, equal to the files
# written before the learner options became constants once their keys are
# dropped; TestParentFixture: all four kinds against files and predictions
# written before the arena existed) or one bit of a prediction on the values
# where rank and float comparison could part (TestRankKernelExactness).
go test -run 'TestModelHeapPerNode|TestSaveModelsGolden|TestForestFitAllocs|TestParentFixture|TestRankKernelExactness' \
    -count 1 ./internal/core/ ./internal/mltree/

echo "==> bytes per bank gate (BankState ≤ 1 KiB, bankSession ≤ 144 B, store slot 24 B and node 16 B, queue entry ≤ 32 B, a quiet bank ≤ 160 B and ≤ 0.1 mallocs in the engine, ≤ 0.2 mallocs to restore, ≤ 0.05 to snapshot, a promotion ≤ 10 mallocs)"
# A fleet engine holds every bank that ever logged an error, so bytes per
# tracked bank is its memory bill. The struct sizes are pinned by
# unsafe.Sizeof (and the store's slot and node and a shard queue's entry hold
# no Go pointer), the whole
# per-bank cost (index entry, slot and seven observation nodes in the shard's
# store, every chunk's slack included — a quiet bank owns no session and no
# feature state) by a HeapAlloc/Mallocs delta over 20 000 CE-only banks under
# the default Cordial strategy, born live and born under a shadow evaluation
# (stored too: the twin waits for the promotion), a snapshot of those banks (encoded from their
# chains into one arena, no session built) and a restore or import of it by
# Mallocs deltas and byte-identical payloads, and a promotion at a bank's first
# UER by its malloc count.
go test -run 'TestBankStateSize|TestSessionHeapPerBank|TestStoreLayout|TestRestoreQuietBanksAllocation|TestSnapshotQuietBanksAllocation|TestPromotionAllocs' -count 1 \
    ./internal/features/ ./internal/stream/

echo "==> repository benchmark smoke (5 % scale, every workload, manifest check)"
# bench/ is a module of its own, so the root `go test ./...` never sees it;
# its tests run every workload at 5 % scale through the correctness gate and
# check BENCHMARK.json against the metrics the program prints.
(cd bench && go test ./...)

echo "==> topology matrix (profile registry, wire round-trips, cross-profile gates)"
# Every registered profile must validate and round-trip packed addresses
# through the wire codec allocation-free (TestWireProfileMatrix iterates
# the registry); the equivalence gates then re-run under ddr5-dimm, and a
# two-profile transfer study must complete end to end.
go test -run 'TestRegisteredProfiles|PackUnpackRoundTrip|TestWireProfileMatrix' \
    -count 1 ./internal/hbm/ ./internal/mcelog/
go test -run 'DDR5' -count 1 ./internal/stream/
go test -run 'TestTransferSmoke' -count 1 ./internal/experiments/
topodir=$(mktemp -d)
go run ./cmd/cordial-gen -topology ddr5-dimm -seed 9 -uer-banks 30 -benign-banks 20 \
    -log "$topodir/ddr5.mcelog" -truth "$topodir/ddr5-truth.json" >/dev/null
go run ./cmd/cordial-train -topology ddr5-dimm -errbits -trees 10 \
    -truth "$topodir/ddr5-truth.json" -out "$topodir/ddr5-models.json" >/dev/null
go run ./cmd/cordial-predict -topology ddr5-dimm -models "$topodir/ddr5-models.json" \
    -log "$topodir/ddr5.mcelog" | grep -q '^classified ' \
    || { echo "ddr5 predict smoke failed" >&2; exit 1; }
go run ./cmd/cordial-study -transfer hbm2e,ddr5-dimm -transfer-banks 40 -transfer-trees 8 \
    | grep -q 'baseline' || { echo "transfer study smoke failed" >&2; exit 1; }
rm -rf "$topodir"

echo "==> daemon smoke (/readyz + /metrics over a live cordial-serve)"
# Boots the daemon, waits for readiness, ingests a small batch, and asserts
# the observability endpoints: /readyz reports ready, /metrics is Prometheus
# text whose ingest counter matches what was accepted.
smokedir=$(mktemp -d)
serve_pid=""
cluster_pids=""
cleanup_smoke() {
    if [ -n "$serve_pid" ]; then
        kill "$serve_pid" 2>/dev/null || true
        wait "$serve_pid" 2>/dev/null || true
    fi
    for pid in $cluster_pids; do
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$smokedir"
}

# wait_addr <logfile> <pid>: block until the daemon logs its resolved
# listen address (the msg=listening contract), echo it.
wait_addr() {
    _addr=""
    _i=0
    while [ $_i -lt 600 ]; do
        _addr=$(sed -n 's/.*msg=listening addr=\([^ ]*\).*/\1/p' "$1" | head -n 1)
        [ -n "$_addr" ] && break
        if ! kill -0 "$2" 2>/dev/null; then
            echo "daemon exited during startup:" >&2
            cat "$1" >&2
            exit 1
        fi
        sleep 0.2
        _i=$((_i + 1))
    done
    if [ -z "$_addr" ]; then
        echo "daemon never logged its address:" >&2
        cat "$1" >&2
        exit 1
    fi
    echo "$_addr"
}
trap cleanup_smoke EXIT
go build -o "$smokedir/cordial-serve" ./cmd/cordial-serve
"$smokedir/cordial-serve" -selftrain -seed 3 -train-banks 20 -trees 5 \
    -addr 127.0.0.1:0 -log-format text >"$smokedir/serve.log" 2>&1 &
serve_pid=$!
addr=""
i=0
while [ $i -lt 600 ]; do
    addr=$(sed -n 's/.*msg=listening addr=\([^ ]*\).*/\1/p' "$smokedir/serve.log" | head -n 1)
    [ -n "$addr" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "cordial-serve exited during startup:" >&2
        cat "$smokedir/serve.log" >&2
        exit 1
    fi
    sleep 0.2
    i=$((i + 1))
done
if [ -z "$addr" ]; then
    echo "cordial-serve never logged its address:" >&2
    cat "$smokedir/serve.log" >&2
    exit 1
fi
curl -fsS "http://$addr/readyz" | grep -q '"ready": true' \
    || { echo "readyz not ready" >&2; exit 1; }
printf '%s\n%s\n%s\n' \
    '{"time":"2026-01-01T00:00:00Z","addr":"n0.u0.h0.s0.c0.p0.g0.b0.r1.col1","class":"UER"}' \
    '{"time":"2026-01-01T00:00:01Z","addr":"n0.u0.h0.s0.c0.p0.g0.b0.r2.col1","class":"CE"}' \
    '{"time":"2026-01-01T00:00:02Z","addr":"n0.u0.h0.s0.c0.p0.g0.b1.r1.col1","class":"UER"}' \
    | curl -fsS -X POST --data-binary @- "http://$addr/v1/events" \
    | grep -q '"accepted": 3' || { echo "ingest smoke failed" >&2; exit 1; }
curl -fsS "http://$addr/metrics" >"$smokedir/metrics.txt"
grep -q '^cordial_ingest_accepted_total 3$' "$smokedir/metrics.txt" \
    || { echo "metrics missing ingest counter:" >&2; cat "$smokedir/metrics.txt" >&2; exit 1; }
grep -q '^# TYPE cordial_process_seconds histogram$' "$smokedir/metrics.txt" \
    || { echo "metrics missing process histogram" >&2; exit 1; }
# Binary ingest smoke: the same daemon accepts the CRC-framed wire format
# on /v1/events.bin, and a log file IS a wire body — what cordial-gen
# writes (its default format) is POSTed as it stands, and the same file is
# then read by cordial-study, which must count the events the daemon
# accepted: file ≡ wire, end to end.
go run ./cmd/cordial-gen -seed 5 -uer-banks 4 -benign-banks 4 \
    -log "$smokedir/fleet.wire" -truth "" >"$smokedir/gen.out"
nwire=$(sed -n 's/^generated \([0-9]*\) events.*/\1/p' "$smokedir/gen.out")
[ -n "$nwire" ] || { echo "cordial-gen reported no event count" >&2; exit 1; }
curl -fsS -X POST -H 'Content-Type: application/octet-stream' \
    --data-binary @"$smokedir/fleet.wire" "http://$addr/v1/events.bin" \
    | grep -q "\"accepted\": $nwire" \
    || { echo "binary ingest smoke failed" >&2; exit 1; }
go run ./cmd/cordial-study -log "$smokedir/fleet.wire" | grep -q "^log: $nwire events" \
    || { echo "cordial-study does not read the events the daemon accepted" >&2; exit 1; }
kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

echo "==> online retraining smoke (drifted mix -> retrain -> shadow -> promote)"
# Boots cordial-serve with the journal and model registry enabled, ingests
# a drifted pattern mix, forces a retrain off the journal, feeds the
# candidate's shadow twins with fresh drifted traffic, and promotes it
# through the admin API — asserting the swap lands (cordial_model_swaps_total,
# /statsz active version, registry pointer) with /readyz 200 throughout.
# The lifecycle interval is parked at 30m so the smoke, not the timer,
# drives every transition deterministically.
"$smokedir/cordial-serve" -selftrain -seed 3 -train-banks 20 -trees 5 \
    -addr 127.0.0.1:0 -log-format text \
    -wal-dir "$smokedir/wal-retrain" -fsync never \
    -retrain -retrain-interval 30m >"$smokedir/retrain.log" 2>&1 &
serve_pid=$!
addr=$(wait_addr "$smokedir/retrain.log" "$serve_pid")
check_ready() {
    curl -fsS "http://$addr/readyz" | grep -q '"ready": true' \
        || { echo "readyz degraded during retraining smoke ($1)" >&2
             cat "$smokedir/retrain.log" >&2; exit 1; }
}
check_ready boot
# Drifted regime: the paper's field mix is single-row dominant; this one
# is scattered/whole-column heavy.
go run ./cmd/cordial-gen -seed 11 -uer-banks 40 -benign-banks 10 \
    -weights 'single=5,scattered=70,wholecol=25' \
    -log "$smokedir/drift-a.wire" -format wire -truth ""
curl -fsS -X POST -H 'Content-Type: application/octet-stream' \
    --data-binary @"$smokedir/drift-a.wire" "http://$addr/v1/events.bin" >/dev/null
check_ready ingest
curl -fsS -X POST -d '{"trigger":"ci-smoke"}' "http://$addr/v1/models/retrain" \
    | grep -q '"status": "retraining"' \
    || { echo "forced retrain refused:" >&2; cat "$smokedir/retrain.log" >&2; exit 1; }
curl -fsS "http://$addr/v1/models" >"$smokedir/models.json"
grep -q '"candidateVersion": 2' "$smokedir/models.json" \
    || { echo "candidate not shadowing:" >&2; cat "$smokedir/models.json" >&2; exit 1; }
# Fresh drifted banks (different seed) create their sessions while the
# shadow is live, so each gets a candidate twin and the shadow scores
# real traffic before the promotion decision.
go run ./cmd/cordial-gen -seed 12 -uer-banks 40 -benign-banks 10 \
    -weights 'single=5,scattered=70,wholecol=25' \
    -log "$smokedir/drift-b.wire" -format wire -truth ""
curl -fsS -X POST -H 'Content-Type: application/octet-stream' \
    --data-binary @"$smokedir/drift-b.wire" "http://$addr/v1/events.bin" >/dev/null
check_ready shadow
curl -fsS -X POST "http://$addr/v1/models/promote" \
    | grep -q '"activeVersion": 2' \
    || { echo "candidate promotion failed:" >&2; cat "$smokedir/retrain.log" >&2; exit 1; }
i=0
until curl -fsS "http://$addr/metrics" | grep -q '^cordial_model_swaps_total 1$'; do
    i=$((i + 1))
    [ $i -lt 50 ] || { echo "model swap never reached /metrics" >&2
                       cat "$smokedir/retrain.log" >&2; exit 1; }
    sleep 0.2
done
check_ready promoted
curl -fsS "http://$addr/statsz" | grep -q '"activeModelVersion": 2' \
    || { echo "statsz missing new active version" >&2; exit 1; }
curl -fsS "http://$addr/v1/models" | grep -q '"activeVersion": 2' \
    || { echo "registry active pointer not flipped" >&2; exit 1; }
kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

echo "==> multi-node smoke (control plane + 2 nodes + router, kill one node)"
# Boots a live two-node cluster behind the router, ingests through the
# router, SIGKILLs one node, and asserts the cluster heals: the control
# plane records the takeover, the survivor and the router both return to
# /readyz 200, and post-failover ingest through the router still lands.
# (Verdict-level zero-loss is pinned by TestCLIClusterFailover above.)
go build -o "$smokedir/cordial-control" ./cmd/cordial-control
go build -o "$smokedir/cordial-router" ./cmd/cordial-router
"$smokedir/cordial-control" -addr 127.0.0.1:0 \
    -heartbeat-ttl 1s -sweep-interval 300ms >"$smokedir/cp.log" 2>&1 &
cp_pid=$!
cluster_pids="$cp_pid"
cp_addr=$(wait_addr "$smokedir/cp.log" "$cp_pid")
for n in 1 2; do
    "$smokedir/cordial-serve" -selftrain -seed 3 -train-banks 20 -trees 5 \
        -addr 127.0.0.1:0 -control-plane "http://$cp_addr" -node-id "n$n" \
        -heartbeat 100ms -wal-dir "$smokedir/wal-n$n" -fsync never \
        >"$smokedir/n$n.log" 2>&1 &
    eval "n${n}_pid=\$!"
done
cluster_pids="$cluster_pids $n1_pid $n2_pid"
n1_addr=$(wait_addr "$smokedir/n1.log" "$n1_pid")
wait_addr "$smokedir/n2.log" "$n2_pid" >/dev/null
"$smokedir/cordial-router" -addr 127.0.0.1:0 -control-plane "http://$cp_addr" \
    -refresh-interval 200ms -max-attempts 8 >"$smokedir/router.log" 2>&1 &
router_pid=$!
cluster_pids="$cluster_pids $router_pid"
router_addr=$(wait_addr "$smokedir/router.log" "$router_pid")
i=0
until curl -fsS "http://$router_addr/readyz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ $i -lt 100 ] || { echo "router never became ready" >&2; cat "$smokedir/router.log" >&2; exit 1; }
    sleep 0.2
done
go run ./cmd/cordial-gen -seed 3 -uer-banks 20 -benign-banks 10 \
    -log "$smokedir/fleet.jsonl" -format jsonl -truth ""
lines=$(wc -l <"$smokedir/fleet.jsonl")
curl -fsS -X POST --data-binary @"$smokedir/fleet.jsonl" \
    "http://$router_addr/v1/events" >"$smokedir/ingest1.json"
grep -q "\"accepted\":$lines" "$smokedir/ingest1.json" \
    || { echo "router ingest incomplete:" >&2; cat "$smokedir/ingest1.json" >&2; exit 1; }
kill -9 "$n2_pid" 2>/dev/null || true
wait "$n2_pid" 2>/dev/null || true
i=0
until curl -fsS "http://$cp_addr/statsz" 2>/dev/null | grep -q '"takeovers":1'; do
    i=$((i + 1))
    [ $i -lt 150 ] || { echo "takeover never recorded" >&2; cat "$smokedir/cp.log" >&2; exit 1; }
    sleep 0.2
done
for probe in "$n1_addr" "$router_addr"; do
    i=0
    until curl -fsS "http://$probe/readyz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ $i -lt 100 ] || { echo "$probe not ready after failover" >&2; exit 1; }
        sleep 0.2
    done
done
curl -fsS -X POST --data-binary @"$smokedir/fleet.jsonl" \
    "http://$router_addr/v1/events" >"$smokedir/ingest2.json"
grep -q "\"accepted\":$lines" "$smokedir/ingest2.json" \
    || { echo "post-failover ingest incomplete:" >&2; cat "$smokedir/ingest2.json" >&2; exit 1; }
curl -fsS "http://$router_addr/statsz" | grep -q '"n1"' \
    || { echo "router statsz missing survivor" >&2; exit 1; }
# Binary end-to-end: the same fleet as CRC-framed wire frames through the
# router's /v1/events.bin, forwarded upstream over the binary codec.
go run ./cmd/cordial-gen -seed 3 -uer-banks 20 -benign-banks 10 \
    -log "$smokedir/fleet.wire" -format wire -truth ""
curl -fsS -X POST -H 'Content-Type: application/octet-stream' \
    --data-binary @"$smokedir/fleet.wire" \
    "http://$router_addr/v1/events.bin" >"$smokedir/ingest3.json"
grep -q "\"accepted\":$lines" "$smokedir/ingest3.json" \
    || { echo "router binary ingest incomplete:" >&2; cat "$smokedir/ingest3.json" >&2; exit 1; }

echo "==> chaos scenarios (validate all, then the ~30s smoke run)"
# Every checked-in scenario must parse and validate; then the short
# two-node smoke scenario actually runs — fleet bring-up, wire-codec
# load, one SIGKILL with journal takeover, a poison burst — and its SLO
# verdict (recovery time, availability, zero verdict loss, zero poison
# accepted) is the gate. Reuses the daemons built above via --bin.
go build -o "$smokedir/cordial-chaos" ./cmd/cordial-chaos
"$smokedir/cordial-chaos" validate scenarios/*.yaml
"$smokedir/cordial-chaos" run scenarios/ci-smoke.yaml --bin "$smokedir" \
    --work "$smokedir/chaos-work" \
    --json "$smokedir/chaos-smoke.json" --html "$smokedir/chaos-smoke.html"
grep -q '"pass": true' "$smokedir/chaos-smoke.json" \
    || { echo "chaos smoke report does not record a pass" >&2; exit 1; }

echo "==> ok"
