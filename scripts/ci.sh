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

echo "==> fuzz smoke (every fuzz target, 5s each)"
# Every decoder of persisted or peer bytes has a fuzz target — the log readers
# and wire-frame decoder, the address parser and packer, the WAL record,
# bank-state, session-image, snapshot-payload and journal-record decoders, the
# handoff envelope, model files, registry artefacts, the metrics scraper and
# the scenario parser — and so do the incremental-feature equivalence and the
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

echo "==> training perf gate (a forest fit allocates per tree and per fit, never per node; a Pipeline.Fit ≤ 12 MB in ≤ 1 500 allocations; evaluation ≤ 12 per bank)"
# The lifecycle refits the forests inside cordial-serve, so training garbage
# lands on the serving heap: the default 80-tree forest on 2 100 rows may
# allocate each member's generator, node array and probability array plus a
# per-fit term (value codes, one grower per worker, arena) — 414 allocations
# where the presorted-list trainer made 207 664 — and one default Pipeline.Fit
# on 120 banks at most 12 MB and 1 500 allocations; the dataset builders and the
# evaluators fold every bank through one reset feature state.
go test -run 'TestForestFitAllocs|TestFitTransientBytes|TestEvaluateAllocsPerBank' -count 1 ./internal/mltree/ ./internal/core/

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

echo "==> bytes per bank gate (BankState ≤ 1 KiB, bankSession ≤ 144 B, store slot 24 B and node 16 B, queue entry ≤ 32 B, a quiet bank ≤ 160 B and ≤ 0.1 mallocs in the engine, ≤ 0.2 mallocs to restore, ≤ 0.05 to snapshot, a promotion ≤ 10 mallocs, a bank address ≤ 16 B, an action ≤ 80 B, a journaled 2-shard batch ≤ 2 mallocs)"
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
# UER by its malloc count. The verdict record every consumer copies is pinned
# too — hbm.BankAddress ≤ 16 B, stream.Action ≤ 80 B — and a warmed journaled
# IngestBatch over two shards allocates only its group-commit window (≤ 2).
go test -run 'TestBankStateSize|TestSessionHeapPerBank|TestStoreLayout|TestRestoreQuietBanksAllocation|TestSnapshotQuietBanksAllocation|TestPromotionAllocs|TestBankAddressSize|TestActionSize|TestDurableBatchAllocs' -count 1 \
    ./internal/features/ ./internal/hbm/ ./internal/stream/

echo "==> repository benchmark smoke (5 % scale, every workload, manifest check)"
# bench/ is a module of its own, so the root `go test ./...` never sees it;
# its tests run every workload at 5 % scale through the correctness gate and
# check BENCHMARK.json against the metrics the program prints.
(cd bench && go test ./...)

echo "==> topology matrix (profile registry, wire round-trips, cross-profile gates)"
# Every registered profile must validate and round-trip packed addresses
# through the wire codec allocation-free (TestWireProfileMatrix iterates
# the registry) and banks through their key, UnpackBank, CellInBank and JSON
# (TestBankAddressRoundTrip); the equivalence gates then re-run under
# ddr5-dimm, and a two-profile transfer study must complete end to end.
go test -run 'TestRegisteredProfiles|PackUnpackRoundTrip|TestWireProfileMatrix|TestBankAddressRoundTrip' \
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
