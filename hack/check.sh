#!/bin/sh
# Full local gate: format, build, vet, race-enabled tests, and a
# benchmark smoke pass across the module. The race detector is the
# authoritative check for the controller's concurrent device writes and
# the obs hot path.
set -eux
cd "$(dirname "$0")/.."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi
sh hack/lint_names.sh
# One row form: the boxed map[string]any rows and their json.Number
# atoms must not come back between the socket and the WAL. (server.go
# renders the schema, and the empty-object replies, as generic JSON.)
if grep -nE 'map\[string\]any|AnyMap|json\.Number' internal/core/controller.go internal/core/step.go $(ls internal/ovsdb/*.go | grep -v -e _test.go -e /server.go); then exit 1; fi
# One copy of the management plane: the resilient OVSDB client keeps no
# row mirror. The engine's inputs hold the monitored rows, and the
# controller reconciles a fallback snapshot against them.
if grep -nE 'cacheOf|\bcache\b' internal/ovsdb/resilient.go; then exit 1; fi
# An ordered subscription wire: the server replies to a subscribe before
# any update for it, under an id the client named, so the client keeps
# no buffer for updates that overtake their reply.
if grep -nE 'pendingUpdates|pendingLocked|subscribing' internal/subscribe/client.go; then exit 1; fi
# One delivery per connection: a connection's subscriptions share its
# one delivery goroutine, which parks on the JSON-RPC writer's drain, so
# the per-subscriber queue, its goroutine and the timer poll stay deleted.
if grep -nE 'func \(sub \*subscriber\) deliver|sub\.queue|time\.After' $(ls internal/subscribe/*.go | grep -v _test.go); then exit 1; fi
# One lock per switch write: the runtime applies a write's whole batch,
# undo log included, under one hold of its write lock, so the switch's
# per-update apply and its own undo log stay deleted.
if grep -nE 'undoEntries|undoPorts|func \(sw \*Switch\) rollback' $(ls internal/switchsim/*.go | grep -v _test.go); then exit 1; fi
# The controller's step stays pure: no goroutine, clock, channel, lock or
# device I/O (the driver in controller.go owns those).
if grep -nE '\bgo |time\.|chan |\.Write\(|WriteTxn\(|ReadTable\(|"sync' internal/core/step.go; then exit 1; fi
# One in-process deployment: only internal/deploy boots switches. The
# standalone switch binary, the quickstart walkthrough of the public
# constructors and the benchmark module wire their own.
if grep -rln --include='*.go' 'switchsim\.New(' . | grep -v -e '^\./internal/deploy/' -e '^\./cmd/' -e '^\./examples/quickstart/' -e '^\./benchmark/'; then exit 1; fi
# One fan-out rendering: subscribe appends each delta's bytes once per
# filter class; the reflected message structs and the []any row
# renderers live on only in its tests, as the oracle.
if grep -nE 'updateMsg\{|subscribeResult\{|func render(Delta|Record|Value|Fields)\b|make\(\[\]any' $(ls internal/subscribe/*.go | grep -v _test.go); then exit 1; fi
# One record per transaction stage: each step of a transaction is a
# stage on its trace, so the flight-recorder kinds that shadowed a stage
# stay deleted, and the engine records nothing itself.
if grep -rnE --include='*.go' 'Ev\("[a-z]+", *"(txn\.commit|monitor\.deliver|apply\.(start|end)|stratum\.eval|delta\.done|txn\.coalesce|push\.(start|barrier)|device\.write|rpc\.write|write\.apply)"' cmd internal | grep -v '_test\.go:'; then exit 1; fi
if go list -deps ./internal/dl/engine | grep -x 'repro/internal/obs'; then exit 1; fi
go build ./...
# Every example runs to completion.
for ex in examples/*/; do go run "./$ex" >/dev/null; done
# Every nerpa-bench experiment writes its BENCH_*.json report into the
# working directory: build the runner once and run it from a temporary
# directory, so a check leaves the tree as it found it.
root=$(pwd)
bench_dir=$(mktemp -d)
trap 'rm -rf "$bench_dir"' EXIT
go build -o "$bench_dir/nerpa-bench" ./cmd/nerpa-bench
go vet ./...
go test -race ./...
# The benchmark is a module of its own (benchmark/go.mod), invisible to
# the root ./... above: vet and test it here, so an API change that
# breaks it is found before the benchmark gate finds it.
(cd benchmark && go vet ./... && go test ./...)
# Smoke: every benchmark must still run (one iteration, no timing claims).
go test -run=NONE -bench=. -benchtime=1x ./...
# Wire codec: the hand-written encoders and decoders are held to
# encoding/json on their seed corpora by the runs above (a fuzz target's
# seeds run as a plain test), and the lowered P4 pipeline to the
# reference walker; give each target a short fuzz as well.
for target in jsonrpc:FuzzFrame p4rt:FuzzWriteParams p4rt:FuzzDigestParams \
    ovsdb:FuzzWireRow ovsdb:FuzzTransactParams ovsdb:FuzzTransactReply ovsdb:FuzzUpdateParams \
    subscribe:FuzzSubUpdate wirejson:FuzzValue p4:FuzzProcess; do
    go test -run='^$' -fuzz="^${target#*:}\$" -fuzztime=10s "./internal/${target%:*}/"
done
# Provenance overhead smoke: the experiment must run end to end and emit
# its machine-readable report, the unobserved engine's hot path
# (collection off: no statistics, rule profiling or provenance) must stay
# allocation-free, and so must the provenance store's write paths, an
# emit or retraction of an existing fact, and a user-function call.
(cd "$bench_dir" && ./nerpa-bench -exp provenance && test -s BENCH_provenance.json)
go test -run 'TestArrangementProbeZeroAlloc|TestProvenanceRecordPoolZeroAlloc|TestProvenanceOffZeroAlloc|TestRuleProfOffZeroAlloc|TestFactStoreZeroAlloc' -count=1 ./internal/dl/engine/
go test -run 'TestFuncCallFrameInCallerScratch' -count=1 ./internal/dl/typecheck/
# Apply writes the provenance store in place under its lock while Explain
# reads it: twenty runs under the race detector.
go test -race -count=20 -run 'TestProvenanceConcurrentExplainHammer|TestProvenanceVsNaive|TestProvenanceRecursive' ./internal/dl/engine/
# Flight-recorder: the event and trace hot paths must stay
# allocation-free, and a plain commit is recorded once, as the stages of
# its trace (the slow device of a pinned incident named by its write
# stage), under the race detector.
go test -run 'TestEventHotPathZeroAlloc|TestEventPoolZeroAlloc|TestTracerRecordZeroAlloc' -count=1 ./internal/obs/
go test -race -run 'TestFlightRecorder|TestObsTraceTimeline' -count=3 .
# Data plane: a known-unicast frame crosses the lowered pipeline and the
# switch without allocating, and injectors re-entering the switch from
# its output handler share the pooled packet state with a table writer:
# ten runs under the race detector, beside digest lists reaching the
# controller in ListID order and packets that see a write all or
# nothing (a failed write never, a two-table one never half). On the write path, a switch write
# allocates only the entry and keys it stores, comparing OVSDB atoms and
# looking up table entries build no key string, and a digest ack is
# decoded and recorded without allocating.
go test -run 'TestInjectKnownUnicastZeroAlloc|TestWriteAllocatesOnlyStoredState|TestAckDigestZeroAlloc|TestDigestAckZeroAlloc' -count=1 ./internal/switchsim/ ./internal/p4rt/
go test -run 'TestAtomCompareZeroAlloc' -count=1 ./internal/ovsdb/
go test -run 'TestEntryLookupZeroAlloc' -count=1 ./internal/p4/
go test -race -count=10 -run 'TestInjectReentrant|TestDigestListsInOrder|TestFailedWriteInvisibleToPackets|TestBatchAllOrNothingUnderTraffic' ./internal/switchsim/
# Fleet observability: the nerpa-top aggregator e2e (builds the real
# binaries, stitches a cross-process trace into the data plane, and
# verifies health flips on member death) must pass under the race
# detector.
go test -race -run 'TestFleetEndToEnd' -count=1 .
# Resilience: the kill-and-restart e2e must reconverge under the race
# detector, and the reconnect experiment must emit its recovery report.
go test -race -run 'TestKillRestartEndToEnd' -count=1 .
# The one redial supervisor, both resilient clients on it, the
# engine-derived resync the controller installs itself, the controller's
# reconciliation of a fallback snapshot, the in-process deployment's
# restarts back to its pre-boot goroutine count, /debug/explain read on
# the event loop during commits, queued digest lists merged into one
# apply and one write but never with commits, a static MAC taking
# precedence over a learnt one, and learnt MACs forgotten by a restarted
# controller, in one -race line.
go test -race -run 'TestRedial|TestResilient|TestResync|TestResnapshot|TestPushToleratesUnavailableDevice|TestMissedWriteResyncsInsteadOfDelta|TestTransactIntegerExact|TestControllerInstallsResyncHook|TestRestartAndQuiesce|TestExplainDuringCommits|TestCoalesceDigest|TestStaticMacOverridesLearnt|TestControllerRestartForgetsLearnt' -count=1 ./internal/redial/ ./internal/ovsdb/ ./internal/p4rt/ ./internal/core/ ./internal/deploy/
(cd "$bench_dir" && ./nerpa-bench -exp reconnect -reconnect-ports 50,250 -reconnect-restarts 3 &&
    test -s BENCH_reconnect.json)
# Pub/sub fan-out: the subscription service e2e (snapshot-then-delta
# ordering, slow-consumer eviction and resubscribe), one rendering per
# filter class, an undecodable update ending its subscription, every
# update after the reply that names its subscription (and jsonrpc's
# AfterReply ordering under it), the jsonrpc bounded-write regressions
# and the one server all three planes serve on run under the race
# detector.
go test -race -run 'TestSnapshotThenDelta|TestSlowConsumerEviction|TestPublishRendersOncePerClass|TestUndecodableUpdateEndsSubscription|TestUpdatesFollowTheirSubscribeReply|TestSubscribeRefusesStaleID|TestConcurrentSubscribes|TestAfterReplyFollowsReply|TestEvictionWithholdsPendingUpdates|TestOneDeliveryGoroutinePerConnection|TestExactlyOnceInCommitOrder|TestWaitQueueBelowWakesOnDrain' -count=1 ./internal/subscribe/ ./internal/jsonrpc/
go test -race -run 'TestWriteLimit|TestCloseFlushes|TestServer' -count=1 ./internal/jsonrpc/
# Tests that used to lose to a timer, a clock, a publication race or a
# stage order on a loaded box: twenty runs each under the race detector
# hold the de-flaking.
go test -race -count=20 -run 'TestRenderWireMatchesMarshal|TestAggregatorStitchesAcrossMembers|TestResilientReconnectRunsHookAndHeals|TestTracerConvergenceEitherOrder|TestObsEndpointsServeAllPlanes|TestControllerTakeover' ./internal/ovsdb/ ./internal/obs/fleet/ ./internal/p4rt/ ./internal/obs/ ./internal/deploy/ .
# Coalescing under race: merged monitor deliveries and digest lists must
# stay data-race-free, preserve per-txn attribution and per-source
# labels, and hold a barrier queued behind them until their push.
go test -race -run 'TestCoalesc' -count=20 ./internal/core/
# The controller's step against NaiveEval on every small-scope event
# order and coalescing split, and the live commit that overtakes the
# initial snapshot.
go test -count=1 -run 'TestStepEventOrders|TestLiveCommitBeforeInitialSnapshot' ./internal/core/
# The full-stack harness under the race detector, every seed: a random
# schedule of commits and restarts of the database server, each switch
# and the controller, then the invariant once the stack is quiet (no
# switch drifts from the engine, the engine's inputs are the database's
# rows and its outputs are NaiveEval's) and no goroutine left after Close.
# A third of the seeds keep no gap window, so their database restarts
# resume the monitor from a fresh snapshot.
go test -race -count=1 -run 'TestHarness' ./internal/core/
# Durability: the SIGKILL crash-recovery e2e must reconverge under the
# race detector, and the WAL append/recover paths get a dedicated -race
# smoke (group commit is the concurrency hot spot).
go test -race -run 'TestWALCrashRecoveryEndToEnd' -count=1 .
go test -race -run 'TestLog|TestWAL' -count=1 ./internal/ovsdb/wal/ ./internal/ovsdb/
# Bench gates: one run of the four gated experiments, then hack/gates.json
# holds their reports to its thresholds (one line per gate). Every gate
# is functional or compares against a number measured by the same run;
# none compares against a committed report.
#   obs-overhead  median over 10 interleaved rounds of the event ring's
#                 p50 overhead vs the metrics baseline (both observed
#                 controllers): events <= 15%
#   fanout        10k+ subscribers, all converged, the stalled connection
#                 evicted and recovered by resubscribe
#   recovery      gap replay ships fewer rows than the full snapshot; cold
#                 recovery takes less time than writing the same commits
#                 through the WAL took
#   label-dense   T5's dense cyclic graph: the median incremental time per
#                 link event is below the median full recomputation, over
#                 10 rounds that alternate the two
(cd "$bench_dir" && ./nerpa-bench -check "$root/hack/gates.json" -exp obs-overhead,fanout,recovery,label-dense \
    -obs-txns 600 -recovery-txns 2000)
