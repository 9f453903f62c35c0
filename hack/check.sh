#!/bin/sh
# Full local gate: format, build, vet, race-enabled tests, and a
# benchmark smoke pass across the module. The race detector is the
# authoritative check for the engine worker pool, the controller's
# concurrent device writes, and the obs hot path.
set -eux
cd "$(dirname "$0")/.."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi
sh hack/lint_names.sh
go build ./...
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
# seeds run as a plain test); give each target a short fuzz as well.
for target in wirejson:FuzzValue jsonrpc:FuzzFrame p4rt:FuzzWriteParams p4rt:FuzzDigestParams \
    ovsdb:FuzzTransactParams ovsdb:FuzzTransactReply ovsdb:FuzzUpdateParams; do
    go test -run='^$' -fuzz="^${target#*:}\$" -fuzztime=10s "./internal/${target%:*}/"
done
# Provenance overhead smoke: the experiment must run end to end and emit
# its machine-readable report, and the collection-off hot path must stay
# allocation-free (the PR's overhead budget).
go run ./cmd/nerpa-bench -exp provenance -provenance-out BENCH_provenance.json
test -s BENCH_provenance.json
go test -run 'TestProvenanceOffZeroAlloc' -count=1 ./internal/dl/engine/
# Workload profiler: with profiling off the per-rule attribution path
# must stay allocation-free (the always-on cost is zero).
go test -run 'TestRuleProfOffZeroAlloc' -count=1 ./internal/dl/engine/
# Flight-recorder overhead: the experiment must emit its report, the
# event hot path must stay allocation-free, and the p50 overhead vs the
# metrics baseline must stay inside the honest budget. Measured range
# across runs on this class of machine: events 4-10%, events+dataplane
# 7-14% (run-to-run noise is ~5pp), so the gates are 15% and 20% — wide
# enough not to flake, tight enough to catch a real hot-path regression.
go run ./cmd/nerpa-bench -exp obs-overhead -obs-txns 600 -obs-overhead-out BENCH_obs_overhead.json
test -s BENCH_obs_overhead.json
python3 - <<'PYEOF'
import json, sys
rows = {r["mode"]: r["p50_overhead_pct"] for r in json.load(open("BENCH_obs_overhead.json"))["rows"]}
budgets = {"events": 15.0, "events+dataplane": 20.0, "profiler": 20.0}
for mode, budget in budgets.items():
    pct = rows.get(mode)
    if pct is None:
        sys.exit(f"obs-overhead report is missing the {mode} row")
    print(f"obs overhead {mode}: {pct:.1f}% p50 (budget {budget:.0f}%)")
    if pct > budget:
        sys.exit(f"obs overhead regression: {mode} p50 is {pct:.1f}%, over the {budget:.0f}% budget")
PYEOF
go test -run 'TestEventHotPathZeroAlloc' -count=1 ./internal/obs/
# Fleet observability: the nerpa-top aggregator e2e (builds the real
# binaries, stitches a cross-process trace into the data plane, and
# verifies health flips on member death) must pass under the race
# detector.
go test -race -run 'TestFleetEndToEnd' -count=1 .
# Resilience: the kill-and-restart e2e must reconverge under the race
# detector, and the reconnect experiment must emit its recovery report.
go test -race -run 'TestKillRestartEndToEnd' -count=1 .
# The one redial supervisor, both resilient clients on it, and the
# engine-derived resync, in one -race line.
go test -race -run 'TestRedial|TestResilient|TestResync|TestPushToleratesUnavailableDevice' -count=1 ./internal/redial/ ./internal/ovsdb/ ./internal/p4rt/ ./internal/core/
go run ./cmd/nerpa-bench -exp reconnect -reconnect-ports 50,250 -reconnect-restarts 3 -reconnect-out BENCH_reconnect.json
test -s BENCH_reconnect.json
# Sustained throughput: the experiment must emit its report; against the
# committed baseline (read before the run overwrites the file) neither
# mode's aggregate txn/s may regress more than 15%, and the wire mode's
# allocations per transaction may not grow (5% covers the run-to-run
# swing in how many transactions a coalesced batch absorbs).
baseline=$(python3 -c "
import json
rows = {r['mode']: r for r in json.load(open('BENCH_throughput.json'))['rows']}
print(rows['direct']['txns_per_sec'], rows['wire']['txns_per_sec'], rows['wire']['allocs_per_txn'])" 2>/dev/null || echo 0 0 0)
go run ./cmd/nerpa-bench -exp throughput -throughput-out BENCH_throughput.json
test -s BENCH_throughput.json
python3 - $baseline <<'PYEOF'
import json, sys
base = dict(zip(("direct", "wire"), map(float, sys.argv[1:3])))
base_allocs = float(sys.argv[3])
rows = {r["mode"]: r for r in json.load(open("BENCH_throughput.json"))["rows"]}
for mode in ("direct", "wire"):
    cur = rows[mode]["txns_per_sec"]
    print(f"throughput {mode}: {cur:.0f} txn/s (baseline {base[mode]:.0f})")
    if base[mode] > 0 and cur < base[mode] * 0.85:
        sys.exit(f"throughput regression: {mode} {cur:.0f} txn/s is >15% below baseline {base[mode]:.0f}")
allocs = rows["wire"]["allocs_per_txn"]
print(f"throughput wire: {allocs:.1f} allocs/txn (baseline {base_allocs:.1f})")
if base_allocs > 0 and allocs > base_allocs * 1.05:
    sys.exit(f"wire allocation regression: {allocs:.1f} allocs/txn is above baseline {base_allocs:.1f}")
PYEOF
# Pub/sub fan-out: the subscription service e2e (snapshot-then-delta
# ordering, slow-consumer eviction and resubscribe) and the jsonrpc
# bounded-write regressions run under the race detector.
go test -race -run 'TestSnapshotThenDelta|TestSlowConsumerEviction' -count=1 ./internal/subscribe/
go test -race -run 'TestWriteLimit|TestCloseFlushes' -count=1 ./internal/jsonrpc/
# Fan-out bench gate: 10k+ subscribers must all converge (cursor at the
# sentinel txn, state fingerprint equal to the reference snapshot), the
# stalled connection must be evicted and recover via resubscribe, and
# sustained delivery must not regress more than 25% against the
# committed baseline (read before the run overwrites the file).
fan_baseline=$(python3 -c "import json; print(json.load(open('BENCH_fanout.json'))['updates_per_sec'])" 2>/dev/null || echo 0)
go run ./cmd/nerpa-bench -exp fanout -fanout-out BENCH_fanout.json
test -s BENCH_fanout.json
python3 - "$fan_baseline" <<'PYEOF'
import json, sys
base = float(sys.argv[1])
r = json.load(open("BENCH_fanout.json"))
print(f"fanout: {r['subscribers']} subscribers, {r['updates_per_sec']:.0f} updates/s "
      f"(baseline {base:.0f}), converged {r['converged']}, evictions {r['evictions']:.0f}")
if r["subscribers"] < 10000:
    sys.exit(f"fanout ran {r['subscribers']} subscribers, below the 10k bar")
if r["converged"] != r["subscribers"]:
    sys.exit(f"fanout: only {r['converged']}/{r['subscribers']} subscribers converged")
if r["evictions"] < 1 or not r["evicted_recovered"]:
    sys.exit("fanout: slow-consumer eviction + resubscribe recovery not demonstrated")
if base > 0 and r["updates_per_sec"] < base * 0.75:
    sys.exit(f"fanout regression: {r['updates_per_sec']:.0f} updates/s is >25% below baseline {base:.0f}")
PYEOF
# Coalescing under race: merged monitor deliveries must stay
# data-race-free and preserve per-txn attribution.
go test -race -run 'TestCoalesc' -count=1 ./internal/core/
# Durability: the SIGKILL crash-recovery e2e must reconverge under the
# race detector, and the WAL append/recover paths get a dedicated -race
# smoke (group commit is the concurrency hot spot).
go test -race -run 'TestWALCrashRecoveryEndToEnd' -count=1 .
go test -race -run 'TestLog|TestWAL' -count=1 ./internal/ovsdb/wal/ ./internal/ovsdb/
# Recovery bench gate: the experiment must emit its report, gap replay
# must ship fewer rows than the full-snapshot fallback, and cold
# recovery must not regress more than 2.5x against the committed
# baseline (read before the run overwrites the file).
rec_baseline=$(python3 -c "import json; print(json.load(open('BENCH_recovery.json'))['cold_recovery_ns'])" 2>/dev/null || echo 0)
go run ./cmd/nerpa-bench -exp recovery -recovery-txns 2000 -recovery-out BENCH_recovery.json
test -s BENCH_recovery.json
python3 - "$rec_baseline" <<'PYEOF'
import json, sys
base = float(sys.argv[1])
r = json.load(open("BENCH_recovery.json"))
cold = float(r["cold_recovery_ns"])
print(f"cold recovery: {cold/1e6:.1f} ms for {r['txns']} txns (baseline {base/1e6:.1f} ms)")
if r["gap_rows_delivered"] >= r["full_snapshot_rows"]:
    sys.exit(f"gap replay shipped {r['gap_rows_delivered']} rows, not fewer than the {r['full_snapshot_rows']}-row snapshot")
if base > 0 and cold > base * 2.5:
    sys.exit(f"cold recovery regression: {cold/1e6:.1f} ms is >2.5x baseline {base/1e6:.1f} ms")
PYEOF
