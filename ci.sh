#!/bin/sh
# ci.sh — the repo's full verification gate.
#
#   vet + build + tests, then the whole suite again under the race
#   detector. The concurrency layer (internal/parallel, parallel
#   multi-start inference, MCMC chains, experiment fan-out) is only
#   trusted when both passes are clean: the plain pass proves the
#   parallel paths are byte-identical to sequential (determinism
#   tests), the -race pass proves they are actually safe.
#
# The race pass is slow on the full experiment sweeps; use
#   ./ci.sh -short
# to run both passes with -short (skips the long sweeps but keeps
# every determinism, pool, and fuzz-seed test).
set -eu

cd "$(dirname "$0")"

short="${1:-}"

# await_listen OUT PREFIX: poll the daemon output file OUT (up to 10 s)
# for a line starting with PREFIX and print the rest of that line — the
# bound address. On timeout, print the daemon's matching .err file and
# fail.
await_listen() {
  for _ in $(seq 1 50); do
    _line="$(sed -n "s/^$2//p" "$1" 2>/dev/null || true)"
    [ -n "$_line" ] && { echo "$_line"; return 0; }
    sleep 0.2
  done
  echo "ci: no '$2' line in $1" >&2
  cat "${1%.out}.err" >&2
  return 1
}

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test $short ./...

echo "== go test -race =="
go test -race $short ./...

echo "== obs smoke =="
# A reduced-scale testbed experiment must emit a manifest that parses,
# validates, survives a JSON round-trip, and carries nonzero scheduler
# grant/CCA-block/collision counters — proving the obs layer is wired
# through the controller, schedulers, and CLI end to end — plus nonzero
# scheduler/joint cache-hit and scratch-reuse counters, proving the
# kernels' caches are live in a real run.
obsdir="$(mktemp -d)"
trap 'rm -rf "$obsdir"' EXIT
go run ./cmd/blusim -scale 0.05 -metrics "$obsdir/manifest.json" fig10 >/dev/null
go run ./cmd/blumanifest \
  -require sched_blu_grants_total,sched_blu_blocked_total,sched_blu_collision_total,sched_pf_grants_total,core_measurement_phases_total,core_speculative_phases_total,sched_blu_cache_hit_total,sched_joint_cache_hit_total,sched_blu_scratch_reuse_total \
  "$obsdir/manifest.json"

echo "== bench smoke =="
# The kernels' allocation ceilings, golden traces and cache-bound
# invariances ran in both passes above. Vet and smoke-test the
# benchmark module: bench/ is its own module built against
# blu/internal/..., so root `go test ./...` does not see it and a change
# that breaks its build would otherwise first fail in the benchmark
# pipeline.
go -C bench vet ./...
go -C bench test -short ./...

echo "== chaos smoke =="
# The fault-injection suite ran under the race detector above. A
# reduced chaos experiment over the loss and stall scenarios must emit a
# manifest proving the fault injector and the degradation ladder
# actually fired: observations dropped, inference iterations stalled,
# the confidence gate tripped, and retries were spent.
go run ./cmd/blusim -scale 0.05 -metrics "$obsdir/chaos.json" -faults loss,stall chaos >/dev/null
go run ./cmd/blumanifest \
  -require faults_observations_dropped_total,faults_stall_iterations_total,core_gate_trips_total,core_infer_retries_total,core_fallback_phases_total \
  "$obsdir/chaos.json"

echo "== persist smoke =="
# The durability layer's crash-safety gates under the race detector
# without -short, even in a -short run: the recovery suite (torn
# writes, truncation, bit flips, rotate-vs-append races) and the
# kill-and-restore equivalence test. The decoders' fuzz seed corpora
# run in every plain `go test`.
go test -race -run 'TestRecovery|TestKillRestore|TestRestore|TestSnapshot|TestCrash|TestRotate|TestAbort' \
  ./internal/persist/ ./internal/serve/

echo "== serve smoke =="
# The serving layer end to end, race-instrumented: start blud on a
# loopback port, drive a seeded closed-loop bluload run against it, and
# require (a) the load manifest passes blumanifest's schema check with
# all three endpoint phases, (b) the embedded server snapshot
# proves the result cache actually absorbed repeats (nonzero
# serve_cache_hit_total) and the joint-table cache did too (bluload
# replays a fixed pool of schedule/joint payloads for the whole run, so
# serve_joint_tables_hit_total must be nonzero), and (c) a SIGTERM drain
# flushes a manifest that validates with the same counters.
blud_pid=""
# kill runs unquoted and || true'd: at normal exit the pid vars are
# empty, and a bare/empty kill is an error that would abort the trap
# (set -e) before rm — leaving the temp dir behind and, worse, turning
# a fully clean run into a nonzero exit.
trap 'kill $blud_pid 2>/dev/null || true; rm -rf "$obsdir"' EXIT
go build -race -o "$obsdir/blud" ./cmd/blud
go build -race -o "$obsdir/bluload" ./cmd/bluload
"$obsdir/blud" -addr 127.0.0.1:0 -manifest "$obsdir/blud_manifest.json" \
  >"$obsdir/blud.out" 2>"$obsdir/blud.err" &
blud_pid=$!
addr="$(await_listen "$obsdir/blud.out" 'blud: listening on ')"
"$obsdir/bluload" -addr "$addr" -seed 7 -c 4 -n 200 -o "$obsdir/bench_serve.json" >/dev/null
go run ./cmd/blumanifest \
  -require-phase Serve/infer,Serve/joint,Serve/schedule \
  -require serve_requests_total,serve_cache_hit_total,serve_joint_tables_hit_total \
  "$obsdir/bench_serve.json"
# A second, binary-codec run against the same daemon: the infer stream
# switches to the length-prefixed frames (request and response), which
# must negotiate cleanly under race instrumentation and show up in the
# daemon's serve_binary_total counter.
"$obsdir/bluload" -addr "$addr" -seed 7 -c 4 -n 120 -codec binary -o "$obsdir/bench_serve_bin.json" >/dev/null
go run ./cmd/blumanifest \
  -require-phase Serve/infer \
  -require serve_requests_total,serve_binary_total \
  "$obsdir/bench_serve_bin.json"
# A third run drives the streaming refresh loop: observe batches fold
# into session windows while session-keyed infers solve from the live
# estimate, so the digest-delta invalidation path must fire for real —
# nonzero serve_observe_total and serve_invalidation_total prove
# batches folded AND moved digests under cached results.
"$obsdir/bluload" -addr "$addr" -seed 7 -c 4 -n 200 -mix observe -o "$obsdir/bench_serve_obs.json" >/dev/null
go run ./cmd/blumanifest \
  -require-phase Serve/infer,Serve/observe \
  -require serve_requests_total,serve_observe_total,serve_invalidation_total \
  "$obsdir/bench_serve_obs.json"
kill -TERM "$blud_pid"
wait "$blud_pid"
blud_pid=""
go run ./cmd/blumanifest \
  -require serve_requests_total,serve_cache_hit_total,serve_infer_total,serve_joint_total,serve_schedule_total,serve_observe_total,serve_invalidation_total \
  "$obsdir/blud_manifest.json"

echo "== restart smoke =="
# Durable restart end to end, race-instrumented: a blud with -state
# takes an observe-mix bluload run, mints a session-keyed infer into
# its cache, and is then killed with SIGKILL — no drain, no final
# snapshot. The relaunched daemon must (a) report recovered state
# (nonzero persist_recovered_total in its drain manifest), and
# (b) answer the same session infer as a byte-identical cache hit,
# proving the snapshot+WAL image restored the streaming state and the
# minted response bytes exactly.
go build -race -o "$obsdir/bluprobe" ./cmd/bluprobe
statedir="$obsdir/state"
"$obsdir/blud" -addr 127.0.0.1:0 -state "$statedir" \
  -snapshot-interval 1s -wal-sync 5ms \
  >"$obsdir/blud2.out" 2>"$obsdir/blud2.err" &
blud_pid=$!
addr="$(await_listen "$obsdir/blud2.out" 'blud: listening on ')"
"$obsdir/bluload" -addr "$addr" -seed 11 -c 4 -n 200 -mix observe >/dev/null
printf '{"session":"load-a","options":{"seed":424242}}' >"$obsdir/probe.json"
# Repeated session infers converge on a warm-start fixed point (cold
# mint, then warm-keyed mints until the key repeats); the final probe
# must be a cache hit and its bytes are what the restart must
# reproduce.
for _ in 1 2 3 4; do
  "$obsdir/bluprobe" -addr "$addr" -path /v1/infer -body "$obsdir/probe.json" >/dev/null
done
"$obsdir/bluprobe" -addr "$addr" -path /v1/infer -body "$obsdir/probe.json" \
  -require-cache hit -save-body "$obsdir/prekill.bin" >/dev/null
# Let at least two snapshot ticks land so the minted cache entry is in
# the on-disk image, then kill without ceremony.
sleep 2.5
kill -9 "$blud_pid"
wait "$blud_pid" 2>/dev/null || true
blud_pid=""
"$obsdir/blud" -addr 127.0.0.1:0 -state "$statedir" \
  -snapshot-interval 1s -wal-sync 5ms -manifest "$obsdir/blud2_manifest.json" \
  >"$obsdir/blud3.out" 2>"$obsdir/blud3.err" &
blud_pid=$!
addr="$(await_listen "$obsdir/blud3.out" 'blud: listening on ')"
grep -q '^blud: recovered' "$obsdir/blud3.err" || {
  echo "ci: restarted blud did not log its recovery" >&2; cat "$obsdir/blud3.err" >&2; exit 1; }
"$obsdir/bluprobe" -addr "$addr" -path /v1/infer -body "$obsdir/probe.json" \
  -require-cache hit -require-body-file "$obsdir/prekill.bin"
kill -TERM "$blud_pid"
wait "$blud_pid"
blud_pid=""
go run ./cmd/blumanifest \
  -require persist_recovered_total,persist_snapshots_total \
  "$obsdir/blud2_manifest.json"

echo "== fleet smoke =="
# The multi-cell shard fleet end to end, race-instrumented and truly
# multi-process: three blufleet shards on fixed loopback ports (peer
# URLs pre-wired for cross-shard blueprint exchange) behind one router
# process. A bluload -cells run drives the per-cell observe/infer mix
# through the router's proxy path, and after a warm-up pause for
# exchange rounds a second run's manifest must carry Fleet/* phases plus
# nonzero routing, exchange, and border-dedup counters (the router's
# /metrics aggregates the shard snapshots, so the exchange counters
# cross process boundaries to get there). Then the crash drill: one
# shard dies by real kill -9 and is relaunched on the same port and
# state dir — it must log its recovery, answer its cell's session with
# a byte-identical digest, and the surviving shards' cached responses
# must still answer byte-identically through the router.
go build -race -o "$obsdir/blufleet" ./cmd/blufleet
fleetstate="$obsdir/fleetstate"
fs0=127.0.0.1:18460; fs1=127.0.0.1:18461; fs2=127.0.0.1:18462
fleet_pids=""
trap 'kill $fleet_pids $blud_pid 2>/dev/null || true; rm -rf "$obsdir"' EXIT
start_fleet_shard() { # name addr peers... ; echoes the pid
  _name="$1"; _addr="$2"; shift 2
  "$obsdir/blufleet" -mode shard -name "$_name" -cells 3 -seed 1 -shards 3 \
    -addr "$_addr" -state "$fleetstate/$_name" -exchange 300ms \
    -snapshot-interval 1s -wal-sync 5ms "$@" \
    >"$obsdir/fleet_$_name.out" 2>"$obsdir/fleet_$_name.err" &
  echo $!
}
s0_pid="$(start_fleet_shard shard-0 "$fs0" -peer shard-1="http://$fs1" -peer shard-2="http://$fs2")"
s1_pid="$(start_fleet_shard shard-1 "$fs1" -peer shard-0="http://$fs0" -peer shard-2="http://$fs2")"
s2_pid="$(start_fleet_shard shard-2 "$fs2" -peer shard-0="http://$fs0" -peer shard-1="http://$fs1")"
fleet_pids="$s0_pid $s1_pid $s2_pid"
"$obsdir/blufleet" -mode router -cells 3 -seed 1 -shards 3 -addr 127.0.0.1:0 \
  -shard shard-0="http://$fs0" -shard shard-1="http://$fs1" -shard shard-2="http://$fs2" \
  >"$obsdir/fleet_router.out" 2>"$obsdir/fleet_router.err" &
router_pid=$!
fleet_pids="$fleet_pids $router_pid"
faddr="$(await_listen "$obsdir/fleet_router.out" 'blufleet: router listening on ')"
for _name in shard-0 shard-1 shard-2; do
  await_listen "$obsdir/fleet_$_name.out" "blufleet: shard $_name listening on " >/dev/null
done
"$obsdir/bluload" -addr "$faddr" -cells 3 -seed 1 -c 4 -n 300 -mix observe >/dev/null
# Let several exchange intervals elapse over the freshly inferred
# blueprints so border reports are published and re-received (dedup).
sleep 1.2
"$obsdir/bluload" -addr "$faddr" -cells 3 -seed 1 -c 4 -n 150 -mix observe \
  -o "$obsdir/bench_fleet.json" >/dev/null
go run ./cmd/blumanifest \
  -require-phase Fleet/infer,Fleet/observe,Fleet/joint,Fleet/schedule \
  -require fleet_routed_total,fleet_exchange_rounds_total,fleet_exchange_published_total,fleet_border_dedup_total \
  "$obsdir/bench_fleet.json"
# The merged global interference map must answer through the router.
"$obsdir/bluprobe" -addr "$faddr" -path /v1/fleet/map >/dev/null
# Crash drill. With (-cells 3, -seed 1) the ring assigns cell-0 to
# shard-1 and cell-2 to shard-2: shard-2 is the victim, and a probe
# session on cell-0 (outside the cell:* namespace, so exchange seeding
# never moves its warm start) pins the survivors' cache bytes.
printf '{"session":"probe:cell-0","n":4,"observations":[{"scheduled":[0,1,2,3],"accessed":[0,1,3]}],"seal":true}' \
  >"$obsdir/fleet_obs.json"
"$obsdir/bluprobe" -addr "$faddr" -path "/v1/observe?cell=cell-0" -body "$obsdir/fleet_obs.json" >/dev/null
printf '{"session":"probe:cell-0","options":{"seed":77}}' >"$obsdir/fleet_probe.json"
for _ in 1 2 3 4; do
  "$obsdir/bluprobe" -addr "$faddr" -path "/v1/infer?cell=cell-0" -body "$obsdir/fleet_probe.json" >/dev/null
done
"$obsdir/bluprobe" -addr "$faddr" -path "/v1/infer?cell=cell-0" -body "$obsdir/fleet_probe.json" \
  -require-cache hit -save-body "$obsdir/fleet_prekill.bin" >/dev/null
# Pin the victim's cell digest (an empty observe batch folds nothing
# and echoes the canonical digest — cell-2 has 7 members).
printf '{"session":"cell:cell-2","n":7}' >"$obsdir/fleet_cell2.json"
"$obsdir/bluprobe" -addr "$faddr" -path "/v1/observe?cell=cell-2" -body "$obsdir/fleet_cell2.json" \
  -save-body "$obsdir/fleet_cell2_pre.bin" >/dev/null
# Let a snapshot tick land, then kill the victim without ceremony.
sleep 1.5
kill -9 "$s2_pid"
wait "$s2_pid" 2>/dev/null || true
# Fresh log files: the first boot also logs a (zero) recovery line, and
# the liveness poll must not match stale output.
rm -f "$obsdir/fleet_shard-2.out" "$obsdir/fleet_shard-2.err"
s2_pid="$(start_fleet_shard shard-2 "$fs2" -peer shard-0="http://$fs0" -peer shard-1="http://$fs1")"
fleet_pids="$s0_pid $s1_pid $s2_pid $router_pid"
await_listen "$obsdir/fleet_shard-2.out" 'blufleet: shard shard-2 listening on ' >/dev/null
grep -q '^blufleet: shard shard-2 recovered' "$obsdir/fleet_shard-2.err" || {
  echo "ci: restarted fleet shard did not log its recovery" >&2
  cat "$obsdir/fleet_shard-2.err" >&2
  exit 1
}
# The victim answers its cell digest-identically; the survivors' cached
# probe response is still a byte-identical hit.
"$obsdir/bluprobe" -addr "$faddr" -path "/v1/observe?cell=cell-2" -body "$obsdir/fleet_cell2.json" \
  -require-body-file "$obsdir/fleet_cell2_pre.bin" >/dev/null
"$obsdir/bluprobe" -addr "$faddr" -path "/v1/infer?cell=cell-0" -body "$obsdir/fleet_probe.json" \
  -require-cache hit -require-body-file "$obsdir/fleet_prekill.bin"
kill -TERM $fleet_pids
for pid in $fleet_pids; do
  wait "$pid" 2>/dev/null || true
done
fleet_pids=""

echo "== reshard smoke =="
# Dynamic resharding end to end, race-instrumented and multi-process
# (DESIGN.md §17): a 3-shard fleet over 8 cells takes continuous
# bluload traffic while a 4th shard process joins via the admin
# endpoint. With (-cells 8, -seed 42) the ring moves exactly
# {cell-2, cell-5, cell-7} to shard-3 — 3 of 8 cells, the minimal-
# motion bound — and the run must prove (a) bluload rides the 307
# reshard fences to a zero-failure exit, (b) the router's aggregated
# /metrics reports fleet_reshard_moved_cells == 3 and nonzero handoff
# traffic, (c) a moved cell's session answers byte-identically as a
# cache hit from its new shard, and (d) an unmoved cell co-resident
# with moved ones on the losing shard keeps its byte-identical cached
# hit — the handoff must not disturb state that did not move.
reshardstate="$obsdir/reshardstate"
rs0=127.0.0.1:18470; rs1=127.0.0.1:18471; rs2=127.0.0.1:18472; rs3=127.0.0.1:18473
load_pid=""
trap 'kill $fleet_pids $blud_pid $load_pid 2>/dev/null || true; rm -rf "$obsdir"' EXIT
start_reshard_shard() { # name addr shards peers... ; echoes the pid
  _name="$1"; _addr="$2"; _shards="$3"; shift 3
  "$obsdir/blufleet" -mode shard -name "$_name" -cells 8 -seed 42 -shards "$_shards" \
    -addr "$_addr" -state "$reshardstate/$_name" -exchange 300ms \
    -snapshot-interval 1s -wal-sync 5ms "$@" \
    >"$obsdir/reshard_$_name.out" 2>"$obsdir/reshard_$_name.err" &
  echo $!
}
r0_pid="$(start_reshard_shard shard-0 "$rs0" 3 -peer shard-1="http://$rs1" -peer shard-2="http://$rs2")"
r1_pid="$(start_reshard_shard shard-1 "$rs1" 3 -peer shard-0="http://$rs0" -peer shard-2="http://$rs2")"
r2_pid="$(start_reshard_shard shard-2 "$rs2" 3 -peer shard-0="http://$rs0" -peer shard-1="http://$rs1")"
fleet_pids="$r0_pid $r1_pid $r2_pid"
"$obsdir/blufleet" -mode router -cells 8 -seed 42 -addr 127.0.0.1:0 \
  -shard shard-0="http://$rs0" -shard shard-1="http://$rs1" -shard shard-2="http://$rs2" \
  >"$obsdir/reshard_router.out" 2>"$obsdir/reshard_router.err" &
rrouter_pid=$!
fleet_pids="$fleet_pids $rrouter_pid"
raddr="$(await_listen "$obsdir/reshard_router.out" 'blufleet: router listening on ')"
for _name in shard-0 shard-1 shard-2; do
  await_listen "$obsdir/reshard_$_name.out" "blufleet: shard $_name listening on " >/dev/null
done
# Warm two probe sessions to cache hits through the router: cell-2
# will move to shard-3, cell-3 stays on shard-2 (which loses cell-2
# and cell-5). The bodies differ in client count — identical
# measurements would mint the same digest-keyed cache entry on the
# shared shard-2 cache, and releasing the moved session would then
# (correctly) drop the unmoved session's entry too, turning the hit
# assertion into a false alarm.
printf '{"session":"probe:cell-2","n":4,"observations":[{"scheduled":[0,1,2,3],"accessed":[0,1,3]}],"seal":true}' \
  >"$obsdir/reshard_obs2.json"
printf '{"session":"probe:cell-3","n":5,"observations":[{"scheduled":[0,1,2,3,4],"accessed":[0,2,4]}],"seal":true}' \
  >"$obsdir/reshard_obs3.json"
"$obsdir/bluprobe" -addr "$raddr" -path "/v1/observe?cell=cell-2" -body "$obsdir/reshard_obs2.json" >/dev/null
"$obsdir/bluprobe" -addr "$raddr" -path "/v1/observe?cell=cell-3" -body "$obsdir/reshard_obs3.json" >/dev/null
printf '{"session":"probe:cell-2","options":{"seed":77}}' >"$obsdir/reshard_probe2.json"
printf '{"session":"probe:cell-3","options":{"seed":78}}' >"$obsdir/reshard_probe3.json"
for _ in 1 2 3 4; do
  "$obsdir/bluprobe" -addr "$raddr" -path "/v1/infer?cell=cell-2" -body "$obsdir/reshard_probe2.json" >/dev/null
  "$obsdir/bluprobe" -addr "$raddr" -path "/v1/infer?cell=cell-3" -body "$obsdir/reshard_probe3.json" >/dev/null
done
"$obsdir/bluprobe" -addr "$raddr" -path "/v1/infer?cell=cell-2" -body "$obsdir/reshard_probe2.json" \
  -require-cache hit -save-body "$obsdir/reshard_pre2.bin" >/dev/null
"$obsdir/bluprobe" -addr "$raddr" -path "/v1/infer?cell=cell-3" -body "$obsdir/reshard_probe3.json" \
  -require-cache hit -save-body "$obsdir/reshard_pre3.bin" >/dev/null
# Pin the moved session's digest: an empty observe batch folds nothing
# and echoes the canonical digest, so its bytes must survive the move.
printf '{"session":"probe:cell-2","n":4}' >"$obsdir/reshard_dig2.json"
"$obsdir/bluprobe" -addr "$raddr" -path "/v1/observe?cell=cell-2" -body "$obsdir/reshard_dig2.json" \
  -save-body "$obsdir/reshard_dig2_pre.bin" >/dev/null
# Continuous background load across the reshard; it must exit clean —
# 307 fence responses are retried, not failures.
"$obsdir/bluload" -addr "$raddr" -cells 8 -seed 42 -c 4 -duration 8s -mix observe \
  >"$obsdir/reshard_load.out" 2>"$obsdir/reshard_load.err" &
load_pid=$!
sleep 1
r3_pid="$(start_reshard_shard shard-3 "$rs3" 4 \
  -peer shard-0="http://$rs0" -peer shard-1="http://$rs1" -peer shard-2="http://$rs2")"
fleet_pids="$fleet_pids $r3_pid"
await_listen "$obsdir/reshard_shard-3.out" 'blufleet: shard shard-3 listening on ' >/dev/null
printf '{"action":"add","name":"shard-3","url":"http://%s"}' "$rs3" >"$obsdir/reshard_req.json"
"$obsdir/bluprobe" -addr "$raddr" -path /v1/fleet/reshard -body "$obsdir/reshard_req.json" \
  -save-body "$obsdir/reshard_resp.json" >/dev/null
for cell in cell-2 cell-5 cell-7; do
  grep -q "\"$cell\"" "$obsdir/reshard_resp.json" || {
    echo "ci: reshard response does not list moved $cell" >&2
    cat "$obsdir/reshard_resp.json" >&2; exit 1; }
done
wait "$load_pid" || {
  echo "ci: bluload failed across the reshard" >&2
  cat "$obsdir/reshard_load.out" "$obsdir/reshard_load.err" >&2; exit 1; }
load_pid=""
# The router's aggregated scrape must show exactly 3 moved cells (the
# minimal-motion bound for 1-of-4 ring shares over 8 cells) and the
# shards' handoff counters crossing process boundaries.
"$obsdir/bluprobe" -addr "$raddr" -path /metrics -save-body "$obsdir/reshard_metrics.json" >/dev/null
grep -q '"fleet_reshard_total":1' "$obsdir/reshard_metrics.json" || {
  echo "ci: aggregated metrics missing fleet_reshard_total=1" >&2
  cat "$obsdir/reshard_metrics.json" >&2; exit 1; }
grep -q '"fleet_reshard_moved_cells":3' "$obsdir/reshard_metrics.json" || {
  echo "ci: aggregated metrics missing fleet_reshard_moved_cells=3" >&2
  cat "$obsdir/reshard_metrics.json" >&2; exit 1; }
grep -Eq '"fleet_handoff_sessions_total":[1-9]' "$obsdir/reshard_metrics.json" || {
  echo "ci: aggregated metrics missing nonzero fleet_handoff_sessions_total" >&2
  cat "$obsdir/reshard_metrics.json" >&2; exit 1; }
# Moved cell: byte-identical digest and a byte-identical cache hit
# from shard-3; unmoved cell: the losing shard kept its cached bytes.
"$obsdir/bluprobe" -addr "$raddr" -path "/v1/observe?cell=cell-2" -body "$obsdir/reshard_dig2.json" \
  -require-body-file "$obsdir/reshard_dig2_pre.bin" >/dev/null
"$obsdir/bluprobe" -addr "$raddr" -path "/v1/infer?cell=cell-2" -body "$obsdir/reshard_probe2.json" \
  -require-cache hit -require-body-file "$obsdir/reshard_pre2.bin"
"$obsdir/bluprobe" -addr "$raddr" -path "/v1/infer?cell=cell-3" -body "$obsdir/reshard_probe3.json" \
  -require-cache hit -require-body-file "$obsdir/reshard_pre3.bin"
kill -TERM $fleet_pids
for pid in $fleet_pids; do
  wait "$pid" 2>/dev/null || true
done
fleet_pids=""

echo "ci: all clean"
