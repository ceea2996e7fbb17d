#!/usr/bin/env bash
# CI entry point: formatting, lints on the engine/serve crates, release
# build, the full workspace test suite (tier-1 verify is those two steps;
# the suite includes the committed golden-v1-spec memo-key assertions and
# the v2 spec round-trip property test), an end-to-end loas-serve smoke
# test (enqueue -> run two shard processes -> merge -> verify
# byte-identical to a single-process run -> warm-store replay with zero
# simulations), a v1-vs-v2 spec A/B against the committed pre-redesign
# report, a served baseline-config sweep (Gamma FiberCache), smokes for
# the queue admin commands (batch enqueue, requeue, fsck, models), a perf
# smoke emitting a quick-grid BENCH_PR5.json, a bench-trajectory gate
# comparing the committed BENCH_PR5.json against BENCH_PR3.json (fails on
# a >20% regression in kernel pairs/s or end-to-end wall time, and
# requires the PR 5 record's >=1.3x end-to-end gain), and a
# kernel-vs-pre-kernel campaign A/B asserting the two-phase sweep plus
# the span-based traffic replay are byte-identical to the scalar golden
# path (LOAS_SWEEP=scalar drives every model's Reference oracle,
# including Gamma's and GoSPA's pre-span walks), and short perfbench
# cold-grid and warm-replay runs that must report "correct": true.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (loas-engine + loas-serve, deny warnings)"
cargo clippy -p loas-engine -p loas-serve --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q"
cargo test -q

echo "== loas-serve smoke test (2 shard processes vs 1 process, then warm replay)"
SERVE=target/release/loas-serve
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
export LOAS_WORKERS=2  # pin engine parallelism for the smoke run

"$SERVE" spec --headline --quick > "$SMOKE/headline.json"

# Two separate runner processes, one shard each, sharing a queue directory.
"$SERVE" init "$SMOKE/sharded"
"$SERVE" enqueue "$SMOKE/sharded" "$SMOKE/headline.json"
"$SERVE" run "$SMOKE/sharded" --shard 0/2
"$SERVE" run "$SMOKE/sharded" --shard 1/2
"$SERVE" merge "$SMOKE/sharded" 1 --shards 2

# The single-process reference.
"$SERVE" init "$SMOKE/single"
"$SERVE" enqueue "$SMOKE/single" "$SMOKE/headline.json"
"$SERVE" run "$SMOKE/single"

echo "-- merged 2-shard report vs 1-process report"
cmp "$SMOKE/sharded/reports/00001/report.jsonl" "$SMOKE/single/reports/00001/report.jsonl"

# Resubmitting against the warm memo store must simulate nothing and
# reproduce the identical report.
"$SERVE" enqueue "$SMOKE/single" "$SMOKE/headline.json"
"$SERVE" run "$SMOKE/single" | tee "$SMOKE/warm.out"
grep -q "28 memo hits, 0 simulated" "$SMOKE/warm.out"
echo "-- warm replay vs original report"
cmp "$SMOKE/single/reports/00001/report.jsonl" "$SMOKE/single/reports/00002/report.jsonl"
"$SERVE" status "$SMOKE/single"

echo "== golden v1 spec A/B (pre-redesign schema through the catalog)"
# The committed pre-redesign v1 spec must drive the catalog-dispatched
# models to the committed pre-redesign report, byte for byte — and the v2
# spec of the same campaign ("$SMOKE/single" ran the emitted --headline
# spec, which is v2) must agree with both.
"$SERVE" init "$SMOKE/golden"
"$SERVE" enqueue "$SMOKE/golden" crates/serve/tests/golden/headline-v1.spec.json
"$SERVE" run "$SMOKE/golden"
cmp "$SMOKE/golden/reports/00001/report.jsonl" crates/serve/tests/golden/headline-v1.report.jsonl
grep -q '"version": 2' "$SMOKE/headline.json"
cmp "$SMOKE/golden/reports/00001/report.jsonl" "$SMOKE/single/reports/00001/report.jsonl"

echo "== served baseline-config sweep (Gamma FiberCache campaign)"
"$SERVE" enqueue "$SMOKE/single" --gamma-cache --quick
"$SERVE" run "$SMOKE/single"
"$SERVE" status "$SMOKE/single" | grep "gamma-cache-sweep" | grep -q "done"
test -s "$SMOKE/single/reports/00003/report.jsonl"

echo "== queue admin smoke: batch enqueue, requeue, fsck"
mkdir "$SMOKE/batch"
"$SERVE" spec --headline --quick > "$SMOKE/batch/a-headline.json"
"$SERVE" spec --gamma-cache --quick > "$SMOKE/batch/b-gamma.json"
"$SERVE" init "$SMOKE/batchq"
"$SERVE" enqueue "$SMOKE/batchq" "$SMOKE/batch" | grep -q "batch: 2 campaigns submitted"

cat > "$SMOKE/infeasible.json" <<'SPEC'
{"name": "infeasible", "jobs": [{
  "workload": {"name": "w", "shape": {"t": 2, "m": 4, "n": 4, "k": 16},
               "profile": {"spike_origin": 0.01, "silent": 0.5,
                           "silent_ft": 0.55, "weight": 0.98},
               "seed": 7},
  "accelerator": {"loas": {"timesteps": 2}}}]}
SPEC
"$SERVE" enqueue "$SMOKE/single" "$SMOKE/infeasible.json"
"$SERVE" run "$SMOKE/single"
"$SERVE" status "$SMOKE/single" | grep "00004" | grep -q "failed"
"$SERVE" requeue "$SMOKE/single" 4
"$SERVE" status "$SMOKE/single" | grep "00004" | grep -q "queued"

"$SERVE" fsck "$SMOKE/single"
# LoAS configured for another window than the workload's is refused at
# enqueue (it would otherwise panic the runner and wedge the queue).
sed 's/"timesteps": 2/"timesteps": 8/' "$SMOKE/infeasible.json" > "$SMOKE/mismatch.json"
if "$SERVE" enqueue "$SMOKE/single" "$SMOKE/mismatch.json" 2> "$SMOKE/mismatch.err"; then
  echo "enqueue accepted a LoAS timestep mismatch"; exit 1
fi
grep -q "bad campaign spec" "$SMOKE/mismatch.err"
echo "garbage" > "$SMOKE/single/memo/00000000deadbeef.report"
if "$SERVE" fsck "$SMOKE/single" > /dev/null 2>&1; then
  echo "fsck missed an injected corrupt memo entry"; exit 1
fi
"$SERVE" fsck "$SMOKE/single" --prune | grep -q "1 pruned"
"$SERVE" fsck "$SMOKE/single"

echo "== accelerator catalog listing (loas-serve models)"
"$SERVE" models > "$SMOKE/models.out"
for model in loas sparten gospa gamma ptb stellar; do
  grep -q "^$model\$" "$SMOKE/models.out"
done
grep -q "cache_ways" "$SMOKE/models.out"
grep -q "default 262144" "$SMOKE/models.out"

echo "== two-phase kernel vs pre-kernel golden (LOAS_SWEEP=scalar A/B)"
# A fresh queue simulated entirely on the pre-kernel scalar path (its own
# memo store, so nothing replays) must reproduce the kernel-path report —
# including the warm-memo replay above — byte for byte. Since PR 5 the
# default path also routes all cache traffic through the precomputed
# spans + residency fast paths, so this A/B covers the span-based traffic
# replay of every model (LoAS, SparTen, Gamma, GoSPA) against its
# address-arithmetic oracle.
"$SERVE" init "$SMOKE/scalar"
"$SERVE" enqueue "$SMOKE/scalar" "$SMOKE/headline.json"
LOAS_SWEEP=scalar "$SERVE" run "$SMOKE/scalar"
cmp "$SMOKE/scalar/reports/00001/report.jsonl" "$SMOKE/single/reports/00001/report.jsonl"

echo "== perf smoke: bench experiment on the quick fig13 grid"
LOAS_BENCH_OUT="$SMOKE/BENCH_PR5.json" target/release/repro --quick --workers 1 bench
grep -q '"format": "loas-bench/1"' "$SMOKE/BENCH_PR5.json"
grep -q '"speedup"' "$SMOKE/BENCH_PR5.json"
echo "-- $(grep -o '"speedup": [0-9.]*' "$SMOKE/BENCH_PR5.json" | tail -1) (quick grid; the tracked full-grid record is BENCH_PR5.json at the repo root)"

echo "== bench trajectory gate (committed BENCH_PR5.json vs BENCH_PR3.json)"
# Both records are full-fidelity, 1-thread, cold-store measurements from
# the same environment; the trajectory invariant is that each perf PR's
# record neither regresses its predecessor by >20% (pairs/s down or wall
# time up) nor falls short of the >=1.3x end-to-end gain PR 5 landed.
bench_field() { grep -o "^  \"$2\": [0-9.]*" "$1" | awk '{print $2}'; }
pr3_pairs=$(bench_field BENCH_PR3.json kernel_pairs_per_sec)
pr5_pairs=$(bench_field BENCH_PR5.json kernel_pairs_per_sec)
pr3_wall=$(bench_field BENCH_PR3.json kernel_seconds)
pr5_wall=$(bench_field BENCH_PR5.json kernel_seconds)
echo "-- kernel sweep: $pr3_pairs -> $pr5_pairs pairs/s; end-to-end: ${pr3_wall}s -> ${pr5_wall}s"
awk -v old="$pr3_pairs" -v new="$pr5_pairs" 'BEGIN { exit !(new >= 0.8 * old) }' \
  || { echo "kernel pairs/s regressed >20% against BENCH_PR3.json"; exit 1; }
awk -v old="$pr3_wall" -v new="$pr5_wall" 'BEGIN { exit !(new <= 1.2 * old) }' \
  || { echo "end-to-end wall time regressed >20% against BENCH_PR3.json"; exit 1; }
awk -v old="$pr3_wall" -v new="$pr5_wall" 'BEGIN { exit !(old >= 1.3 * new) }' \
  || { echo "BENCH_PR5.json no longer shows the >=1.3x end-to-end gain"; exit 1; }

echo "== benchmark smoke (perfbench cold-grid, pinned full-size digests)"
# A short cold-grid run of the repository benchmark: it checks every
# served report against its layer walk and the walk against the digests
# pinned in perfbench/pins.txt, and reports "correct": false otherwise.
cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload cold-grid --seed 1 --seconds 3 --trace 0 | tail -1 | tee "$SMOKE/perfbench.out"
grep -q '"correct": true' "$SMOKE/perfbench.out"

echo "== benchmark smoke (perfbench warm-replay, memo hits through the spec parser)"
# The fig13 grid resubmitted to a warm memo store: every job is a memo
# hit, so the run is spec parsing and serving, checked the same way.
cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload warm-replay --seed 1 --seconds 3 --trace 0 | tail -1 | tee "$SMOKE/perfbench-warm.out"
grep -q '"correct": true' "$SMOKE/perfbench-warm.out"

echo "CI OK"
