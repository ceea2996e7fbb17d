#!/usr/bin/env bash
# CI entry point: formatting, lints on every workspace crate, rustdoc
# with warnings denied (a broken intra-doc link fails), release build,
# the full workspace test suite (tier-1 verify is those two steps; the
# suite includes the committed golden-v1-spec memo-key assertions, the v2
# spec round-trip property test, the full-scale headline bands of
# tests/headline.rs, each model's unit tests comparing its one production
# path against the scalar oracle kept in those tests, and repro's
# refusal of bad arguments), an end-to-end loas-serve smoke test (enqueue
# -> run two shard processes -> merge -> verify byte-identical to a
# single-process run -> warm-store replay with zero simulations), a
# spec whose campaign name and job label need escapes served end to end, a
# v1-vs-v2 spec A/B against the committed pre-redesign report, a served
# baseline-config sweep (Gamma FiberCache), smokes for the queue admin
# commands (batch enqueue, requeue, fsck, models) and of enqueue refusing
# unrunnable specs (a LoAS timestep mismatch, a workload t above 16,
# memory systems it cannot build: zero HBM channels, HBM below 1 GB/s, a
# cache of more than 2^20 lines), a runner failing a stored spec cut short
# and draining on, a run of every example (each must exit 0, and
# dataflow_explorer must mark exactly one variant as meeting all
# goals), a bench-trajectory gate over the two
# committed history records (BENCH_PR5.json against BENCH_PR3.json: fails
# on a >20% regression in kernel pairs/s or end-to-end wall time, and
# requires the PR 5 record's >=1.3x end-to-end gain), and short perfbench
# cold-grid, warm-replay and config-sweep runs of the build under test
# that must report "correct": true. Every cargo call that resolves
# dependencies runs with --locked, so a change that would rewrite
# Cargo.lock or perfbench/Cargo.lock fails here instead of editing the
# lock in place.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (whole workspace, all targets, deny warnings)"
cargo clippy --locked --workspace --all-targets -- -D warnings

echo "== cargo doc (whole workspace, deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --locked --no-deps --workspace

echo "== cargo build --release --locked"
cargo build --release --locked

echo "== cargo test -q --locked"
cargo test -q --locked

echo "== loas-serve smoke test (2 shard processes vs 1 process, then warm replay)"
SERVE=target/release/loas-serve
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT

"$SERVE" spec --headline --quick > "$SMOKE/headline.json"

# Two separate runner processes, one shard each, sharing a queue directory;
# every run of this smoke pins two engine workers.
"$SERVE" init "$SMOKE/sharded"
"$SERVE" enqueue "$SMOKE/sharded" "$SMOKE/headline.json"
"$SERVE" run "$SMOKE/sharded" --shard 0/2 --workers 2
"$SERVE" run "$SMOKE/sharded" --shard 1/2 --workers 2
"$SERVE" merge "$SMOKE/sharded" 1 --shards 2

# The single-process reference.
"$SERVE" init "$SMOKE/single"
"$SERVE" enqueue "$SMOKE/single" "$SMOKE/headline.json"
"$SERVE" run "$SMOKE/single" --workers 2

echo "-- merged 2-shard report vs 1-process report"
cmp "$SMOKE/sharded/reports/00001/report.jsonl" "$SMOKE/single/reports/00001/report.jsonl"

# Resubmitting against the warm memo store must simulate nothing and
# reproduce the identical report.
"$SERVE" enqueue "$SMOKE/single" "$SMOKE/headline.json"
"$SERVE" run "$SMOKE/single" --workers 2 | tee "$SMOKE/warm.out"
grep -q "28 memo hits, 0 simulated" "$SMOKE/warm.out"
echo "-- warm replay vs original report"
cmp "$SMOKE/single/reports/00001/report.jsonl" "$SMOKE/single/reports/00002/report.jsonl"
"$SERVE" status "$SMOKE/single"

echo "== escaped campaign name and job label, enqueue to report"
# Every other spec here is escape-free, so the parser borrows all of its
# strings; this one's name and first label take the owned, unescaped path.
cat > "$SMOKE/escaped.json" <<'SPEC'
{"version": 2, "name": "esc \"q\" back\\slash caf\u00e9 \ud83d\ude00", "jobs": [
  {"label": "label \"q\" b\\s caf\u00e9 \ud83d\ude00",
   "workload": {"name": "w", "shape": {"t": 4, "m": 4, "n": 8, "k": 64},
                "profile": {"spike_origin": 0.823, "silent": 0.741,
                            "silent_ft": 0.796, "weight": 0.982},
                "seed": 7},
   "accelerator": "gamma"},
  {"workload": {"name": "w", "shape": {"t": 4, "m": 4, "n": 8, "k": 64},
                "profile": {"spike_origin": 0.823, "silent": 0.741,
                            "silent_ft": 0.796, "weight": 0.982},
                "seed": 7},
   "accelerator": "sparten"}]}
SPEC
"$SERVE" init "$SMOKE/escq"
"$SERVE" enqueue "$SMOKE/escq" "$SMOKE/escaped.json"
"$SERVE" run "$SMOKE/escq"
"$SERVE" status "$SMOKE/escq" | grep -F 'esc "q" back\slash café 😀' | grep -q "done"
grep -qF '"label":"label \"q\" b\\s café 😀"' "$SMOKE/escq/reports/00001/report.jsonl"

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
# So is a workload with more timesteps than a packed spike word holds,
# on a model that has no timestep setting of its own.
sed -e 's/"t": 2/"t": 17/' -e 's/{"loas": {"timesteps": 2}}/"gamma"/' \
    "$SMOKE/infeasible.json" > "$SMOKE/long.json"
if "$SERVE" enqueue "$SMOKE/single" "$SMOKE/long.json" 2> "$SMOKE/long.err"; then
  echo "enqueue accepted a t = 17 workload"; exit 1
fi
grep "bad campaign spec" "$SMOKE/long.err" | grep -q "t = 17"
# So are memory systems the simulators cannot build or that would saturate
# the report: zero HBM channels, HBM below 1 GB/s, and a cache of more
# than MAX_CACHE_LINES = 2^20 lines (LoAS and Gamma-SNN). The same v2
# template with a buildable Gamma cache is accepted.
"$SERVE" init "$SMOKE/memq"
memory_spec() {
  sed -e 's|{"name": "infeasible"|{"version": 2, "name": "memory"|' \
      -e "s|{\"loas\": {\"timesteps\": 2}}|$1|" "$SMOKE/infeasible.json" > "$SMOKE/memory.json"
}
memory_spec '{"name": "gamma", "config": {"cache_bytes": 65536}}'
"$SERVE" enqueue "$SMOKE/memq" "$SMOKE/memory.json"
for bad in '{"name": "loas", "config": {"timesteps": 2, "hbm_channels": 0}}=channel' \
           '{"name": "loas", "config": {"timesteps": 2, "hbm_gbps": 1e-9}}=1 GB/s' \
           '{"name": "loas", "config": {"timesteps": 2, "cache_bytes": 1099511627776}}=lines' \
           '{"name": "gamma", "config": {"cache_bytes": 1099511627776}}=lines'; do
  memory_spec "${bad%=*}"
  if "$SERVE" enqueue "$SMOKE/memq" "$SMOKE/memory.json" 2> "$SMOKE/memory.err"; then
    echo "enqueue accepted an unbuildable memory system: ${bad%=*}"; exit 1
  fi
  grep "bad campaign spec" "$SMOKE/memory.err" | grep -q "${bad##*=}"
done
# The memo store is one append-only log; append a frame whose digest does
# not check.
test "$(ls -A "$SMOKE/single/memo")" = "entries.log"
printf 'loas-memo 00000000deadbeef 7 0000000000000000\ngarbage' >> "$SMOKE/single/memo/entries.log"
if "$SERVE" fsck "$SMOKE/single" > /dev/null 2>&1; then
  echo "fsck missed an injected corrupt memo frame"; exit 1
fi
"$SERVE" fsck "$SMOKE/single" --prune | grep -q "1 pruned"
"$SERVE" fsck "$SMOKE/single"

echo "== a stored spec cut short fails its campaign, and the queue drains on"
# A spec file that no longer parses (here truncated after enqueue) used to
# make every `run` exit 1 and leave the campaigns behind it queued.
"$SERVE" init "$SMOKE/cutq"
"$SERVE" enqueue "$SMOKE/cutq" --headline --quick
"$SERVE" enqueue "$SMOKE/cutq" --headline --quick
printf '{"name": "x", "jobs": [' > "$SMOKE/cutq/specs/00001.json"
"$SERVE" run "$SMOKE/cutq"
"$SERVE" status "$SMOKE/cutq" > "$SMOKE/cutq.status"
grep "00001" "$SMOKE/cutq.status" | grep -q "failed spec: unexpected end of input"
grep "00002" "$SMOKE/cutq.status" | grep -q "done"

echo "== accelerator catalog listing (loas-serve models)"
"$SERVE" models > "$SMOKE/models.out"
for model in loas sparten gospa gamma ptb stellar; do
  grep -q "^$model\$" "$SMOKE/models.out"
done
grep -q "cache_ways" "$SMOKE/models.out"
grep -q "default 262144" "$SMOKE/models.out"

echo "== examples (each must run to exit 0)"
# clippy --all-targets only compiles the examples; run them so a runtime
# break in one fails here. The design-space walk must find FTP, and only
# FTP, meeting all three Section III goals.
for example in quickstart dual_sparse_layer accelerator_comparison full_network campaign; do
  cargo run --release --locked --quiet --example "$example" > /dev/null
done
cargo run --release --locked --quiet --example dataflow_explorer > "$SMOKE/dataflow.out"
test "$(grep -c 'FTP (all goals met)' "$SMOKE/dataflow.out")" = 1

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
cargo run --release --locked --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload cold-grid --seed 1 --seconds 3 --trace 0 | tail -1 | tee "$SMOKE/perfbench.out"
grep -q '"correct": true' "$SMOKE/perfbench.out"

echo "== benchmark smoke (perfbench warm-replay, memo hits through the spec parser)"
# The fig13 grid resubmitted to a warm memo store: every job is a memo
# hit, so the run is spec parsing and serving, checked the same way.
cargo run --release --locked --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload warm-replay --seed 1 --seconds 3 --trace 0 | tail -1 | tee "$SMOKE/perfbench-warm.out"
grep -q '"correct": true' "$SMOKE/perfbench-warm.out"

echo "== benchmark smoke (perfbench config-sweep, memoized LoAS phases)"
# The repository's design sweeps on shared prepared layers: most LoAS jobs
# reuse a memoized pair sweep or traffic replay, checked the same way.
cargo run --release --locked --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload config-sweep --seed 1 --seconds 3 --trace 0 | tail -1 | tee "$SMOKE/perfbench-sweep.out"
grep -q '"correct": true' "$SMOKE/perfbench-sweep.out"

echo "CI OK"
