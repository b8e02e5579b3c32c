#!/usr/bin/env bash
# Full local CI: build everything, run the test suite (including the
# counter-invariance gate), then smoke the perf gate against the committed
# baseline.  The wide tolerance absorbs smoke-quota noise while still
# catching order-of-magnitude regressions; check mode never rewrites the
# baseline.
set -euo pipefail
cd "$(dirname "$0")"

dune build @all
# Static discipline gate: charge accounting, layer DAG, determinism,
# mutable-state registry, unsafe-op containment, and the interprocedural
# dataflow rules (pin/release pairing, RNG-stream taint, charge/effect
# ordering) over the typed ASTs.
# Prints `treelint: N rules, M files, 0 violations` on success.
dune build @lint
# The same sweep again, driven directly: emit the SARIF artifact for CI
# upload, prove the baseline holds an empty delta (every fingerprint in
# treelint.baseline still corresponds to a live diagnostic — a rewrite
# under --update-baseline must be a no-op), and require the content-hash
# cache to cut a warm run below 25% of the cold one.
TREELINT="./_build/default/tools/treelint/bin/treelint_main.exe"
TREELINT_ARGS=(--config treelint.toml --baseline treelint.baseline \
  --cmi _build/default/.fmt.objs/byte/fmt.cmi lib)
now_ms() { echo $(( $(date +%s%N) / 1000000 )); }
rm -f _build/treelint.cache
t0=$(now_ms)
"$TREELINT" "${TREELINT_ARGS[@]}" --cache _build/treelint.cache \
  --sarif treelint.sarif > /dev/null
t_cold=$(( $(now_ms) - t0 ))
t0=$(now_ms)
"$TREELINT" "${TREELINT_ARGS[@]}" --cache _build/treelint.cache > /dev/null
t_warm=$(( $(now_ms) - t0 ))
echo "treelint: cold ${t_cold}ms, warm ${t_warm}ms (sarif: treelint.sarif)"
if [ $(( t_warm * 4 )) -ge "$t_cold" ]; then
  echo "treelint: warm cache run took >=25% of the cold run" >&2
  exit 1
fi
cp -f treelint.baseline _build/treelint.baseline.orig 2>/dev/null || \
  touch _build/treelint.baseline.orig
"$TREELINT" "${TREELINT_ARGS[@]}" --update-baseline > /dev/null
if ! diff -u _build/treelint.baseline.orig treelint.baseline; then
  echo "treelint: baseline delta is not empty — stale grandfathered entries" >&2
  exit 1
fi
# runtest also diffs the plan-lowering / explain snapshots in test/snapshot/
# against their committed expectations (including the sharded S=1/S=4
# matrix); after an intentional plan or operator change — including
# anything that flips a fetch/harvest between mode=packed and mode=handle
# or changes the batch size shown in its label — run `dune promote` and
# commit the updated .expected.
#
# The optimizer-choice snapshots (test/snapshot/optimizer.expected) ride the
# same pass: chosen plan + top-3 candidate costs across the Figure 6
# selectivity sweep, the index-vs-scan switch point, and the sharded
# break-even, all derived from catalog statistics without executing.  A
# cost-model change that moves a crossover shows up as a diff here — promote
# it only if the new verdicts are intended.
#
# Sharding gates ride in the same pass: test/shard_parity_tests.ml runs the
# full algorithm x access-path matrix on twin S=1/S=4 databases (identical
# result multisets, per-shard frames reconciling exactly against the global
# counters), and the invariance suite pins S=1 to the golden scale-40
# fingerprint byte for byte — one shard must BE the unsharded engine.
dune runtest
# CLI smoke: `treebench plan` prints O2's plan and the optimizer's ranked
# candidates for a join (exit 0); a query naming an unknown attribute is
# rejected at bind time with exit 2, not an uncaught exception.
TREEBENCH="./_build/default/bin/treebench.exe"
"$TREEBENCH" plan --scale 1000 \
  "select [p.name, pa.age] from p in Providers, pa in p.clients where pa.mrn < 300 and p.upin < 50" \
  > /dev/null
rc=0
"$TREEBENCH" plan --scale 1000 "select pa.zzz from pa in Patients" \
  > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "treebench plan: malformed query exited $rc, expected 2" >&2
  exit 1
fi
# The runtest pass draws every QCheck property's cases from one fixed
# default seed (test/prop.ml), so its verdict is the same on every run.
# This pass re-runs the property-bearing suites under a fresh seed, printed
# first, so coverage keeps growing and any failure replays exactly with
#   QCHECK_SEED=<seed> dune exec test/test_main.exe -- test <suite>
QCHECK_SEED=$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')
echo "property tests: QCHECK_SEED=${QCHECK_SEED}"
QCHECK_SEED="$QCHECK_SEED" dune exec test/test_main.exe -- test \
  '^(sim|storage|store|btree_prop|codec|query|chaos|edge)$'
# Exhaustive crash-recovery fuzz: crash at every durable write of the
# fixed-seed workload (the default runtest pass strides the same sweep).
TREEBENCH_RECOVERY_FULL=1 dune exec test/test_main.exe -- test recovery
# Exhaustive chaos sweep: kill every shard at every exchange boundary of
# every (algorithm x access path) plan on the S=4/R=2 database and require
# the fault-free result multiset plus exactly one failover (the default
# runtest pass runs a strided smoke of the same matrix).
TREEBENCH_CHAOS_FULL=1 dune exec test/test_main.exe -- test chaos
dune exec bench/perf_gate.exe -- --smoke --check --tolerance 150
