#!/usr/bin/env bash
# Tier-1 gate plus end-to-end smoke tests:
#   1. dune build && dune runtest (includes the golden-table diff and the
#      stattest/property/CLI suites)
#   2. quick-scale E2 tables must be byte-identical at --jobs 1 and --jobs 2
#      (the per-trial RNG fan-out guarantee, checked end to end through the
#      bench harness)
#   3. golden-table regression: the committed test/golden/*.txt snapshots
#      must match a fresh render (test/test_golden.exe check mode)
#   4. negative-auditor smoke: the ε-DP auditor must flag the deliberately
#      broken Laplace variant (exit 1), proving the audit has power
#   5. observability smoke: one quick experiment with --trace + --metrics,
#      both JSON outputs must parse, and the table on stdout must still
#      match the committed golden byte-for-byte (telemetry must not perturb
#      results); then E5 at --jobs 4 with --metrics-json, whose mechanisms
#      journal their first runs from several domains at once, must match
#      its golden too
#   6. query-engine smoke: E2 (single queries) and E5 (batched composition
#      queries) with --engine check (interpreter and compiled evaluator
#      compared on every query, failing on any divergence) must still match
#      the committed goldens byte-for-byte
#   7. bench kernel JSON: the predicate kernel triple's --json output must
#      validate under pso_audit validate-json (the bench-kernels/v1
#      contract)
#   8. bench regression: the same --json output is compared against the
#      newest committed BENCH_*.json snapshot with pso_audit bench-compare;
#      any shared kernel more than 20% slower across three fresh
#      measurements fails the gate (skipped with a notice when no snapshot
#      is committed yet)
#   9. audit-ledger smoke: a quick E2 run with --ledger must produce a
#      ledger/v1 file that passes pso_audit ledger-verify and validate-json,
#      renders a ledger-report, and is byte-identical at --jobs 1 and 2
#  10. ledger overhead gate: within the same bench snapshot, the
#      ledger-on-count-batched kernel must stay within 10% of
#      ledger-off-count-batched (pso_audit bench-pair, with the same
#      re-measure-on-noise retry as the bench regression gate)
#  11. certificate gate: pso_audit certify must verify every production
#      eps-DP coupling certificate exactly and reject every negative
#      control (nonzero exit otherwise), and the tampered-certificate
#      smoke (certify --tamper) must reject every corrupted witness
#  12. live-telemetry smoke: a quick E2 run with --prom + --timeline (plus
#      --metrics-json and --ledger) must leave the golden table untouched,
#      both new artifacts must pass validate-json (prometheus-text and
#      obs-timeline/v1), report-html must fuse all four sources into a
#      self-contained page with every section present, and the 10 Hz
#      snapshot ticker must cost <=10% on the batched-count kernel
#      (bench-pair, same re-measure retry as the other perf gates)
#  13. census-scale smoke: the E14 table must be byte-identical at --jobs 1
#      and --jobs 2 and must match the committed golden, and the census
#      subcommand's streaming and materialized paths must produce identical
#      stats for the same seed (the peak-memory-vs-correctness trade has no
#      correctness side)
#  14. SpMV speedup gate: in a fresh linalg bench snapshot (which also
#      validates under bench-kernels/v1 and cross-checks sparse == dense
#      bitwise on every sample), the CSR SpMV kernel must be at least 10x
#      faster than the dense row-major loop on the 512x4096 subset-query
#      matrix (pso_audit bench-pair --min-ratio 10, with the usual
#      re-measure-on-noise retry)
set -euo pipefail
cd "$(dirname "$0")/.."

dune build
dune runtest

tmp1=$(mktemp) tmp2=$(mktemp) trace=$(mktemp) metrics=$(mktemp)
trap 'rm -f "$tmp1" "$tmp2" "$trace" "$metrics"' EXIT

# The trailing "[E2 finished in X.Xs]" line is wall-clock and legitimately
# differs between runs; everything else must match exactly.
dune exec bench/main.exe -- --no-perf --only E2 --jobs 1 | grep -v '^\[E' > "$tmp1"
dune exec bench/main.exe -- --no-perf --only E2 --jobs 2 | grep -v '^\[E' > "$tmp2"

if ! diff -u "$tmp1" "$tmp2"; then
  echo "ci: determinism violation: E2 tables differ between --jobs 1 and --jobs 2" >&2
  exit 1
fi

# Golden-table regression (also part of dune runtest; rerun standalone so a
# mismatch is reported with the regeneration instructions even if the test
# suite was filtered).
dune exec test/test_golden.exe

# The auditor must have power: a mechanism at half the required noise scale
# has to be flagged (nonzero exit). A zero exit here means the DP audit is
# vacuous and every "pass" above it is meaningless.
if dune exec bin/pso_audit.exe -- dpcheck --mechanism broken-laplace --trials 20000 > "$tmp1" 2>&1; then
  echo "ci: negative-control failure: auditor did not flag broken-laplace" >&2
  cat "$tmp1" >&2
  exit 1
fi
if ! grep -q VIOLATION "$tmp1"; then
  echo "ci: broken-laplace run failed without certifying a violation" >&2
  cat "$tmp1" >&2
  exit 1
fi

# Observability smoke: telemetry fully on must (a) produce parseable JSON
# for both the Chrome trace and the obs-metrics/v1 document, and (b) leave
# the experiment table byte-identical to the committed golden snapshot.
dune exec bin/pso_audit.exe -- run E2 --quick --seed 20210621 --jobs 2 \
  --trace "$trace" --metrics-json "$metrics" --metrics > "$tmp1" 2> /dev/null
dune exec bin/pso_audit.exe -- validate-json "$trace" "$metrics"
if ! diff -u test/golden/E2.txt "$tmp1"; then
  echo "ci: telemetry perturbed the E2 table (differs from test/golden/E2.txt)" >&2
  exit 1
fi
dune exec bin/pso_audit.exe -- run E5 --quick --seed 20210621 --jobs 4 \
  --metrics-json "$metrics" > "$tmp1" 2> /dev/null
dune exec bin/pso_audit.exe -- validate-json "$metrics"
if ! diff -u test/golden/E5.txt "$tmp1"; then
  echo "ci: telemetry at --jobs 4 perturbed the E5 table (differs from test/golden/E5.txt)" >&2
  exit 1
fi

# Query-engine smoke: force check mode (interpreter + compiled evaluator
# run side by side; any count/isolation divergence aborts) and require the
# tables to stay byte-identical to the committed goldens. E2 asks single
# predicates; E5 asks batches through the composition game.
for exp in E2 E5; do
  dune exec bin/pso_audit.exe -- run "$exp" --quick --seed 20210621 --jobs 2 \
    --engine check > "$tmp1" 2> /dev/null
  if ! diff -u "test/golden/$exp.txt" "$tmp1"; then
    echo "ci: --engine check perturbed the $exp table (differs from test/golden/$exp.txt)" >&2
    exit 1
  fi
done

# Bench kernel JSON: the interpreter/compiled/bitset predicate triple must
# run (each sample cross-checks counts against the interpreter) and emit
# bench-kernels/v1 JSON that validates.
dune exec bench/main.exe -- --no-tables --only predicates --json "$tmp2" > /dev/null
dune exec bin/pso_audit.exe -- validate-json "$tmp2"

# Bench regression gate: compare the fresh kernel timings against the
# newest committed BENCH_*.json (the persisted perf trajectory). Kernels
# only present on one side are reported but don't fail; a shared kernel
# >20% slower does. Skipped when no snapshot has been committed yet.
# Sub-10µs kernels jitter past 20% on a noisy machine, so a failed
# comparison re-measures (fresh bench run) up to two more times — noise
# passes on a retry, a real regression fails all three.
baseline=$(ls BENCH_*.json 2>/dev/null | sort -V | tail -1 || true)
if [ -n "$baseline" ]; then
  bench_ok=0
  for attempt in 1 2 3; do
    if dune exec bin/pso_audit.exe -- bench-compare "$baseline" "$tmp2" --tolerance 20; then
      bench_ok=1
      break
    fi
    if [ "$attempt" -lt 3 ]; then
      echo "ci: bench attempt $attempt regressed; re-measuring" >&2
      dune exec bench/main.exe -- --no-tables --only predicates --json "$tmp2" > /dev/null
    fi
  done
  if [ "$bench_ok" -ne 1 ]; then
    echo "ci: bench regression persisted across 3 measurements vs $baseline" >&2
    exit 1
  fi
else
  echo "ci: no BENCH_*.json snapshot committed; skipping bench regression gate"
fi

# Audit-ledger smoke: journal a quick experiment, re-check the accountant
# arithmetic by replay, validate the JSONL shape, render the per-analyst
# report, and require the file to be byte-identical across --jobs (the
# ledger's logical-clock determinism, end to end).
ledger1=$(mktemp) ledger2=$(mktemp)
trap 'rm -f "$tmp1" "$tmp2" "$trace" "$metrics" "$ledger1" "$ledger2"' EXIT
dune exec bin/pso_audit.exe -- experiment E2 --seed 20210621 --jobs 1 \
  --ledger "$ledger1" > /dev/null 2> /dev/null
dune exec bin/pso_audit.exe -- experiment E2 --seed 20210621 --jobs 2 \
  --ledger "$ledger2" > /dev/null 2> /dev/null
if ! cmp -s "$ledger1" "$ledger2"; then
  echo "ci: ledger determinism violation: files differ between --jobs 1 and --jobs 2" >&2
  exit 1
fi
dune exec bin/pso_audit.exe -- ledger-verify "$ledger1"
dune exec bin/pso_audit.exe -- validate-json "$ledger1"
dune exec bin/pso_audit.exe -- ledger-report "$ledger1" > /dev/null

# Ledger overhead gate: the journaled batched-counts kernel must stay
# within 10% of the unjournaled one, measured inside one snapshot so the
# comparison is machine-relative. Same retry discipline as bench-compare.
pair_ok=0
for attempt in 1 2 3; do
  if dune exec bin/pso_audit.exe -- bench-pair "$tmp2" \
       experiments/ledger-off-count-batched experiments/ledger-on-count-batched \
       --tolerance 10; then
    pair_ok=1
    break
  fi
  if [ "$attempt" -lt 3 ]; then
    echo "ci: ledger overhead attempt $attempt beyond tolerance; re-measuring" >&2
    dune exec bench/main.exe -- --no-tables --only predicates --json "$tmp2" > /dev/null
  fi
done
if [ "$pair_ok" -ne 1 ]; then
  echo "ci: ledger overhead above 10% across 3 measurements" >&2
  exit 1
fi

# Certificate gate: the exact checker must certify all production
# mechanisms and reject all negative controls in one run (the command's
# own exit status enforces both), and the verdicts must say so
# explicitly. A passing tamper suite proves the checker actually rejects
# invalid witnesses rather than accepting everything.
dune exec bin/pso_audit.exe -- certify > "$tmp1"
if ! grep -q 'production mechanisms certified' "$tmp1" \
   || ! grep -q 'negative controls rejected -> OK' "$tmp1"; then
  echo "ci: certify verdict table missing its summary lines" >&2
  cat "$tmp1" >&2
  exit 1
fi
dune exec bin/pso_audit.exe -- certify --tamper > "$tmp1"
if grep -q ACCEPTED "$tmp1" || ! grep -q REJECTED "$tmp1"; then
  echo "ci: tampered-certificate smoke failed: a corrupted witness was accepted" >&2
  cat "$tmp1" >&2
  exit 1
fi

# Live-telemetry smoke: periodic snapshots plus the Prometheus mirror must
# not perturb results (golden byte-identity), both exports must satisfy
# their validators, and the fused HTML report must carry every section.
prom=$(mktemp) timeline=$(mktemp) report=$(mktemp)
trap 'rm -f "$tmp1" "$tmp2" "$trace" "$metrics" "$ledger1" "$ledger2" "$prom" "$timeline" "$report"' EXIT
dune exec bin/pso_audit.exe -- run E2 --quick --seed 20210621 --jobs 2 \
  --prom "$prom" --timeline "$timeline" --tick-ms 50 \
  --metrics-json "$metrics" --ledger "$ledger1" > "$tmp1" 2> /dev/null
if ! diff -u test/golden/E2.txt "$tmp1"; then
  echo "ci: live telemetry perturbed the E2 table (differs from test/golden/E2.txt)" >&2
  exit 1
fi
dune exec bin/pso_audit.exe -- validate-json "$prom" "$timeline"
dune exec bin/pso_audit.exe -- report-html "$report" \
  --timeline "$timeline" --metrics-json "$metrics" --ledger "$ledger1" \
  --bench "$tmp2" > /dev/null
for section in timeline metrics ledger bench; do
  if ! grep -q "id=\"$section\"" "$report"; then
    echo "ci: report-html is missing its $section section" >&2
    exit 1
  fi
done
if grep -q '<script' "$report" || grep -Eq 'https?://' "$report"; then
  echo "ci: report-html is not self-contained (script or external reference)" >&2
  exit 1
fi

# Timeline overhead gate: a 10 Hz snapshot ticker running concurrently must
# keep the batched-count kernel within 10% of the ticker-off baseline,
# measured inside one snapshot. Same retry discipline as the other gates.
pair_ok=0
for attempt in 1 2 3; do
  if dune exec bin/pso_audit.exe -- bench-pair "$tmp2" \
       experiments/timeline-off-count-batched experiments/timeline-10hz-count-batched \
       --tolerance 10; then
    pair_ok=1
    break
  fi
  if [ "$attempt" -lt 3 ]; then
    echo "ci: timeline overhead attempt $attempt beyond tolerance; re-measuring" >&2
    dune exec bench/main.exe -- --no-tables --only predicates --json "$tmp2" > /dev/null
  fi
done
if [ "$pair_ok" -ne 1 ]; then
  echo "ci: timeline snapshot overhead above 10% across 3 measurements" >&2
  exit 1
fi

# Census-scale smoke: the E14 table (streamed, sharded, warm-started) must
# be byte-identical across --jobs and match the committed golden, and the
# census subcommand's streaming and materialized tabulation paths must
# report identical stats — the reference path exists precisely to catch a
# streaming-side divergence.
dune exec bin/pso_audit.exe -- run E14 --quick --seed 20210621 --jobs 1 \
  > "$tmp1" 2> /dev/null
dune exec bin/pso_audit.exe -- run E14 --quick --seed 20210621 --jobs 2 \
  > "$tmp2" 2> /dev/null
if ! cmp -s "$tmp1" "$tmp2"; then
  echo "ci: determinism violation: E14 tables differ between --jobs 1 and --jobs 2" >&2
  exit 1
fi
if ! diff -u test/golden/E14.txt "$tmp1"; then
  echo "ci: E14 table differs from test/golden/E14.txt" >&2
  exit 1
fi
dune exec bin/pso_audit.exe -- census --blocks 24 --mean-block-size 15 \
  --shards 4 --suppress 3 --seed 7 --jobs 2 > "$tmp1" 2> /dev/null
dune exec bin/pso_audit.exe -- census --blocks 24 --mean-block-size 15 \
  --shards 4 --suppress 3 --seed 7 --jobs 2 --materialize > "$tmp2" 2> /dev/null
# First line names the tabulation path; every stat line below must agree.
if ! diff -u <(tail -n +2 "$tmp1") <(tail -n +2 "$tmp2"); then
  echo "ci: census streaming and materialized paths disagree" >&2
  exit 1
fi

# SpMV speedup gate: the point of the CSR representation is a large
# constant factor on the marginal-query systems; hold the bench matrix at
# >= 10x over the dense loop so a silent fallback to dense-shaped work
# fails loudly. The kernel itself asserts sparse == dense bitwise on every
# sample, so this snapshot is an equivalence check too.
dune exec bench/main.exe -- --no-tables --only linalg --json "$tmp2" > /dev/null
dune exec bin/pso_audit.exe -- validate-json "$tmp2"
pair_ok=0
for attempt in 1 2 3; do
  if dune exec bin/pso_audit.exe -- bench-pair "$tmp2" \
       experiments/spmv-dense experiments/spmv-sparse \
       --tolerance 0 --min-ratio 10; then
    pair_ok=1
    break
  fi
  if [ "$attempt" -lt 3 ]; then
    echo "ci: SpMV speedup attempt $attempt below 10x; re-measuring" >&2
    dune exec bench/main.exe -- --no-tables --only linalg --json "$tmp2" > /dev/null
  fi
done
if [ "$pair_ok" -ne 1 ]; then
  echo "ci: sparse SpMV failed the 10x speedup gate across 3 measurements" >&2
  exit 1
fi

echo "ci: ok (build + tests + jobs-determinism + golden tables + negative auditor + obs smoke + engine check + bench kernels + audit ledger + certificates + live telemetry + census scale + spmv gate)"
