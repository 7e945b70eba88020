#!/usr/bin/env bash
# Tier-1 gate plus end-to-end smoke tests:
#   1. dune build && dune runtest (includes the golden-table diff and the
#      stattest/property/CLI suites)
#   2. examples: each of the six examples/*.exe (the documented entry
#      points to the library) must run to completion with exit 0
#   3. quick-scale E2 tables from pso_audit run must be byte-identical at
#      --jobs 1 and --jobs 2 (the per-trial RNG fan-out guarantee, checked
#      end to end)
#   4. golden-table regression: the committed test/golden/*.txt snapshots
#      must match a fresh render (test/test_golden.exe check mode, whose
#      jobs = 4 pass and theorem battery run with telemetry and the audit
#      ledger on)
#   5. negative-auditor smoke: the ε-DP auditor must flag the deliberately
#      broken Laplace variant (exit 1), proving the audit has power
#   6. observability smoke: one quick experiment with --trace + --timeline
#      + --metrics, the trace must parse and the obs-timeline/v3 document
#      (whose final snapshot is the run's metrics record) must validate,
#      and the table on stdout must still match the committed golden
#      byte-for-byte (telemetry must not perturb results); then E5 at
#      --jobs 4 with --timeline, whose mechanisms journal their first runs
#      from several domains at once, must match its golden too
#   7. audit-ledger smoke: a quick E2 run with --ledger must produce a
#      ledger/v1 file that passes pso_audit ledger-verify and validate-json,
#      renders a ledger-report, and is byte-identical at --jobs 1 and 2
#   8. certificate gate: pso_audit certify must find (by complete
#      alignment search) and verify exactly an eps-DP coupling
#      certificate for every production mechanism and reject every
#      negative control (nonzero exit otherwise), and the
#      tampered-certificate smoke (certify --tamper) must reject every
#      corrupted witness
#   9. live-telemetry smoke: a quick E2 run with --prom + --timeline +
#      --watch (plus --ledger) must leave the golden table untouched, its
#      stderr must end the --watch heartbeat with the "(final)" line, both
#      artifacts must pass validate-json (prometheus-text and
#      obs-timeline/v3), and report-html must fuse the timeline
#      (sparklines and the final metric tables) and the ledger into a
#      self-contained page with every section present
#  10. census-scale smoke: the E14 table must be byte-identical at --jobs 1
#      and --jobs 2 and must match the committed golden, and the census
#      subcommand's stats for one seed must be byte-identical at --jobs 1
#      and --jobs 4, both under threshold-3 suppression and under exact
#      publication (--suppress 0, where propagation pins most cells); then
#      solver health: every box least-squares solve of quick E1, E10 and
#      E14 must converge before its iteration cap (--metrics reads
#      linalg.lsq_unconverged 0), and E10's and E14's census solves must
#      take their closed-form step instead of estimating it (--metrics
#      reads linalg.lsq_power_iterations 0), and quick E1's LP decodes
#      must prove optimality before the simplex pivot cap (--metrics
#      reads linalg.simplex_stalls 0)
#  11. start-up cost: pso_audit --help, run with the runtime's exit-time GC
#      report (OCAMLRUNPARAM=v=0x400), must peak at no more than 393,216
#      heap words (3 MiB): module initialisation builds no large tables
#      (every process linking the library, tests and benchmark included,
#      pays for what it builds), and the benchmark's setup_s and
#      peak_heap_mb measure the workload rather than start-up garbage
#  12. perf gates: bench/main.exe times every A/B pair of Stattest.Gate
#      interleaved and fails when a gate's whole 95% interval is on the
#      wrong side of its bound: SpMV sparse >= 10x dense (cross-checked
#      bitwise), the ledger and 10 Hz timeline overheads <= 10% on the
#      batched count, the three predicate engine steps and the bulk noise
#      draw (each cross-checked against the interpreter)
set -euo pipefail
cd "$(dirname "$0")/.."

dune build
dune runtest

tmp1=$(mktemp) tmp2=$(mktemp) trace=$(mktemp) metrics=$(mktemp)
trap 'rm -f "$tmp1" "$tmp2" "$trace" "$metrics"' EXIT

for ex in quickstart gdpr_audit census_story netflix_linkage reconstruction_story erasure_story; do
  if ! dune exec "examples/$ex.exe" > "$tmp1" 2>&1; then
    echo "ci: example $ex exited nonzero" >&2
    cat "$tmp1" >&2
    exit 1
  fi
done

dune exec bin/pso_audit.exe -- run E2 --quick --jobs 1 > "$tmp1"
dune exec bin/pso_audit.exe -- run E2 --quick --jobs 2 > "$tmp2"

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
# for the Chrome trace and a valid obs-timeline/v3 document (the run's
# metrics record), and (b) leave the experiment table byte-identical to
# the committed golden snapshot.
dune exec bin/pso_audit.exe -- run E2 --quick --seed 20210621 --jobs 2 \
  --trace "$trace" --timeline "$metrics" --metrics > "$tmp1" 2> /dev/null
dune exec bin/pso_audit.exe -- validate-json "$trace" "$metrics"
if ! diff -u test/golden/E2.txt "$tmp1"; then
  echo "ci: telemetry perturbed the E2 table (differs from test/golden/E2.txt)" >&2
  exit 1
fi
dune exec bin/pso_audit.exe -- run E5 --quick --seed 20210621 --jobs 4 \
  --timeline "$metrics" > "$tmp1" 2> /dev/null
dune exec bin/pso_audit.exe -- validate-json "$metrics"
if ! diff -u test/golden/E5.txt "$tmp1"; then
  echo "ci: telemetry at --jobs 4 perturbed the E5 table (differs from test/golden/E5.txt)" >&2
  exit 1
fi

# Audit-ledger smoke: journal a quick experiment, re-check the accountant
# arithmetic by replay, validate the JSONL shape, render the per-analyst
# report, and require the file to be byte-identical across --jobs (the
# ledger's logical-clock determinism, end to end).
ledger1=$(mktemp) ledger2=$(mktemp)
trap 'rm -f "$tmp1" "$tmp2" "$trace" "$metrics" "$ledger1" "$ledger2"' EXIT
dune exec bin/pso_audit.exe -- run E2 --seed 20210621 --jobs 1 \
  --ledger "$ledger1" > /dev/null 2> /dev/null
dune exec bin/pso_audit.exe -- run E2 --seed 20210621 --jobs 2 \
  --ledger "$ledger2" > /dev/null 2> /dev/null
if ! cmp -s "$ledger1" "$ledger2"; then
  echo "ci: ledger determinism violation: files differ between --jobs 1 and --jobs 2" >&2
  exit 1
fi
dune exec bin/pso_audit.exe -- ledger-verify "$ledger1"
dune exec bin/pso_audit.exe -- validate-json "$ledger1"
dune exec bin/pso_audit.exe -- ledger-report "$ledger1" > /dev/null

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

# Live-telemetry smoke: periodic snapshots, the Prometheus mirror and the
# --watch heartbeat must not perturb results (golden byte-identity), the
# heartbeat must close with its final-capture line, both exports must
# satisfy their validators, and the fused HTML report must carry every
# section (the metrics section is the timeline's final snapshot).
prom=$(mktemp) timeline=$(mktemp) report=$(mktemp) watch=$(mktemp)
trap 'rm -f "$tmp1" "$tmp2" "$trace" "$metrics" "$ledger1" "$ledger2" "$prom" "$timeline" "$report" "$watch"' EXIT
dune exec bin/pso_audit.exe -- run E2 --quick --seed 20210621 --jobs 2 \
  --prom "$prom" --timeline "$timeline" --watch --tick-ms 50 \
  --ledger "$ledger1" > "$tmp1" 2> "$watch"
if ! diff -u test/golden/E2.txt "$tmp1"; then
  echo "ci: live telemetry perturbed the E2 table (differs from test/golden/E2.txt)" >&2
  exit 1
fi
if ! grep -q '^\[obs\] watch tick=.*(final)$' "$watch"; then
  echo "ci: --watch printed no final heartbeat line" >&2
  cat "$watch" >&2
  exit 1
fi
dune exec bin/pso_audit.exe -- validate-json "$prom" "$timeline"
dune exec bin/pso_audit.exe -- report-html "$report" \
  --timeline "$timeline" --ledger "$ledger1" > /dev/null
for section in timeline metrics ledger; do
  if ! grep -q "id=\"$section\"" "$report"; then
    echo "ci: report-html is missing its $section section" >&2
    exit 1
  fi
done
if grep -q '<script' "$report" || grep -Eq 'https?://' "$report"; then
  echo "ci: report-html is not self-contained (script or external reference)" >&2
  exit 1
fi

# Census-scale smoke: the E14 table (streamed, sharded, warm-started) must
# be byte-identical across --jobs and match the committed golden, and the
# census subcommand, run end to end, must print the same stats at every
# --jobs (its wall-clock rows/sec goes to stderr), with and without
# suppression. Then solver health: no box solve of quick E1, E10 or E14 may
# stop at its iteration cap, and no census solve may estimate its step.
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
for suppress in 3 0; do
  dune exec bin/pso_audit.exe -- census --blocks 24 --mean-block-size 15 \
    --shards 4 --suppress "$suppress" --seed 7 --jobs 1 > "$tmp1" 2> /dev/null
  dune exec bin/pso_audit.exe -- census --blocks 24 --mean-block-size 15 \
    --shards 4 --suppress "$suppress" --seed 7 --jobs 4 > "$tmp2" 2> /dev/null
  if ! cmp -s "$tmp1" "$tmp2"; then
    echo "ci: determinism violation: census stats (--suppress $suppress) differ between --jobs 1 and --jobs 4" >&2
    exit 1
  fi
done
for exp in E1 E10 E14; do
  dune exec bin/pso_audit.exe -- run "$exp" --quick --seed 20210621 --metrics \
    > /dev/null 2> "$tmp1"
  if ! grep -Eq '^linalg\.lsq_unconverged +0$' "$tmp1"; then
    echo "ci: solver health: $exp has least-squares solves stopped at the iteration cap" >&2
    grep 'linalg\.lsq_unconverged' "$tmp1" >&2 || true
    exit 1
  fi
  if [ "$exp" != E1 ] && ! grep -Eq '^linalg\.lsq_power_iterations +0$' "$tmp1"; then
    echo "ci: solver health: $exp's census solves estimate their step size (its closed form is 4)" >&2
    grep 'linalg\.lsq_power_iterations' "$tmp1" >&2 || true
    exit 1
  fi
  if [ "$exp" = E1 ] && ! grep -Eq '^linalg\.simplex_stalls +0$' "$tmp1"; then
    echo "ci: solver health: E1 has LP decodes stopped at the simplex pivot cap" >&2
    grep 'linalg\.simplex_stalls' "$tmp1" >&2 || true
    exit 1
  fi
done

# Start-up cost: the built binary directly (dune exec would add dune's own
# GC report to stderr).
OCAMLRUNPARAM=v=0x400 _build/default/bin/pso_audit.exe --help > /dev/null 2> "$tmp1"
top_heap_words=$(awk '$1 == "top_heap_words:" { print $2 }' "$tmp1")
if [ -z "$top_heap_words" ] || [ "$top_heap_words" -gt 393216 ]; then
  echo "ci: start-up cost: pso_audit --help peaked at ${top_heap_words:-?} heap words (limit 393216)" >&2
  cat "$tmp1" >&2
  exit 1
fi

# Perf gates: every A/B pair of Stattest.Gate, timed interleaved in one
# run; a gate fails only when its whole interval clears the bound the
# wrong way, so host load reads as unresolved, not as a regression.
dune exec bench/main.exe

echo "ci: ok (build + tests + examples + jobs-determinism + golden tables + negative auditor + obs smoke + audit ledger + certificates + live telemetry + census scale + solver health + start-up cost + perf gates)"
