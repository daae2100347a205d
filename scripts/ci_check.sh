#!/usr/bin/env bash
# CI gate: lint, tier-1 tests and the benchmark regression gate.
#
# Mirrors the hosted pipeline (.github/workflows/ci.yml) so local and CI
# gates stay identical: static checks (ruff + compileall), the full test
# suite, then a fresh pytest-benchmark JSON diffed against the committed
# baseline (benchmarks/baselines/baseline.json) with
# scripts/bench_compare.py.  Exits non-zero when any stage fails or when a
# benchmark of the gated groups regresses beyond the threshold.
#
# Environment knobs:
#   BENCH_THRESHOLD  maximum tolerated relative slowdown (default 0.35 —
#                    looser than bench_compare's 0.20 default because the
#                    committed baseline was recorded on a different host).
#   BENCH_GROUPS     space-separated benchmark groups to gate on
#                    (default: "verification engines kernel expansion dedupe
#                    service spec table1 fig3 ta"; table1 and fig3 are the
#                    groups that run the dwell analysis, ta the timed-automata
#                    model checker).
#   BENCH_JSON       where to write the fresh export (default: a temp file).
#   BENCH_REPORT     optional path for bench_compare's --json-out summary
#                    (uploaded as a CI artifact).
#   SKIP_TESTS=1     only run lint + the benchmark gate (e.g. after a
#                    test-only CI stage already ran the suite and the
#                    sanitizer run of the native loops).
#   SKIP_LINT=1      skip the static checks (ruff + compileall + a
#                    warnings-as-errors compile of src/repro/_native.c).
#
# When $GITHUB_STEP_SUMMARY is set (GitHub Actions), the gate also appends
# its markdown table there.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

BASELINE="benchmarks/baselines/baseline.json"
THRESHOLD="${BENCH_THRESHOLD:-0.35}"
# (Not named GROUPS: that is a readonly bash builtin.)
GATE_GROUPS=(${BENCH_GROUPS:-verification engines kernel expansion dedupe service spec table1 fig3 ta})
CURRENT="${BENCH_JSON:-$(mktemp /tmp/bench-current.XXXXXX.json)}"

if [[ ! -f "$BASELINE" ]]; then
    echo "error: committed baseline $BASELINE is missing" >&2
    exit 2
fi

if [[ "${SKIP_LINT:-0}" != "1" ]]; then
    echo "== lint =="
    if command -v ruff >/dev/null 2>&1; then
        ruff check src tests benchmarks scripts examples
    else
        echo "ruff not installed; skipping (the hosted lint job enforces it)"
    fi
    python -m compileall -q src tests benchmarks scripts examples
    cc -std=c11 -O2 -Wall -Wextra -Werror -shared -fPIC -o /dev/null src/repro/_native.c
fi

if [[ "${SKIP_TESTS:-0}" != "1" ]]; then
    echo "== tier-1 tests =="
    python -m pytest tests -x -q
    echo "== native loops under AddressSanitizer and UBSan =="
    python scripts/sanitize_native.py
fi

echo "== benchmarks =="
python -m pytest benchmarks -q --benchmark-json="$CURRENT"

echo "== regression gate (threshold ${THRESHOLD}) =="
GROUP_ARGS=()
for group in "${GATE_GROUPS[@]}"; do
    GROUP_ARGS+=(--group "$group")
done
EXTRA_ARGS=()
if [[ -n "${BENCH_REPORT:-}" ]]; then
    EXTRA_ARGS+=(--json-out "$BENCH_REPORT")
fi
if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
    EXTRA_ARGS+=(--github-summary)
fi
python scripts/bench_compare.py "$BASELINE" "$CURRENT" \
    "${GROUP_ARGS[@]}" --threshold "$THRESHOLD" \
    ${EXTRA_ARGS[@]+"${EXTRA_ARGS[@]}"}
