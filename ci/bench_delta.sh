#!/usr/bin/env bash
# Gate repeated smoke-bench runs against the committed baseline: print the
# baseline frames/sec, the median and min–max of the runs and the delta of
# the median, and FAIL when the median dropped more than 25%, e.g.:
#
#   bench serve: frames/sec baseline 583.82, median 595.61 (min–max 541.15–653.75) over 5 runs (+2.0%)
#   bench net: frames/sec baseline 946.66, median 630.59 (min–max 536.1–764.72) over 5 runs (-33.4%)  REGRESSION (tolerance -25%)
#
# Usage: ci/bench_delta.sh <baseline.json> <label> <run.json>...
#
# The baseline is the BENCH_<label>.json committed in git, copied aside
# before the smoke runs overwrite it. A change that accepts a throughput
# change re-blesses that file in the same commit. A baseline compares only
# with runs on the host class it was blessed on. A missing or unreadable
# baseline or run file fails the gate.
set -euo pipefail

baseline="${1:?baseline json}"
label="${2:?label}"
shift 2
if [ "$#" -eq 0 ]; then
    echo "bench $label: FAIL — no run files given"
    exit 1
fi

fps() {
    # The files are flat one-field-per-line JSON written by
    # mgpu_bench::JsonObject; no jq in the base image, sed suffices.
    sed -n 's/^[[:space:]]*"frames_per_sec":[[:space:]]*\([0-9.][0-9.]*\).*$/\1/p' "$1" | head -1
}

for f in "$baseline" "$@"; do
    if [ ! -f "$f" ]; then
        echo "bench $label: FAIL — $f missing"
        exit 1
    fi
    if [ -z "$(fps "$f")" ]; then
        echo "bench $label: FAIL — $f has no frames_per_sec field"
        exit 1
    fi
done

before="$(fps "$baseline")"
for f in "$@"; do fps "$f"; done | sort -g | awk -v b="$before" -v l="$label" '
    { v[NR] = $1 }
    END {
        median = (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
        line = sprintf("bench %s: frames/sec baseline %.5g, median %.5g (min–max %.5g–%.5g) over %d runs", l, b, median, v[1], v[NR], NR)
        if (b + 0 <= 0) {
            printf "%s  FAIL — baseline frames/sec is not positive\n", line
            exit 1
        }
        delta = (median - b) / b * 100
        if (delta < -25) {
            printf "%s (%+.1f%%)  REGRESSION (tolerance -25%%)\n", line, delta
            exit 1
        }
        printf "%s (%+.1f%%)\n", line, delta
    }'
