#!/usr/bin/env bash
# Quick-scale smoke of every experiment binary: run each fig* bin on the
# parallel sweep runner (--quick --threads 2), write its CSV and JSON into
# OUT_DIR, and fail loudly if any binary exits non-zero or if any expected
# output file is missing or empty.
#
# Usage: scripts/smoke_figs.sh [OUT_DIR]   (default: out/figs)
set -euo pipefail

cd "$(dirname "$0")/.."
out_dir="${1:-out/figs}"
mkdir -p "$out_dir"

bins=()
for src in crates/tfmcc-experiments/src/bin/fig*.rs; do
    bins+=("$(basename "$src" .rs)")
done
if [ "${#bins[@]}" -eq 0 ]; then
    echo "error: no fig* binaries found" >&2
    exit 1
fi
# Guard against the glob silently losing key scenarios: the large-scale
# churn workload, the multi-session fairness workload and the
# cross-protocol fairness matrix must always be part of the smoke.
for required in fig22_churn fig23_intertfmcc fig24_fairness_matrix; do
    if ! printf '%s\n' "${bins[@]}" | grep -qx "$required"; then
        echo "error: $required missing from the experiment binaries" >&2
        exit 1
    fi
done
echo "smoking ${#bins[@]} experiment binaries into $out_dir"

# One build up front so per-bin timing below is pure runtime.
cargo build --release --quiet -p tfmcc-experiments

status=0
for bin in "${bins[@]}"; do
    csv="$out_dir/$bin.csv"
    json="$out_dir/$bin.json"
    rm -f "$csv" "$json"
    if ! cargo run --release --quiet -p tfmcc-experiments --bin "$bin" -- \
        --quick --threads 2 --out "$json" > "$csv"; then
        echo "FAIL $bin (non-zero exit)" >&2
        status=1
        continue
    fi
    missing=""
    for f in "$csv" "$json"; do
        if ! [ -e "$f" ]; then
            missing+=" $(basename "$f") (missing)"
        elif ! [ -s "$f" ]; then
            missing+=" $(basename "$f") (empty)"
        fi
    done
    if [ -n "$missing" ]; then
        echo "FAIL $bin:$missing" >&2
        status=1
        continue
    fi
    echo "ok   $bin"
done
exit "$status"
