#!/usr/bin/env bash
# Quick-scale smoke of every figure: run each fig* name of `figs list`, and
# the scenario_search annealing run, on the parallel sweep runner (--quick
# --threads 2), write its CSV and JSON into OUT_DIR, and fail loudly if any
# run exits non-zero, if any expected output file is missing or empty, or if
# any JSON differs from the SHA-256 pinned for it in
# scripts/figs_quick.sha256.  Then run every name again on the serial path
# (--threads 1, into OUT_DIR/threads1) against the same pins: results must
# not depend on the thread count.  Figures are deterministic, so a changed
# hash means some figure moved; if that is on purpose, re-record the pins
# with
#     (cd OUT_DIR && sha256sum fig*.json scenario_search.json) > scripts/figs_quick.sha256
#
# Usage: scripts/smoke_figs.sh [OUT_DIR]   (default: out/figs)
set -euo pipefail

cd "$(dirname "$0")/.."
out_dir="${1:-out/figs}"
mkdir -p "$out_dir"

# One build up front so per-figure timing below is pure runtime.
cargo build --release --quiet -p tfmcc-experiments --bin figs
figs() {
    cargo run --release --quiet -p tfmcc-experiments --bin figs -- "$@"
}

mapfile -t names < <(figs list | grep -x 'fig.*\|scenario_search')
if [ "${#names[@]}" -eq 0 ]; then
    echo "error: figs list names no figure" >&2
    exit 1
fi
# Guard against the registry silently losing key scenarios: the large-scale
# churn workload, the multi-session fairness workload, the cross-protocol
# fairness matrix and the worst-case search must always be part of the
# smoke.
for required in fig22_churn fig23_intertfmcc fig24_fairness_matrix scenario_search; do
    if ! printf '%s\n' "${names[@]}" | grep -qx "$required"; then
        echo "error: $required missing from figs list" >&2
        exit 1
    fi
done
echo "smoking ${#names[@]} figures into $out_dir"

status=0
pins="$PWD/scripts/figs_quick.sha256"
# smoke THREADS DIR: every name at --threads THREADS into DIR, then the pins.
smoke() {
    local threads="$1" dir="$2"
    mkdir -p "$dir"
    for name in "${names[@]}"; do
        csv="$dir/$name.csv"
        json="$dir/$name.json"
        rm -f "$csv" "$json"
        if ! figs "$name" --quick --threads "$threads" --out "$json" > "$csv"; then
            echo "FAIL $name --threads $threads (non-zero exit)" >&2
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
            echo "FAIL $name --threads $threads:$missing" >&2
            status=1
            continue
        fi
        echo "ok   $name --threads $threads"
    done
    if ! drift=$(cd "$dir" && sha256sum "${names[@]/%/.json}" | diff "$pins" -); then
        echo "FAIL figure JSON at --threads $threads differs from $pins:" >&2
        echo "$drift" >&2
        status=1
    else
        echo "ok   ${#names[@]} JSONs at --threads $threads match $pins"
    fi
}

smoke 2 "$out_dir"
smoke 1 "$out_dir/threads1"
exit "$status"
