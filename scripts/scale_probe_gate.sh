#!/usr/bin/env bash
# Packet-level memory gate: run `scale_probe N` and fail unless it prints a
# digest and its peak and after-run heap per receiver stay within fixed
# bounds (3140 / 2983 B at 20 000 receivers when the bounds were set, ~10 %
# headroom).  Exact allocator counts, not timings, so the gate cannot flake.
#
# Usage: scripts/scale_probe_gate.sh [RECEIVERS] [OUT_DIR]   (default: 20000 out/figs)
set -euo pipefail

cd "$(dirname "$0")/.."
n="${1:-20000}"
out_dir="${2:-out/figs}"
max_peak=3500
max_after=3300
mkdir -p "$out_dir"

cargo build --release --quiet --example scale_probe
target/release/examples/scale_probe "$n" | tee "$out_dir/scale_probe_$n.txt"

# "<digest> <peak B/receiver> <after-run B/receiver>" of the run.
read -r digest peak after < <(
    awk -F'[(]' '/^digest=/ { sub("digest=", ""); digest = $0 }
                 /^heap:/ { peak = $3 + 0; after = $4 + 0 }
                 END { print digest, peak, after }' "$out_dir/scale_probe_$n.txt"
)

if [ -z "$digest" ] || [ -z "$after" ]; then
    echo "error: scale_probe $n printed no digest or heap line" >&2
    exit 1
fi
for triple in "peak $peak $max_peak" "after-run $after $max_after"; do
    read -r what got bound <<<"$triple"
    if [ "$got" -le 0 ] || [ "$got" -gt "$bound" ]; then
        echo "error: $what heap $got B/receiver is outside (0, $bound]" >&2
        exit 1
    fi
done
echo "scale_probe $n: digest $digest; B/receiver: peak $peak (<= $max_peak), after run $after (<= $max_after)"
