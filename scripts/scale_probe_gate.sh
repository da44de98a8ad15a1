#!/usr/bin/env bash
# Packet-level memory gate: run `scale_probe N` under the calendar and the
# heap scheduler and fail unless both print the same digest and the
# calendar's peak and after-run heap per receiver are at most 1.25x the
# heap's.  Exact allocator counts, not timings, so the gate cannot flake.
#
# Usage: scripts/scale_probe_gate.sh [RECEIVERS] [OUT_DIR]   (default: 20000 out/figs)
set -euo pipefail

cd "$(dirname "$0")/.."
n="${1:-20000}"
out_dir="${2:-out/figs}"
mkdir -p "$out_dir"

cargo build --release --quiet --example scale_probe
for scheduler in calendar heap; do
    target/release/examples/scale_probe "$n" "$scheduler" | tee "$out_dir/scale_probe_${n}_$scheduler.txt"
done

# Prints "<digest> <peak B/receiver> <after-run B/receiver>" of one run.
summary() {
    awk -F'[(]' '/^digest=/ { sub("digest=", ""); digest = $0 }
                 /^heap:/ { peak = $3 + 0; after = $4 + 0 }
                 END { print digest, peak, after }' "$out_dir/scale_probe_${n}_$1.txt"
}
read -r cal_digest cal_peak cal_after < <(summary calendar)
read -r heap_digest heap_peak heap_after < <(summary heap)

if [ -z "$cal_digest" ] || [ "$cal_digest" != "$heap_digest" ]; then
    echo "error: digests differ: calendar '$cal_digest', heap '$heap_digest'" >&2
    exit 1
fi
for pair in "peak $cal_peak $heap_peak" "after-run $cal_after $heap_after"; do
    read -r what cal heap <<<"$pair"
    if [ "$heap" -le 0 ] || [ $((cal * 4)) -gt $((heap * 5)) ]; then
        echo "error: calendar $what heap $cal B/receiver exceeds 1.25 x the heap scheduler's $heap" >&2
        exit 1
    fi
done
echo "scale_probe $n: digest $cal_digest; calendar/heap B/receiver: peak $cal_peak/$heap_peak, after run $cal_after/$heap_after"
