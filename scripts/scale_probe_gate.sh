#!/usr/bin/env bash
# Packet-level memory, event-count and behaviour gate: run `scale_probe N`
# and fail unless it prints a digest — at the default N = 20 000, exactly
# the recorded one, so an engine change that moves a single delivery fails
# here —, its peak and after-run heap per receiver stay within fixed bounds
# (1 147 / 1 065 B at 20 000 receivers when the bounds were set, 10 %
# headroom), and it dispatched at most 1.05 events per delivered packet.  The
# last bound guards the eventless drop-tail link: the engine counts one
# delivery per hop of the CBR star and nothing else — a fan-out's replicas
# share queue entries (fan-out runs) but still count once per node — (1.002
# today; 2.004 while a `LinkTxComplete` preceded each arrival), so a change
# that brings a per-packet link event back fails here.  Exact counts, not
# timings, so the gate cannot flake.
#
# Usage: scripts/scale_probe_gate.sh [RECEIVERS] [OUT_DIR]   (default: 20000 out/figs)
set -euo pipefail

cd "$(dirname "$0")/.."
n="${1:-20000}"
out_dir="${2:-out/figs}"
max_peak=1261
max_after=1171
max_events_per_delivery=1.05
# The digest `scale_probe 20000` prints; other sizes have none on record.
expected_digest_20000=fbf914ddd693c1fd
mkdir -p "$out_dir"

cargo build --release --quiet --example scale_probe
target/release/examples/scale_probe "$n" | tee "$out_dir/scale_probe_$n.txt"

# "<digest> <peak B/receiver> <after-run B/receiver> <events> <delivered>".
read -r digest peak after events delivered < <(
    awk -F'[(]' '/^digest=/ { sub("digest=", ""); digest = $0 }
                 /^heap:/ { peak = $3 + 0; after = $4 + 0 }
                 match($0, /events=[0-9]+/) { events = substr($0, RSTART + 7, RLENGTH - 7) }
                 match($0, /delivered=[0-9]+/) { delivered = substr($0, RSTART + 10, RLENGTH - 10) }
                 END { print digest, peak, after, events, delivered }' "$out_dir/scale_probe_$n.txt"
)

if [ -z "$digest" ] || [ -z "$after" ] || [ -z "$delivered" ]; then
    echo "error: scale_probe $n printed no digest, heap line or events=/delivered= counts" >&2
    exit 1
fi
if [ "$n" = 20000 ] && [ "$digest" != "$expected_digest_20000" ]; then
    echo "error: scale_probe 20000 digest $digest, expected $expected_digest_20000" >&2
    exit 1
fi
for triple in "peak $peak $max_peak" "after-run $after $max_after"; do
    read -r what got bound <<<"$triple"
    if [ "$got" -le 0 ] || [ "$got" -gt "$bound" ]; then
        echo "error: $what heap $got B/receiver is outside (0, $bound]" >&2
        exit 1
    fi
done
if ! per_delivery=$(awk -v e="$events" -v d="$delivered" -v max="$max_events_per_delivery" \
    'BEGIN { if (d <= 0) exit 1; r = e / d; printf "%.3f", r; exit !(r <= max) }'); then
    echo "error: $events events for $delivered deliveries (${per_delivery:-n/a} per delivery) exceeds $max_events_per_delivery" >&2
    exit 1
fi
echo "scale_probe $n: digest $digest; B/receiver: peak $peak (<= $max_peak), after run $after (<= $max_after); events/delivery $per_delivery (<= $max_events_per_delivery)"
