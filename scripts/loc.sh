#!/usr/bin/env bash
# Non-test line count: the lines of every `.rs` file under crates/*/src,
# src/ and examples/ that come before the file's first `#[cfg(test)]`
# (blank lines and comments included), printed per crate and in total.
# `src` is the facade crate; `examples` the root examples.  Vendored crates
# and perfbench/ are not counted.
#
# Usage: scripts/loc.sh
set -euo pipefail

cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }' | awk '{ n += $1 } END { print n + 0 }'
}

total=0
for dir in crates/*/src src examples; do
    case "$dir" in
        crates/*) name="${dir#crates/}"; name="${name%/src}" ;;
        *) name="$dir" ;;
    esac
    n=$(count "$dir")
    printf '%-20s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-20s %6d\n' total "$total"
