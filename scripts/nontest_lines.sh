#!/usr/bin/env bash
# Counts the non-test Rust lines of the workspace, per crate and in total.
#
#   scripts/nontest_lines.sh
#
# Method: every `.rs` file under `crates/` and `src/` that is not under a
# `tests/` directory, each cut at its first column-0 `#[cfg(test)]` or
# `#[cfg(all(test` line (the unit-test module and everything after it).
# Every remaining line counts, blank lines and comments included.
# `benchmark/`, `examples/` and the workspace-level `tests/` are not counted.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -not -path '*/tests/*' -print0 |
        xargs -0 -r awk '
            FNR == 1 { cut = 0 }
            /^#\[cfg\(test\)\]/ || /^#\[cfg\(all\(test/ { cut = 1 }
            !cut { n++ }
            END { print n + 0 }' |
        awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/*/ src/; do
    dir=${dir%/}
    n=$(count "$dir")
    printf '%-20s %6d\n' "$dir" "$n"
    total=$((total + n))
done
printf '%-20s %6d\n' total "$total"
