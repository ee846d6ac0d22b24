#!/usr/bin/env bash
# Count the product crates: non-test lines and `pub` items per crate.
#
#   bash scripts/product-size.sh                   print the table
#   bash scripts/product-size.sh MAX_LINES MAX_ITEMS
#                                                  also fail above either total
#
# Lines are every line of each `src/**/*.rs` file up to its first
# `#[cfg(test)]` that opens a `mod` (blank lines and comments count).
# A `pub` item is a line that opens `pub fn|struct|enum|trait|type|
# const|static|mod|use`; `pub(crate)` and fields do not count.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

total_lines=0
total_items=0
printf '%-10s %6s %6s\n' crate lines pub
for c in lang bdd core routing dataplane net service telemetry; do
  read -r lines items < <(find "crates/$c/src" -name '*.rs' | sort | xargs awk '
    FNR == 1 { stop = 0; cfg_test = 0 }
    stop { next }
    cfg_test && /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/ { stop = 1; lines--; next }
    { cfg_test = /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/; lines++ }
    /^[[:space:]]*pub[[:space:]]+(fn|struct|enum|trait|type|const|static|mod|use)[[:space:]]/ { items++ }
    END { print lines + 0, items + 0 }')
  printf '%-10s %6d %6d\n' "$c" "$lines" "$items"
  total_lines=$((total_lines + lines))
  total_items=$((total_items + items))
done
printf '%-10s %6d %6d\n' total "$total_lines" "$total_items"

if [ $# -eq 2 ]; then
  if [ "$total_lines" -gt "$1" ] || [ "$total_items" -gt "$2" ]; then
    echo "product crates grew: $total_lines lines and $total_items pub items (ratchet: $1 and $2)" >&2
    exit 1
  fi
fi
