#!/usr/bin/env bash
# Header self-containment lint: every public header under src/ must compile
# as the sole content of a translation unit.  A header that sneaks a
# dependency in through its includer's include order breaks exactly this
# check, so running it in CI keeps "include what you use" true for the
# library's entire public surface.
#
# Usage: scripts/header_lint.sh [compiler]   (default: c++)
set -euo pipefail

cd "$(dirname "$0")/.."
CXX="${1:-${CXX:-c++}}"

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

failures=0
checked=0
while IFS= read -r header; do
  rel="${header#src/}"
  tu="$tmpdir/tu.cpp"
  printf '#include "%s"\n' "$rel" > "$tu"
  checked=$((checked + 1))
  if ! "$CXX" -std=c++20 -fsyntax-only -Isrc -Wall -Wextra -Werror "$tu" \
      2> "$tmpdir/err.txt"; then
    failures=$((failures + 1))
    echo "NOT SELF-CONTAINED: $header"
    sed 's/^/    /' "$tmpdir/err.txt"
  fi
done < <(find src -name '*.h' | sort)

echo "header_lint: $checked headers checked, $failures failures"
exit "$((failures > 0 ? 1 : 0))"
