#!/bin/sh
# test_gate.sh runs one named test gate, `go test -count=1 -run PATTERN
# PKG`, after checking that every |-separated member of PATTERN matches at
# least one test in PKG. go test prints "[no tests to run]" and exits 0
# when a pattern matches nothing, so without this check a renamed or
# deleted test would drop out of its gate silently.
#
# Usage: sh scripts/test_gate.sh PKG PATTERN
set -eu

cd "$(dirname "$0")/.."

if [ $# -ne 2 ]; then
    echo "usage: sh scripts/test_gate.sh PKG PATTERN" >&2
    exit 2
fi
pkg=$1
pattern=$2

list=$(go test -list . "$pkg")
tests=$(printf '%s\n' "$list" | grep '^Test' || true)
missing=0
set -f
old_ifs=$IFS
IFS='|'
for member in $pattern; do
    if ! printf '%s\n' "$tests" | grep -Eq -- "$member"; then
        echo "FAIL: gate member '$member' matches no test in $pkg" >&2
        missing=1
    fi
done
IFS=$old_ifs
set +f
if [ "$missing" -ne 0 ]; then
    exit 1
fi

go test -count=1 -run "$pattern" "$pkg"
