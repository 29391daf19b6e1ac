#!/bin/sh
# nofma.sh checks that the functions on the sweep plan ≡ Posterior
# contract path compile without fused multiply-adds on arm64.
#
# The sweep and Posterior must produce bitwise-equal means and variances.
# arm64 has fused multiply-add instructions and the Go compiler may fuse
# x*y + z into one of them, rounding once instead of twice; whether it
# does depends on the surrounding code, so a blocked solve and a
# one-column solve could round differently. Writing the product as an
# explicit conversion, s += float64(a * b), forbids the fusion (Go spec,
# "Floating-point operators"). This script builds internal/linalg and
# internal/gp for arm64 with -gcflags=-S and fails when a listed function
# (or a closure inside it) contains FMADDD, FMSUBD, FNMADDD or FNMSUBD,
# or when a listed function is missing from the listing, so a rename
# cannot drop out of the check silently. Go replays the -S output from its
# build cache, so a warm run takes seconds.
#
# Usage: sh scripts/nofma.sh
set -eu

cd "$(dirname "$0")/.."

funcs='
linalg.Dot
linalg.(*Cholesky).forwardSolve1
linalg.(*Cholesky).forwardSolve4
linalg.(*Cholesky).ForwardSolveBatch
linalg.(*FusedSolver).SolveFused
linalg.(*FusedSolver).solveTile
gp.scaledSqDistInv
gp.(*SweepPlan).contextPartials
gp.fillSqDist
gp.Family.cov
gp.(*Kernel).EvalBatch
gp.(*GP).Posterior
gp.(*sweep).shard
gp.(*sweep).buildColumn
gp.(*sweep).solvePending
'

if ! listing=$(GOARCH=arm64 go build -gcflags=-S ./internal/linalg ./internal/gp 2>&1); then
    printf '%s\n' "$listing" >&2
    exit 1
fi

printf '%s\n' "$listing" | FUNCS=$funcs awk '
BEGIN {
	n = split(ENVIRON["FUNCS"], list)
	for (i = 1; i <= n; i++) want["repro/internal/" list[i]] = 1
}
# A line that starts in column one opens a symbol; instruction lines are
# indented. Closures compile to NAME.funcN and count toward NAME.
/^[^ \t]/ {
	cur = ""
	if ($2 != "STEXT") next
	sym = $1
	sub(/(\.func[0-9]+)+$/, "", sym)
	if (sym in want) { cur = sym; seen[sym] = 1 }
	next
}
cur != "" && /(FMADDD|FMSUBD|FNMADDD|FNMSUBD)/ { fused[cur]++ }
END {
	bad = 0
	for (f in want) {
		if (!(f in seen)) { printf "FAIL: %s is missing from the arm64 listing\n", f; bad = 1 }
		else if (fused[f] > 0) { printf "FAIL: %s has %d fused multiply-add(s) on arm64\n", f, fused[f]; bad = 1 }
	}
	if (bad) exit 1
	printf "nofma: %d functions free of fused multiply-adds on arm64\n", n
}'
