#!/bin/sh
# nofma.sh checks that the functions on the sweep plan ≡ Posterior
# contract path compile without fused multiply-adds on arm64.
#
# The sweep and Posterior must produce bitwise-equal means and variances
# on the same host; this script guards that within-architecture contract.
# Digests and checkpoint continuation are reproducible per architecture
# and per math.Exp path, not across them: arm64's math.Exp runs another
# algorithm than amd64's, and amd64's own FMA and non-FMA sequences round
# differently, so the recorded tables hold for linux/amd64 with FMA.
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
# The amd64 assembly (internal/gp/cov_amd64.s) uses FMA only inside its
# copy of math.Exp's amd64 FMA sequence, which fuses exactly where
# math.Exp does; off amd64, and wherever the init probe finds math.Exp on
# another sequence, the scalar Go loops listed here run instead.
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
gp.Family.covScalar
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
