package gp

// covAVX2 applies f's covariance in place to the leading whole 4-lane
// blocks of d2s, stopping at the first block whose exp argument has a
// lane outside [−708, 0] or a NaN lane. It returns how many elements it
// set. Implemented in cov_amd64.s with AVX2 and FMA; each lane repeats
// covScalar's operations, math.Exp's FMA sequence included.
//
//go:noescape
func covAVX2(f Family, d2s []float64) int

// fill23AVX2 runs fillSqDist's (2, 3) sum over the leading whole 4-lane
// blocks of col and returns how many elements it set. Every operand must
// be at least as long as col.
//
//go:noescape
func fill23AVX2(col, c0, c1, e0, e1, o0, o1, o2 []float64) int

// fillVector23 runs the (2, 3) fill's vector body when covVector is set
// and returns how many leading elements of col it set, 0 otherwise. An
// operand shorter than col panics, as the scalar loop's index would,
// instead of being read past its end.
func fillVector23(col, c0, c1, e0, e1, o0, o1, o2 []float64) int {
	if !covVector {
		return 0
	}
	n := len(col)
	if len(c0) < n || len(c1) < n || len(e0) < n || len(e1) < n || len(o0) < n || len(o1) < n || len(o2) < n {
		panic("gp: fillSqDist operand shorter than its column")
	}
	return fill23AVX2(col, c0, c1, e0, e1, o0, o1, o2)
}
