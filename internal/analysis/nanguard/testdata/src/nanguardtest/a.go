package nanguardtest

import "math"

func unguardedSqrt(x float64) float64 {
	return math.Sqrt(x) // want `math.Sqrt result can be NaN`
}

func guardedSqrt(x float64) float64 {
	if x < 0 {
		return 0
	}
	return math.Sqrt(x) // guard dominates: fine
}

func clampedSqrt(v float64) float64 {
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v) // clamped first: fine
}

func sumOfSquares(x float64) float64 {
	return math.Sqrt(x*x + 1e-9) // non-negative by construction: fine
}

func postChecked(x float64) float64 {
	s := math.Sqrt(x) // checked below: fine
	if math.IsNaN(s) {
		return 0
	}
	return s
}

func unguardedLog(x float64) float64 {
	return math.Log(x) // want `math.Log result can be NaN`
}

func guardedLog(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	return math.Log(x)
}

func unguardedDivision(a, b float64) float64 {
	return a / b // want `division result can be NaN`
}

func guardedDivision(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func intDerivedDenominator(a float64, n int) float64 {
	return a / float64(n) // integer-derived denominator: exempt
}

func epsBounded(a, d float64) float64 {
	return a / (d*d + 1e-12) // bounded away from zero: fine
}

func waivedSqrt(d2 float64) float64 {
	//edgebol:allow nanguard -- fixture: d2 is a sum of squares, non-negative by construction
	return math.Sqrt(3 * d2)
}

func guardAfterUse(a, b float64) float64 {
	r := a / b // want `division result can be NaN`
	if b == 0 {
		return 0
	}
	return r
}

func guardedInRangeLoop(ls []float64) []float64 {
	out := make([]float64, len(ls))
	for i, l := range ls {
		if l <= 0 {
			return nil
		}
		out[i] = 1 / l // guard in the loop body dominates: fine
	}
	return out
}

func unguardedInRangeLoop(ls []float64) []float64 {
	out := make([]float64, len(ls))
	for i, l := range ls {
		out[i] = 1 / l // want `division result can be NaN`
	}
	return out
}
