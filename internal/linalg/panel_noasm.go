//go:build !amd64

package linalg

// DetectCPU reports no x86 vector extension off amd64, so the fused
// solver always takes the ForwardSolveBatch fallback, which is bitwise
// identical per column.
func DetectCPU() CPUFeatures { return CPUFeatures{} }

func panelSolve(c *Cholesky, panel []float64) {
	panic("linalg: panel kernel unavailable on this architecture")
}
