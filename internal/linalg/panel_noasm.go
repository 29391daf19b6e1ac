//go:build !amd64

package linalg

// Without the amd64 kernel the fused solver always takes the
// ForwardSolveBatch fallback, which is bitwise identical per column.
func detectPanelKernel() int { return panelKernelNone }

func panelSolve(c *Cholesky, panel []float64) {
	panic("linalg: panel kernel unavailable on this architecture")
}
