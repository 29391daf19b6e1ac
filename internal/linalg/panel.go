package linalg

import "fmt"

// PanelWidth is the number of right-hand-side columns the fused tiled
// forward solve advances together through the packed factor. 32 columns
// (256 bytes, four cache lines per panel row) is wide enough that the
// vectorized kernel streams the triangular factor from memory once per
// tile instead of once per block of 4, and narrow enough that the
// interleaved panel for EdgeBOL's training windows stays cache-resident.
const PanelWidth = 32

// Panel-kernel selection levels, in increasing capability. The amd64
// AVX2 level needs the register-form VBROADCASTSD; both vector levels need
// OS-managed vector state in XCR0. Other architectures always detect
// panelKernelNone.
const (
	panelKernelNone = iota
	panelKernelAVX2
	panelKernelAVX512
)

// panelKernel is the vector kernel the fused solver dispatches to;
// panelKernelNone disables the tiled path. Tests toggle it to pin the
// scalar fallback and the narrower kernel against the widest one.
var panelKernel = detectPanelKernel()

// CPUFeatures lists the x86 vector extensions that the host CPU implements
// and whose register state its OS saves: each field is true only when
// both hold. It is the module's one CPU probe; the panel solver and gp's
// covariance kernel both dispatch on it.
type CPUFeatures struct {
	AVX2    bool // AVX2, with the XMM and YMM state enabled in XCR0
	FMA     bool // FMA3, with the XMM and YMM state enabled in XCR0
	AVX512F bool // AVX-512F, with the opmask and ZMM state enabled as well
}

// detectPanelKernel returns the widest panel kernel the CPU and the OS
// support. The AVX-512 kernel is taken only next to AVX2.
func detectPanelKernel() int {
	cpu := DetectCPU()
	switch {
	case cpu.AVX2 && cpu.AVX512F:
		return panelKernelAVX512
	case cpu.AVX2:
		return panelKernelAVX2
	}
	return panelKernelNone
}

// FusedSolver runs the fused posterior-sweep kernel
//
//	mu[j]  = ⟨cols[j], alpha⟩
//	x_j    = L⁻¹·cols[j]
//	vsq[j] = ‖x_j‖²
//
// for a set of right-hand-side columns against one Cholesky factor. The
// mean dot product is folded into the pass that interleaves each tile of
// PanelWidth columns into a row-major panel, and the squared solve norm
// into the pass that reads the solved panel back, so a tile costs exactly
// one extra panel write + read over the solve itself.
//
// The zero value is ready to use; the struct only carries the interleaved
// panel scratch so repeated tiles reuse one allocation. A FusedSolver must
// not be shared between goroutines (each posterior-sweep worker owns one).
type FusedSolver struct {
	panel []float64
}

// SolveFused consumes cols (each of length c.Size()), writing the fused
// results into mu and vsq (each of length len(cols)). The contents of cols
// afterwards are unspecified.
//
// Full tiles of PanelWidth columns go through the interleaved-panel kernel
// when the CPU supports it; the remainder (and every column on CPUs
// without AVX2) goes through the ForwardSolveBatch block path. Per column
// the arithmetic — accumulation order, one reciprocal multiply per row —
// is identical on every path, so results are bitwise independent of the
// tiling, of how callers batch columns, and of the instruction set.
func (s *FusedSolver) SolveFused(c *Cholesky, cols [][]float64, alpha, mu, vsq []float64) {
	if len(mu) != len(cols) || len(vsq) != len(cols) {
		panic(fmt.Sprintf("linalg: SolveFused output lengths %d, %d do not match %d columns", len(mu), len(vsq), len(cols)))
	}
	if len(alpha) != c.n {
		panic(fmt.Sprintf("linalg: SolveFused alpha length %d does not match size %d", len(alpha), c.n))
	}
	for _, y := range cols {
		if len(y) != c.n {
			panic(fmt.Sprintf("linalg: SolveFused column length %d does not match size %d", len(y), c.n))
		}
	}
	if panelKernel != panelKernelNone && c.n > 0 {
		for len(cols) >= PanelWidth {
			s.solveTile(c, cols[:PanelWidth], alpha, mu, vsq)
			cols, mu, vsq = cols[PanelWidth:], mu[PanelWidth:], vsq[PanelWidth:]
		}
	}
	for j, y := range cols {
		mu[j] = Dot(y, alpha)
	}
	c.ForwardSolveBatch(cols)
	for j, y := range cols {
		vsq[j] = Dot(y, y)
	}
}

// solveTile handles exactly PanelWidth columns: interleave (fusing the mean
// dot product), solve the panel in place, read back ‖x_j‖² row-major (the
// same ascending-index accumulation chain as Dot(x, x)).
func (s *FusedSolver) solveTile(c *Cholesky, cols [][]float64, alpha, mu, vsq []float64) {
	n := c.n
	if cap(s.panel) < n*PanelWidth {
		s.panel = make([]float64, n*PanelWidth)
	}
	panel := s.panel[:n*PanelWidth]
	for j, y := range cols {
		var m float64
		for i, v := range y {
			panel[i*PanelWidth+j] = v
			m += float64(v * alpha[i])
		}
		mu[j] = m
	}
	panelSolve(c, panel)
	var acc [PanelWidth]float64
	for i := 0; i < n; i++ {
		row := panel[i*PanelWidth : i*PanelWidth+PanelWidth : i*PanelWidth+PanelWidth]
		for j, v := range row {
			acc[j] += float64(v * v)
		}
	}
	copy(vsq[:PanelWidth], acc[:])
}
