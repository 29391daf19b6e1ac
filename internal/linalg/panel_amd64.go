package linalg

// cpuidex executes CPUID with the given leaf/subleaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register XCR0.
func xgetbv0() (eax, edx uint32)

// panelSolveAVX solves L·x = y in place for PanelWidth interleaved
// right-hand sides: panel holds n rows of PanelWidth columns, l is the
// packed row-major lower triangle. Implemented in panel_amd64.s with one
// AVX lane per column and no FMA contraction, so each column performs the
// exact per-element IEEE-754 operation sequence of forwardSolve1.
//
//go:noescape
func panelSolveAVX(l []float64, n int, panel []float64)

// panelSolveAVX512 is the same kernel at twice the vector width; the
// per-column operation sequence — and therefore the result — is unchanged.
//
//go:noescape
func panelSolveAVX512(l []float64, n int, panel []float64)

// DetectCPU runs CPUID and XGETBV and reports the vector extensions that
// both the CPU and the OS support. It reads the hardware directly, so
// GODEBUG's cpu.* settings, which switch off the runtime's and the math
// package's own use of an extension, do not change its answer.
func DetectCPU() CPUFeatures {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return CPUFeatures{}
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const fma = 1 << 12
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return CPUFeatures{}
	}
	xeax, _ := xgetbv0()
	// XCR0 bits 1 (XMM) and 2 (YMM) must both be OS-enabled.
	if xeax&6 != 6 {
		return CPUFeatures{}
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2 = 1 << 5
	// AVX-512F additionally needs the opmask/zmm-high state (XCR0 bits 5–7).
	const avx512f = 1 << 16
	return CPUFeatures{
		AVX2:    ebx7&avx2 != 0,
		FMA:     ecx1&fma != 0,
		AVX512F: ebx7&avx512f != 0 && xeax&0xe0 == 0xe0,
	}
}

func panelSolve(c *Cholesky, panel []float64) {
	if panelKernel == panelKernelAVX512 {
		panelSolveAVX512(c.l, c.n, panel)
		return
	}
	panelSolveAVX(c.l, c.n, panel)
}
