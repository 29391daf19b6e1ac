//go:build !amd64

package gp

// Off amd64 linalg.DetectCPU reports no vector extension, covVector stays
// false, and the Go loops set every element.

func covAVX2(f Family, d2s []float64) int { return 0 }

func fillVector23(col, c0, c1, e0, e1, o0, o1, o2 []float64) int { return 0 }
