//go:build !amd64 || purego

package kernels

// gemmMicro is the micro-kernel the packed core calls: without the assembly
// body, the portable one.
func gemmMicro(kc int, a []float32, b *gemmRows, c []float32, ldc int, accumulate bool) {
	gemmMicroGo(kc, a, b, c, ldc, accumulate)
}

// gemmMicro2 runs the micro-kernel on two adjacent slabs over one panel
// (contract in gemm_amd64.go): here, the portable body twice.
func gemmMicro2(kc int, a0, a1 []float32, b *gemmRows, c []float32, ldc int, accumulate bool) {
	gemmMicroGo(kc, a0, b, c, ldc, accumulate)
	gemmMicroGo(kc, a1, b, c[gemmMR*ldc:], ldc, accumulate)
}

// fcMicro is the fully-connected micro-kernel (contract in fc.go): without
// the assembly body, the portable one.
func fcMicro(steps int, a []float32, ra, sa, rows int, b []float32, sb int, acc []float64) {
	fcMicroGo(steps, a, ra, sa, b, sb, 1, rows, fcNR, acc)
}

// maxChunks is max pooling's vector body (contract in pooling.go): none here.
func maxChunks(win, dst []float32, m, window, sh, sw int) int { return 0 }
