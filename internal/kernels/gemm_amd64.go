//go:build amd64 && !purego

package kernels

// useAVX2 and useAVX512 are decided once at start-up.  useAVX2: the CPU has
// AVX2 and FMA (VFMADD231PS and VFMADD231PD) and the OS saves the YMM state.
// useAVX512, for gemmMicro2's ZMM body: AVX-512F too, and the OS saves the
// opmask and ZMM states (XCR0 bits 5–7) as well.
var useAVX2, useAVX512 = vectorISA()

func vectorISA() (avx2, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&fma == 0 || ecx&osxsave == 0 || ecx&avx == 0 {
		return false, false
	}
	const xmmYmmState, zmmState = 0b110, 0b1110_0110
	const avx2Bit, avx512fBit = 1 << 5, 1 << 16
	xcr0, _ := xgetbv()
	_, ebx, _, _ := cpuid(7, 0)
	avx2 = xcr0&xmmYmmState == xmmYmmState && ebx&avx2Bit != 0
	return avx2, avx2 && xcr0&zmmState == zmmState && ebx&avx512fBit != 0
}

// gemmMicro is the micro-kernel the packed core calls; gemmMicroGo documents
// its contract.  The assembly body reads kc·gemmMR floats of a, b's first kc
// rows and touches gemmNR floats in each of gemmMR rows of c; the slice
// expressions below are the bounds checks it does not do itself, and each row
// of b is a whole array.
func gemmMicro(kc int, a []float32, b *gemmRows, c []float32, ldc int, accumulate bool) {
	if !useAVX2 {
		gemmMicroGo(kc, a, b, c, ldc, accumulate)
		return
	}
	_, _, _ = a[:kc*gemmMR], b[:kc], c[:(gemmMR-1)*ldc+gemmNR]
	gemmMicroAVX2(kc, &a[0], b, &c[0], ldc, accumulate)
}

// gemmMicro2 runs the micro-kernel on two adjacent slabs, a0's rows of C at c
// and a1's gemmMR rows below them, over one panel: the 12×16 ZMM body where
// the host has AVX-512, gemmMicro twice elsewhere.  Each slab's rows keep
// gemmMicroGo's contract, so the result is the same bits either way.
func gemmMicro2(kc int, a0, a1 []float32, b *gemmRows, c []float32, ldc int, accumulate bool) {
	if !useAVX512 {
		gemmMicro(kc, a0, b, c, ldc, accumulate)
		gemmMicro(kc, a1, b, c[gemmMR*ldc:], ldc, accumulate)
		return
	}
	_, _, _, _ = a0[:kc*gemmMR], a1[:kc*gemmMR], b[:kc], c[:(2*gemmMR-1)*ldc+gemmNR]
	gemmMicroAVX512(kc, &a0[0], &a1[0], b, &c[0], ldc, accumulate)
}

// fcMicro is the fully-connected micro-kernel (contract in fc.go).  The
// assembly body reads fcMR rows of a, a partial block repeating its last, and
// steps runs of fcNR floats of b; the slice expressions below are the bounds
// checks it does not do itself.
func fcMicro(steps int, a []float32, ra, sa, rows int, b []float32, sb int, acc []float64) {
	if !useAVX2 || steps == 0 {
		fcMicroGo(steps, a, ra, sa, b, sb, 1, rows, fcNR, acc)
		return
	}
	var off [fcMR]int
	for r := range off {
		off[r] = min(r, rows-1) * ra
	}
	_, _, _ = a[off[fcMR-1]+(steps-1)*sa], b[(steps-1)*sb+fcNR-1], acc[(fcMR-1)*fcPlaneLanes+fcNR-1]
	fcMicroAVX2(steps, &a[0], &off, sa, &b[0], sb, &acc[0])
}

// maxChunks is max pooling's vector body (contract in pooling.go); the slice
// expressions are the bounds checks the assembly body does not do itself.
func maxChunks(win, dst []float32, m, window, sh, sw int) int {
	if k := m &^ 7; useAVX2 && k > 0 {
		_, _ = win[(window-1)*(sh+sw)+k-1], dst[k-1]
		maxPoolAVX2(k/8, window, &win[0], sh, sw, &dst[0])
		return k
	}
	return 0
}

// Implemented in gemm_amd64.s, gemm_avx512_amd64.s, fc_amd64.s, pool_amd64.s.

//go:noescape
func gemmMicroAVX2(kc int, a *float32, b *gemmRows, c *float32, ldc int, accumulate bool)

//go:noescape
func gemmMicroAVX512(kc int, a0, a1 *float32, b *gemmRows, c *float32, ldc int, accumulate bool)

//go:noescape
func fcMicroAVX2(steps int, a *float32, rows *[fcMR]int, sa int, b *float32, sb int, acc *float64)

//go:noescape
func maxPoolAVX2(chunks, window int, win *float32, sh, sw int, dst *float32)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
