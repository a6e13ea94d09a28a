package kernels

// The GEMM this package ran before the packed core, kept as the oracle the
// packed core is checked against bit for bit: row-major operands, no packing,
// a 4×4 scalar tile, the reduction in blocks of 256.  Its step takes the
// packed core's contract, one float32 fused multiply-add (fma32, which
// TestFMA32IsCorrectlyRounded holds to an exact reference), where the loop
// once rounded the product and the sum apart; the loop order is unchanged.

const (
	oldGemmKBlock = 256
	oldGemmMR     = 4
	oldGemmNR     = 4
)

// oldGemm computes C = A·B with the old loop, serially (the old row-panel
// split never changed a bit, so one panel stands for all of them).
func oldGemm(a, b []float32, m, n, k int) []float32 {
	c := make([]float32, m*n)
	oldGemmPanel(a, b, c, 0, m, n, k)
	return c
}

// oldGemmPanel computes rows [lo,hi) of C, k-blocked so the B slab touched by a
// reduction pass stays in cache across the panel's row quads.
func oldGemmPanel(a, b, c []float32, lo, hi, n, k int) {
	for kb := 0; kb < k; kb += oldGemmKBlock {
		kEnd := kb + oldGemmKBlock
		if kEnd > k {
			kEnd = k
		}
		i := lo
		for ; i+oldGemmMR <= hi; i += oldGemmMR {
			oldGemmMicro4(a, b, c, i, n, k, kb, kEnd)
		}
		for ; i < hi; i++ {
			oldGemmMicro1(a, b, c, i, n, k, kb, kEnd)
		}
	}
}

// oldGemmMicro4 accumulates the partial products of reduction block [kb,kEnd)
// into the four C rows starting at i, walking the columns in oldGemmNR-wide
// tiles so sixteen accumulators live in registers through the inner loop.
func oldGemmMicro4(a, b, c []float32, i, n, k, kb, kEnd int) {
	a0 := a[(i+0)*k : (i+1)*k]
	a1 := a[(i+1)*k : (i+2)*k]
	a2 := a[(i+2)*k : (i+3)*k]
	a3 := a[(i+3)*k : (i+4)*k]
	c0 := c[(i+0)*n : (i+1)*n]
	c1 := c[(i+1)*n : (i+2)*n]
	c2 := c[(i+2)*n : (i+3)*n]
	c3 := c[(i+3)*n : (i+4)*n]
	j := 0
	for ; j+oldGemmNR <= n; j += oldGemmNR {
		s00, s01, s02, s03 := c0[j], c0[j+1], c0[j+2], c0[j+3]
		s10, s11, s12, s13 := c1[j], c1[j+1], c1[j+2], c1[j+3]
		s20, s21, s22, s23 := c2[j], c2[j+1], c2[j+2], c2[j+3]
		s30, s31, s32, s33 := c3[j], c3[j+1], c3[j+2], c3[j+3]
		for kk := kb; kk < kEnd; kk++ {
			off := kk*n + j
			b0, b1, b2, b3 := b[off], b[off+1], b[off+2], b[off+3]
			av := a0[kk]
			s00 = fma32(av, b0, s00)
			s01 = fma32(av, b1, s01)
			s02 = fma32(av, b2, s02)
			s03 = fma32(av, b3, s03)
			av = a1[kk]
			s10 = fma32(av, b0, s10)
			s11 = fma32(av, b1, s11)
			s12 = fma32(av, b2, s12)
			s13 = fma32(av, b3, s13)
			av = a2[kk]
			s20 = fma32(av, b0, s20)
			s21 = fma32(av, b1, s21)
			s22 = fma32(av, b2, s22)
			s23 = fma32(av, b3, s23)
			av = a3[kk]
			s30 = fma32(av, b0, s30)
			s31 = fma32(av, b1, s31)
			s32 = fma32(av, b2, s32)
			s33 = fma32(av, b3, s33)
		}
		c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
		c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
		c2[j], c2[j+1], c2[j+2], c2[j+3] = s20, s21, s22, s23
		c3[j], c3[j+1], c3[j+2], c3[j+3] = s30, s31, s32, s33
	}
	for ; j < n; j++ {
		s0, s1, s2, s3 := c0[j], c1[j], c2[j], c3[j]
		for kk := kb; kk < kEnd; kk++ {
			bv := b[kk*n+j]
			s0 = fma32(a0[kk], bv, s0)
			s1 = fma32(a1[kk], bv, s1)
			s2 = fma32(a2[kk], bv, s2)
			s3 = fma32(a3[kk], bv, s3)
		}
		c0[j], c1[j], c2[j], c3[j] = s0, s1, s2, s3
	}
}

// oldGemmMicro1 is the single-row remainder of oldGemmMicro4 with the identical
// per-element accumulation order.
func oldGemmMicro1(a, b, c []float32, i, n, k, kb, kEnd int) {
	aRow := a[i*k : (i+1)*k]
	cRow := c[i*n : (i+1)*n]
	j := 0
	for ; j+oldGemmNR <= n; j += oldGemmNR {
		s0, s1, s2, s3 := cRow[j], cRow[j+1], cRow[j+2], cRow[j+3]
		for kk := kb; kk < kEnd; kk++ {
			off := kk*n + j
			av := aRow[kk]
			s0 = fma32(av, b[off], s0)
			s1 = fma32(av, b[off+1], s1)
			s2 = fma32(av, b[off+2], s2)
			s3 = fma32(av, b[off+3], s3)
		}
		cRow[j], cRow[j+1], cRow[j+2], cRow[j+3] = s0, s1, s2, s3
	}
	for ; j < n; j++ {
		s := cRow[j]
		for kk := kb; kk < kEnd; kk++ {
			s = fma32(aRow[kk], b[kk*n+j], s)
		}
		cRow[j] = s
	}
}
