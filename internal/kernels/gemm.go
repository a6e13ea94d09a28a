package kernels

import (
	"fmt"
	"sync"

	"memcnn/internal/tensor"
)

// Packed, register-blocked single-precision matrix multiplication in the
// style of BLIS/GotoBLAS.  It is the substrate for the Caffe/cuDNN convolution
// path (im2col + GEMM, Section II.B).
//
// Both operands are repacked so the micro-kernel only ever walks unit-stride
// memory:
//
//   - A (m×k) lives in slabs of gemmMR rows, k-major inside a slab: element
//     (i, kk) is at (i/gemmMR)·gemmMR·k + kk·gemmMR + i%gemmMR.  The last slab
//     is zero-padded to gemmMR rows, so packed A holds gemmPackedAElems(m, k)
//     floats.  Convolution filters are packed once (PackConvFilters).
//   - B (k×n) lives in panels of gemmNR columns, k-major inside a panel:
//     element (kk, j) is at (j/gemmNR)·gemmNR·k + kk·w + j%gemmNR, where w is
//     the panel's width.  The ragged last panel is stored at its true width
//     w = n%gemmNR, so packed B holds exactly k·n floats — the size of the
//     unpacked matrix, which is what lets the convolution's unroll emit this
//     format straight into its scratch without growing it.
//
// The driver is the GEMM convolution's lane loop (conv_gemm.go), GemmInto
// included: a lane owns one gemmNR-column panel of C at a time and walks the
// reduction in gemmKC blocks, so the B micro-panel (gemmKC·gemmNR floats, 16
// KiB) stays in L1 across every slab of A.  The micro-kernel holds a
// gemmMR×gemmNR block of C in registers: twelve 8-float accumulators, two B
// vectors, one broadcast A value and one product on AVX2's sixteen.
//
// Every C element is owned by one lane and accumulates k-ascending with one
// float32 multiply and one float32 add per step, exactly like the scalar
// triple loop: the AVX2 kernel issues VMULPS and VADDPS separately and never
// VFMADD, whose single rounding would change low bits, and the pure-Go kernel
// rounds each product explicitly.  Results are therefore bit-identical across
// kernels, blockings, worker counts and repeated runs.

// Blocking parameters of the CPU GEMM.
const (
	gemmMR = 6   // rows of C held in registers
	gemmNR = 16  // columns of C held in registers (two 8-float vectors)
	gemmKC = 256 // reduction steps per block
)

// gemmPackedAElems returns the length of the slab-packed form of an m×k left
// operand: whole gemmMR-row slabs.
func gemmPackedAElems(m, k int) int { return ceilDiv(m, gemmMR) * gemmMR * k }

// gemmCheck validates the operand dimensions of GemmInto.
func gemmCheck(a, b []float32, m, n, k int) error {
	if m <= 0 || n <= 0 || k <= 0 {
		return fmt.Errorf("kernels: gemm dims must be positive (m=%d n=%d k=%d)", m, n, k)
	}
	if len(a) != m*k {
		return fmt.Errorf("kernels: gemm A has %d elements, want %d", len(a), m*k)
	}
	if len(b) != k*n {
		return fmt.Errorf("kernels: gemm B has %d elements, want %d", len(b), k*n)
	}
	return nil
}

// gemmPackPool recycles GemmInto's pack buffers, so the unpacked entry point
// allocates only when a call needs a larger buffer than any before it.
var gemmPackPool sync.Pool

// gemmPackBuffer takes a buffer of at least elems floats from the pool, or
// makes one when the pool has none that large; that growth is the one
// allocation of GemmInto, and it lives here so GemmInto can stay noalloc.
func gemmPackBuffer(elems int) *[]float32 {
	if buf, _ := gemmPackPool.Get().(*[]float32); buf != nil && cap(*buf) >= elems {
		return buf
	}
	grown := make([]float32, elems)
	return &grown
}

// GemmInto computes C = A·B into the caller-provided slice c (length m×n,
// overwritten whatever it held) as the 1×1 convolution of one NCHW image: B
// is the {1, k, 1, n} input, A the {m, k, 1, 1} filter bank, packed into a
// pooled buffer by PackConvFiltersInto, and C the {1, m, 1, n} output, with
// the rest of the buffer as ConvIm2colGemmInto's workspace.  The accumulation
// order of every output element — ascending k, each product and each sum
// rounded to float32 — is fixed regardless of blocking and lane split, so
// results are bit-identical across GOMAXPROCS settings and repeated runs.
//
//memcnn:noalloc
func GemmInto(a, b, c []float32, m, n, k int) error {
	if err := gemmCheck(a, b, m, n, k); err != nil {
		return err
	}
	if len(c) != m*n {
		return fmt.Errorf("kernels: gemm C has %d elements, want %d", len(c), m*n)
	}
	cfg := ConvConfig{N: 1, C: k, H: 1, W: n, K: m, FH: 1, FW: 1}
	aElems := gemmPackedAElems(m, k)
	buf := gemmPackBuffer(aElems + k*n)
	pa, scratch := (*buf)[:aElems], (*buf)[aElems:aElems+k*n]
	in := tensor.Tensor{Shape: cfg.InputShape(), Layout: tensor.NCHW, Data: b}
	filters := tensor.Tensor{Shape: cfg.FilterShape(), Layout: tensor.NCHW, Data: a}
	out := tensor.Tensor{Shape: cfg.OutputShape(), Layout: tensor.NCHW, Data: c}
	err := PackConvFiltersInto(pa, &filters, cfg)
	if err == nil {
		err = ConvIm2colGemmInto(&in, pa, &out, cfg, scratch)
	}
	gemmPackPool.Put(buf)
	return err
}

// gemmMicroGo is the portable micro-kernel, and the definition of the
// micro-kernel contract: for the gemmMR×gemmNR block of C at c (row stride
// ldc), C = A·B when accumulate is false and C += A·B when it is true, where a
// is kc steps of one slab (gemmMR floats a step) and b kc steps of one panel
// (gemmNR floats a step); each element sums its kc products in ascending
// order, one float32 multiply and one float32 add per step.  The explicit
// float32 conversions forbid the compiler from fusing the two (Go spec,
// "Floating-point operators"; it does on arm64, ppc64le, s390x and riscv64).
// It walks the block in 2×4 pieces so the accumulators stay in registers.
func gemmMicroGo(kc int, a, b, c []float32, ldc int, accumulate bool) {
	a, b = a[:kc*gemmMR], b[:kc*gemmNR]
	for r := 0; r < gemmMR; r += 2 {
		c0 := c[r*ldc : r*ldc+gemmNR]
		c1 := c[(r+1)*ldc : (r+1)*ldc+gemmNR]
		for q := 0; q < gemmNR; q += 4 {
			var s00, s01, s02, s03, s10, s11, s12, s13 float32
			if accumulate {
				s00, s01, s02, s03 = c0[q], c0[q+1], c0[q+2], c0[q+3]
				s10, s11, s12, s13 = c1[q], c1[q+1], c1[q+2], c1[q+3]
			}
			for p := 0; p < kc; p++ {
				aa := a[p*gemmMR+r : p*gemmMR+r+2]
				bb := b[p*gemmNR+q : p*gemmNR+q+4]
				a0, a1 := aa[0], aa[1]
				b0, b1, b2, b3 := bb[0], bb[1], bb[2], bb[3]
				s00 += float32(a0 * b0)
				s01 += float32(a0 * b1)
				s02 += float32(a0 * b2)
				s03 += float32(a0 * b3)
				s10 += float32(a1 * b0)
				s11 += float32(a1 * b1)
				s12 += float32(a1 * b2)
				s13 += float32(a1 * b3)
			}
			c0[q], c0[q+1], c0[q+2], c0[q+3] = s00, s01, s02, s03
			c1[q], c1[q+1], c1[q+2], c1[q+3] = s10, s11, s12, s13
		}
	}
}

func ceilDiv(a, b int) int {
	if b == 0 {
		return 0
	}
	return (a + b - 1) / b
}
