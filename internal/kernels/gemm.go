package kernels

import (
	"fmt"
	"math"
	"sync"

	"memcnn/internal/tensor"
)

// Packed, register-blocked single-precision matrix multiplication in the
// style of BLIS/GotoBLAS.  It is the substrate for the Caffe/cuDNN convolution
// path (im2col + GEMM, Section II.B).
//
// A is repacked so the micro-kernel walks it at unit stride; B is read through
// a table of row references (gemmRows), one a reduction step:
//
//   - A (m×k) lives in slabs of gemmMR rows, k-major inside a slab: element
//     (i, kk) is at (i/gemmMR)·gemmMR·k + kk·gemmMR + i%gemmMR.  The last slab
//     is zero-padded to gemmMR rows, so packed A holds gemmPackedAElems(m, k)
//     floats.  Convolution filters are packed once (PackConvFilters).
//   - B (k×n) is taken a gemmNR-column panel at a time; a call's kc steps
//     are kc rows of gemmNR floats that may each live anywhere.  An unrolled
//     panel (im2col) is k-major: element (kk, j) at (j/gemmNR)·gemmNR·k +
//     kk·w + j%gemmNR, w the panel's width (the ragged last panel at its true
//     width, so the unroll is exactly k·n floats and fits the convolution's
//     scratch), and its table points at consecutive rows.  A panel whose
//     columns are gemmNR consecutive input floats at every step is not
//     unrolled: its table points into the input, and at gemmZeroRow where a
//     step reads padding (conv_gemm.go; Dukhan, "The Indirect Convolution
//     Algorithm", 2019).
//
// The driver is the GEMM convolution's lane loop (conv_gemm.go), GemmInto
// included: a lane owns one gemmNR-column panel of C at a time and walks the
// reduction in gemmKC blocks, so the B micro-panel (gemmKC·gemmNR floats, 16
// KiB) stays in L1 across every slab of A.  The micro-kernel holds C in
// registers in one of two plans: one gemmMR×gemmNR slab as twelve 8-float
// accumulators, two B vectors and one broadcast A value on AVX2's sixteen YMM
// registers (gemmMicro); two adjacent slabs, 2·gemmMR×gemmNR, as twelve
// 16-float accumulators and one B vector on AVX-512's ZMM registers, each A
// value an embedded broadcast (gemmMicro2, which is gemmMicro twice without
// AVX-512).  The forward lane loop hands every pair of full slabs to
// gemmMicro2, LeNet's 16-filter layers included: with their panels read in
// place, lenet-conv2@n128 CHWN ran 12% faster paired (2.9–3.3 against
// 3.5–4.2 ms, 5 of 5 alternating runs) and conv1 even.  The gradients keep
// gemmMicro (train-lenet16 measured no gain from pairs).
//
// Every C element is owned by one lane and accumulates k-ascending with one
// IEEE float32 fused multiply-add per step, c = RN(c + a·b): each assembly
// body issues one VFMADD231PS a product and the pure-Go kernel emulates it
// exactly (fma32).  Results are therefore bit-identical across bodies,
// blockings, worker counts, repeated runs, and packed or in-place B.

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
// of every output element — ascending k, one float32 fused multiply-add a
// step — is fixed regardless of blocking and lane split, so results are
// bit-identical across GOMAXPROCS settings and repeated runs.
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

// gemmRows is the right operand of one micro-kernel call: row kk, for each
// of the call's kc steps, is the gemmNR floats of B at reduction step kk.
// The rows may live anywhere, and every one of the kc must be set.
type gemmRows [gemmKC]*[gemmNR]float32

// gemmZeroRow is the row a table points at where a step reads only padding.
// Nothing writes it.
var gemmZeroRow [gemmNR]float32

// panelRows is a packed panel's table, kept across calls: a lane's panel
// stays where it is, so of rebuilds it only when the panel moves or the
// reduction grows.
type panelRows struct {
	rows gemmRows
	at   *float32
	kc   int
}

// of returns the table whose rows are the kc consecutive gemmNR-float rows at
// the start of p.
func (t *panelRows) of(p []float32, kc int) *gemmRows {
	if &p[0] != t.at || kc > t.kc {
		for kk := 0; kk < kc; kk++ {
			t.rows[kk] = (*[gemmNR]float32)(p[kk*gemmNR:])
		}
		t.at, t.kc = &p[0], kc
	}
	return &t.rows
}

// gemmMicroGo is the portable micro-kernel, and the definition of the
// micro-kernel contract: for the gemmMR×gemmNR block of C at c (row stride
// ldc), C = A·B when accumulate is false and C += A·B when it is true, where a
// is kc steps of one slab (gemmMR floats a step) and b's first kc rows are the
// kc steps of one panel (gemmNR floats a step); each element takes its kc
// products in ascending order, one float32 fused multiply-add (fma32) per
// step.  A NaN element is some NaN: its payload is not part of the contract.
// A step rounds the float64 sum once more, to float32, unless that sum is a
// float32 midpoint, where the second rounding could break the tie the wrong
// way (the subnormal range, where the midpoints lie elsewhere, counts as
// one): fma32 takes those.
func gemmMicroGo(kc int, a []float32, b *gemmRows, c []float32, ldc int, accumulate bool) {
	a = a[:kc*gemmMR]
	for r := 0; r < gemmMR; r++ {
		row := c[r*ldc : r*ldc+gemmNR]
		if !accumulate {
			clear(row)
		}
		for p, brow := range b[:kc] {
			ar := a[p*gemmMR+r]
			for q, bv := range brow {
				x := float64(row[q]) + float64(ar)*float64(bv)
				if bits := math.Float64bits(x); bits&(1<<29-1) != 1<<28 && bits>>52&0x7ff >= 1023-126 {
					row[q] = float32(x)
				} else {
					row[q] = fma32(ar, bv, row[q])
				}
			}
		}
	}
}

// fma32 returns s + a·b rounded once to float32, as VFMADD231PS does.  The
// product is exact in float64 (fc.go), so only the sum rounds: TwoSum gives
// its error e, and a nearest sum that is inexact is rounded to odd (one step
// toward zero when e has the other sign, then the last bit set), which rounds
// to the float32 nearest the exact value (Boldo and Melquiond, "Emulation of
// FMA and Correctly Rounded Sums: Proved Algorithms Using Rounding to Odd",
// IEEE Trans. Computers 57(4), 2008); float32(math.FMA(...)) rounds twice.
// An infinite or NaN sum has a NaN e and is left as it is.
func fma32(a, b, s float32) float32 {
	p, s64 := float64(a)*float64(b), float64(s)
	x := s64 + p
	z := x - s64
	if e := (s64 - (x - z)) + (p - z); e < 0 || e > 0 {
		bits := math.Float64bits(x)
		return float32(math.Float64frombits(bits - (bits^math.Float64bits(e))>>63 | 1))
	}
	return float32(x)
}

func ceilDiv(a, b int) int {
	if b == 0 {
		return 0
	}
	return (a + b - 1) / b
}
