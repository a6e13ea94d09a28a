package kernels

import (
	"fmt"
	"sync"

	"memcnn/internal/par"
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
//     unpacked matrix, which is what lets im2colPanel emit this format
//     straight into the unroll scratch without growing it.
//
// C is cut into tiles of gemmTileSlabs×gemmTilePanels micro-tiles, each one
// plane of a parallel step (par.Steps); a tile walks the reduction in
// gemmKC blocks so the B micro-panel (gemmKC·gemmNR floats, 16 KiB) stays in
// L1 across the tile's slabs and the A block (≤ 48 KiB) in L2 across its
// panels.  The micro-kernel holds a gemmMR×gemmNR block of C in registers:
// twelve 8-float accumulators, two B vectors, one broadcast A value and one
// product on AVX2's sixteen.
//
// Every C element is owned by one tile and accumulates k-ascending with one
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

	gemmTileSlabs  = 8 // gemmMR-row slabs per parallel tile
	gemmTilePanels = 8 // gemmNR-column panels per parallel tile
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
// overwritten whatever it held): it packs both row-major operands into a
// pooled buffer and runs the packed core.  The accumulation order of every
// output element — ascending k, each product and each sum rounded to float32
// — is fixed regardless of blocking and tile split, so results are
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
	aElems := gemmPackedAElems(m, k)
	buf := gemmPackBuffer(aElems + k*n)
	pa, pb := (*buf)[:aElems], (*buf)[aElems:aElems+k*n]
	par.Steps(2, gemmPackJob{gemmJob: newGemmJob(pa, pb, c, m, n, k), rawA: a, rawB: b}, gemmIntoPlanes, gemmIntoPlane)
	gemmPackPool.Put(buf)
	return nil
}

// gemmPackJob is one GemmInto call in two steps: pack the row-major operands
// — one plane per A slab, then one per B panel — and multiply the packed ones.
type gemmPackJob struct {
	gemmJob
	rawA, rawB []float32
}

func gemmIntoPlanes(j gemmPackJob, step int) int {
	if step == 0 {
		return ceilDiv(j.m, gemmMR) + ceilDiv(j.n, gemmNR)
	}
	return j.tiles()
}

func gemmIntoPlane(j gemmPackJob, step, p int) {
	if step == 0 {
		gemmPackPlane(j, p)
		return
	}
	gemmTile(j.gemmJob, p)
}

// gemmPackPlane packs the p-th A slab (zero-padding its missing rows), or the
// B panel after the last slab.
func gemmPackPlane(j gemmPackJob, p int) {
	k := j.k
	if slabs := ceilDiv(j.m, gemmMR); p >= slabs {
		col := (p - slabs) * gemmNR
		w := min(gemmNR, j.n-col)
		panel := j.b[col*k : (col+w)*k]
		for kk := 0; kk < k; kk++ {
			copy(panel[kk*w:(kk+1)*w], j.rawB[kk*j.n+col:])
		}
		return
	}
	slab := j.a[p*gemmMR*k : (p+1)*gemmMR*k]
	for r := 0; r < gemmMR; r++ {
		i := p*gemmMR + r
		if i >= j.m {
			for at := r; at < len(slab); at += gemmMR {
				slab[at] = 0
			}
			continue
		}
		at := r
		for _, v := range j.rawA[i*k : (i+1)*k] {
			slab[at] = v
			at += gemmMR
		}
	}
}

// gemmJob is one packed multiplication cut into rowTiles×colTiles tiles of
// whole slabs and panels.
type gemmJob struct {
	a, b, c            []float32
	m, n, k            int
	rowTiles, colTiles int
}

// newGemmJob describes C = A·B from slab-packed A and panel-packed B (formats
// at the top of this file) into row-major c (m×n), which it overwrites: run
// gemmTile for each of its tiles().
func newGemmJob(pa, pb, c []float32, m, n, k int) gemmJob {
	return gemmJob{a: pa, b: pb, c: c, m: m, n: n, k: k,
		rowTiles: ceilDiv(ceilDiv(m, gemmMR), gemmTileSlabs),
		colTiles: ceilDiv(ceilDiv(n, gemmNR), gemmTilePanels)}
}

func (j gemmJob) tiles() int { return j.rowTiles * j.colTiles }

// gemmTile computes the t-th tile of C: an even share of the slabs by an even
// share of the panels, over the whole reduction.  Full micro-tiles go straight
// to C; a micro-tile cut by the last slab or the last panel is computed in a
// stack tile and only its valid part copied out, and the ragged panel is
// widened to gemmNR zero-padded columns on the stack first, so the micro-kernel
// never reads or writes past an operand.
func gemmTile(j gemmJob, t int) {
	m, n, k := j.m, j.n, j.k
	slabs, panels := ceilDiv(m, gemmMR), ceilDiv(n, gemmNR)
	rt, ct := t/j.colTiles, t%j.colTiles
	s0, s1 := rt*slabs/j.rowTiles, (rt+1)*slabs/j.rowTiles
	p0, p1 := ct*panels/j.colTiles, (ct+1)*panels/j.colTiles
	var cTile [gemmMR * gemmNR]float32
	var bTile [gemmKC * gemmNR]float32
	for kb := 0; kb < k; kb += gemmKC {
		kc := min(gemmKC, k-kb)
		accumulate := kb > 0
		for p := p0; p < p1; p++ {
			col := p * gemmNR
			w := min(gemmNR, n-col)
			bp := j.b[col*k+kb*w : col*k+(kb+kc)*w]
			if w < gemmNR {
				for kk := 0; kk < kc; kk++ {
					copy(bTile[kk*gemmNR:kk*gemmNR+w], bp[kk*w:])
				}
				bp = bTile[:kc*gemmNR]
			}
			for s := s0; s < s1; s++ {
				row := s * gemmMR
				h := min(gemmMR, m-row)
				ap := j.a[(s*k+kb)*gemmMR : (s*k+kb+kc)*gemmMR]
				if h == gemmMR && w == gemmNR {
					gemmMicro(kc, ap, bp, j.c[row*n+col:], n, accumulate)
					continue
				}
				if accumulate {
					for r := 0; r < h; r++ {
						copy(cTile[r*gemmNR:r*gemmNR+w], j.c[(row+r)*n+col:])
					}
				}
				gemmMicro(kc, ap, bp, cTile[:], gemmNR, accumulate)
				for r := 0; r < h; r++ {
					copy(j.c[(row+r)*n+col:(row+r)*n+col+w], cTile[r*gemmNR:])
				}
			}
		}
	}
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
