//go:build amd64 && !purego

package kernels

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestGemmAssemblyMatchesPureGo runs the shape table through the packed core
// twice, once per micro-kernel body, and wants the same bits.
func TestGemmAssemblyMatchesPureGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("the CPU or the OS lacks AVX2: the assembly kernel never runs here")
	}
	defer func() { useAVX2 = true }()
	r := rand.New(rand.NewSource(47))
	for _, s := range gemmShapes() {
		m, n, k := s[0], s[1], s[2]
		a, _ := guarded(r, m*k)
		b, _ := guarded(r, k*n)
		useAVX2 = true
		asm, err := Gemm(a, b, m, n, k)
		if err != nil {
			t.Fatal(err)
		}
		useAVX2 = false
		pure, err := Gemm(a, b, m, n, k)
		if err != nil {
			t.Fatal(err)
		}
		equalBits(t, fmt.Sprintf("%dx%dx%d", m, n, k), asm, pure)
	}
}

// TestGemmMicroKernelContract drives the two bodies directly on one
// micro-tile inside a wider C, overwriting and accumulating.
func TestGemmMicroKernelContract(t *testing.T) {
	if !useAVX2 {
		t.Skip("the CPU or the OS lacks AVX2: the assembly kernel never runs here")
	}
	r := rand.New(rand.NewSource(53))
	const ldc = gemmNR + 5
	for _, kc := range []int{1, 2, 7, gemmKC} {
		a, _ := guarded(r, kc*gemmMR)
		b, _ := guarded(r, kc*gemmNR)
		for _, accumulate := range []bool{false, true} {
			cAsm, backing := guarded(r, (gemmMR-1)*ldc+gemmNR)
			cGo := append([]float32(nil), cAsm...)
			gemmMicroAVX2(kc, &a[0], &b[0], &cAsm[0], ldc, accumulate)
			gemmMicroGo(kc, a, b, cGo, ldc, accumulate)
			equalBits(t, fmt.Sprintf("kc=%d accumulate=%v", kc, accumulate), cAsm, cGo)
			if !fenceIntact(backing, len(cAsm)) {
				t.Fatalf("kc=%d: assembly kernel wrote outside its tile", kc)
			}
		}
	}
}
