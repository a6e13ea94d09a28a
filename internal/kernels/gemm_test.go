package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"memcnn/internal/gpusim"
	"memcnn/internal/par"
)

func naiveGemm(a, b []float32, m, n, k int) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for kk := 0; kk < k; kk++ {
				acc += float64(a[i*k+kk]) * float64(b[kk*n+j])
			}
			c[i*n+j] = float32(acc)
		}
	}
	return c
}

func TestGemmMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	cases := []struct{ m, n, k int }{
		{1, 1, 1}, {3, 5, 7}, {16, 16, 16}, {65, 130, 70}, {128, 33, 200}, {7, 257, 3},
	}
	for _, c := range cases {
		a := make([]float32, c.m*c.k)
		b := make([]float32, c.k*c.n)
		for i := range a {
			a[i] = float32(r.NormFloat64())
		}
		for i := range b {
			b[i] = float32(r.NormFloat64())
		}
		got, err := Gemm(a, b, c.m, c.n, c.k)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		want := naiveGemm(a, b, c.m, c.n, c.k)
		for i := range got {
			if math.Abs(float64(got[i]-want[i])) > 1e-3 {
				t.Fatalf("%+v: C[%d] = %v, want %v", c, i, got[i], want[i])
			}
		}
	}
}

func TestGemmIdentity(t *testing.T) {
	n := 8
	id := make([]float32, n*n)
	for i := 0; i < n; i++ {
		id[i*n+i] = 1
	}
	b := make([]float32, n*n)
	for i := range b {
		b[i] = float32(i)
	}
	got, err := Gemm(id, b, n, n, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if got[i] != b[i] {
			t.Fatalf("identity GEMM altered element %d", i)
		}
	}
}

// TestGemmIntoMatchesGemm checks the allocation-free entry point against the
// allocating wrapper (bit equality by construction) and its zero-on-entry
// contract on a dirty destination.
func TestGemmIntoMatchesGemm(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, c := range []struct{ m, n, k int }{
		{1, 1, 1}, {4, 4, 4}, {5, 6, 7}, {64, 64, 300}, {13, 257, 31}, {3, 2, 513},
	} {
		a := make([]float32, c.m*c.k)
		b := make([]float32, c.k*c.n)
		for i := range a {
			a[i] = float32(r.NormFloat64())
		}
		for i := range b {
			b[i] = float32(r.NormFloat64())
		}
		want, err := Gemm(a, b, c.m, c.n, c.k)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float32, c.m*c.n)
		for i := range got {
			got[i] = float32(math.NaN()) // GemmInto must zero the destination
		}
		if err := GemmInto(a, b, got, c.m, c.n, c.k); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v: C[%d] = %v, want %v", c, i, got[i], want[i])
			}
		}
	}
	if err := GemmInto(make([]float32, 4), make([]float32, 4), make([]float32, 3), 2, 2, 2); err == nil {
		t.Error("wrong C size must be rejected")
	}
}

// TestGemmDeterministicAcrossWorkers pins the accumulation-order contract:
// the panel split must not change any output bit.
func TestGemmDeterministicAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	m, n, k := 37, 53, 419 // deliberately quad-unaligned
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	for i := range a {
		a[i] = float32(r.NormFloat64())
	}
	for i := range b {
		b[i] = float32(r.NormFloat64())
	}
	parallel, err := Gemm(a, b, m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(1)
	serial, err := Gemm(a, b, m, n, k)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	for i := range parallel {
		if parallel[i] != serial[i] {
			t.Fatalf("C[%d] differs across worker counts: %v vs %v", i, parallel[i], serial[i])
		}
	}
}

// gemmShapes is the table the packed core, both micro-kernels and the fuzz
// target share: the degenerate and ragged corners, shapes one off every
// blocking multiple, and three convolution GEMMs of the networks (LeNet conv2,
// AlexNet conv1 and conv4).
func gemmShapes() [][3]int {
	shapes := [][3]int{
		{1, 1, 1}, {7, 33, 19}, {50, 64, 500}, {96, 3025, 363}, {384, 169, 3456},
		{gemmMR * gemmTileSlabs, gemmNR * gemmTilePanels, 40}, {gemmMR*gemmTileSlabs + 1, gemmNR*gemmTilePanels + 1, 40},
	}
	for _, m := range []int{gemmMR - 1, gemmMR, gemmMR + 1, 2*gemmMR - 1, 2*gemmMR + 1} {
		for _, n := range []int{gemmNR - 1, gemmNR, gemmNR + 1, 2*gemmNR - 1, 2*gemmNR + 1} {
			shapes = append(shapes, [3]int{m, n, 9})
		}
	}
	for _, k := range []int{gemmKC - 1, gemmKC, gemmKC + 1, 2*gemmKC - 1, 2*gemmKC + 1} {
		shapes = append(shapes, [3]int{gemmMR + 1, gemmNR + 3, k})
	}
	return shapes
}

// guarded returns a slice of n random floats whose backing array continues
// with a fence of NaNs on both sides: a kernel that reads outside its operand
// poisons its result, one that writes outside it trips fenceIntact.  A nil r
// leaves the data zero.
func guarded(r *rand.Rand, n int) (data, backing []float32) {
	const fence = 64
	backing = make([]float32, n+2*fence)
	for i := range backing {
		backing[i] = float32(math.NaN())
	}
	data = backing[fence : fence+n : fence+n]
	for i := range data {
		data[i] = 0
		if r != nil {
			data[i] = float32(r.NormFloat64())
		}
	}
	return data, backing
}

func fenceIntact(backing []float32, n int) bool {
	fence := (len(backing) - n) / 2
	for i, v := range backing {
		if (i < fence || i >= fence+n) && v == v {
			return false
		}
	}
	return true
}

func equalBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestGemmMatchesOldLoop pins the packed core to the loop it replaced, bit
// for bit, over the shape table and at one, two and four workers, with every
// operand fenced by NaNs.
func TestGemmMatchesOldLoop(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, s := range gemmShapes() {
		m, n, k := s[0], s[1], s[2]
		a, _ := guarded(r, m*k)
		b, _ := guarded(r, k*n)
		want := oldGemm(a, b, m, n, k)
		for _, procs := range []int{1, 2, 4} {
			prev := runtime.GOMAXPROCS(procs)
			c, backing := guarded(r, m*n)
			err := GemmInto(a, b, c, m, n, k)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			equalBits(t, fmt.Sprintf("%dx%dx%d at %d workers", m, n, k, procs), c, want)
			if !fenceIntact(backing, m*n) {
				t.Fatalf("%dx%dx%d at %d workers: wrote outside C", m, n, k, procs)
			}
		}
	}
}

// TestGemmPackedStaysInsideItsOperands runs the packed core on operands in
// their packed formats, each fenced by NaNs: reading one step past a slab or
// treating the ragged panel as a full one would poison C, and writing a padded
// row or column of a micro-tile would break C's fence.
func TestGemmPackedStaysInsideItsOperands(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for _, s := range gemmShapes() {
		m, n, k := s[0], s[1], s[2]
		if m*n*k > 1<<22 {
			continue // the big shapes add nothing here
		}
		a, _ := guarded(r, m*k)
		b, _ := guarded(r, k*n)
		pa, _ := guarded(r, gemmPackedAElems(m, k))
		pb, _ := guarded(r, k*n)
		c, backing := guarded(r, m*n)
		par.Steps(2, gemmPackJob{gemmJob: newGemmJob(pa, pb, c, m, n, k), rawA: a, rawB: b}, gemmIntoPlanes, gemmIntoPlane)
		equalBits(t, fmt.Sprintf("%dx%dx%d", m, n, k), c, oldGemm(a, b, m, n, k))
		if !fenceIntact(backing, m*n) {
			t.Fatalf("%dx%dx%d: wrote outside C", m, n, k)
		}
	}
}

// FuzzGemm checks the packed core against the old loop on arbitrary small
// shapes and operand seeds.
func FuzzGemm(f *testing.F) {
	for i, s := range gemmShapes() {
		if s[0]*s[1]*s[2] <= 1<<16 {
			f.Add(uint16(s[0]), uint16(s[1]), uint16(s[2]), int64(i))
		}
	}
	f.Fuzz(func(t *testing.T, mRaw, nRaw, kRaw uint16, seed int64) {
		m, n, k := int(mRaw%40)+1, int(nRaw%80)+1, int(kRaw%600)+1
		r := rand.New(rand.NewSource(seed))
		a, _ := guarded(r, m*k)
		b, _ := guarded(r, k*n)
		c, backing := guarded(r, m*n)
		if err := GemmInto(a, b, c, m, n, k); err != nil {
			t.Fatal(err)
		}
		equalBits(t, fmt.Sprintf("%dx%dx%d seed %d", m, n, k, seed), c, oldGemm(a, b, m, n, k))
		if !fenceIntact(backing, m*n) {
			t.Fatalf("%dx%dx%d: wrote outside C", m, n, k)
		}
	})
}

func TestGemmInputValidation(t *testing.T) {
	if _, err := Gemm(nil, nil, 0, 1, 1); err == nil {
		t.Error("zero m must be rejected")
	}
	if _, err := Gemm(make([]float32, 3), make([]float32, 4), 2, 2, 2); err == nil {
		t.Error("wrong A size must be rejected")
	}
	if _, err := Gemm(make([]float32, 4), make([]float32, 3), 2, 2, 2); err == nil {
		t.Error("wrong B size must be rejected")
	}
}

func TestGemmEfficiencyMonotoneInK(t *testing.T) {
	prev := 0.0
	for _, k := range []int{9, 27, 144, 288, 576, 1152, 2304, 4608} {
		eff := GemmEfficiency(GemmCostConfig{M: 384, N: 7744, K: k})
		if eff < prev {
			t.Errorf("efficiency decreased at K=%d: %v < %v", k, eff, prev)
		}
		if eff <= 0 || eff > 1 {
			t.Errorf("efficiency %v out of range at K=%d", eff, k)
		}
		prev = eff
	}
}

func TestGemmEfficiencyDegenerate(t *testing.T) {
	if eff := GemmEfficiency(GemmCostConfig{M: 0, N: 10, K: 10}); eff != gemmMinEff {
		t.Errorf("degenerate GEMM efficiency = %v, want floor %v", eff, gemmMinEff)
	}
	// The floor keeps even tiny GEMMs above zero throughput.
	small := GemmEfficiency(GemmCostConfig{M: 16, N: 100, K: 9})
	if small < gemmMinEff*gemmPeakFraction {
		t.Errorf("small GEMM efficiency %v fell below the floor", small)
	}
}

func TestGemmEfficiencyQuickProperties(t *testing.T) {
	f := func(m, n, k uint16) bool {
		g := GemmCostConfig{M: int(m%4096) + 1, N: int(n%8192) + 1, K: int(k%4096) + 1}
		eff := GemmEfficiency(g)
		return eff > 0 && eff <= gemmPeakFraction
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestGemmCostTrafficAndFLOPs(t *testing.T) {
	d := gpusim.TitanBlack()
	g := GemmCostConfig{M: 256, N: 4096, K: 1024}
	s := GemmCost(d, g)
	if s.FLOPs != g.FLOPs() {
		t.Errorf("FLOPs = %v, want %v", s.FLOPs, g.FLOPs())
	}
	if err := s.Validate(); err != nil {
		t.Errorf("GemmCost stats invalid: %v", err)
	}
	if s.DRAMWriteBytes != float64(g.M*g.N)*4 {
		t.Errorf("write bytes = %v, want %v", s.DRAMWriteBytes, g.M*g.N*4)
	}
	if s.DRAMReadBytes < s.UsefulReadBytes {
		t.Error("moved read bytes must be at least the useful bytes")
	}
	// The kernel estimate must be finite and positive.
	kt := gpusim.EstimateTime(d, s)
	if kt.TotalUS <= 0 {
		t.Error("GEMM time must be positive")
	}
}

func TestGemmCostLargerProblemsTakeLonger(t *testing.T) {
	d := gpusim.TitanBlack()
	small := gpusim.EstimateTime(d, GemmCost(d, GemmCostConfig{M: 128, N: 1024, K: 256})).TotalUS
	large := gpusim.EstimateTime(d, GemmCost(d, GemmCostConfig{M: 512, N: 8192, K: 1024})).TotalUS
	if large <= small {
		t.Errorf("larger GEMM (%v us) should take longer than smaller (%v us)", large, small)
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{{0, 4, 0}, {1, 4, 1}, {4, 4, 1}, {5, 4, 2}, {8, 4, 2}, {9, 4, 3}, {7, 0, 0}}
	for _, c := range cases {
		if got := ceilDiv(c.a, c.b); got != c.want {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func BenchmarkGemm256(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	m, n, k := 256, 256, 256
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	for i := range a {
		a[i] = float32(r.NormFloat64())
	}
	for i := range bb {
		bb[i] = float32(r.NormFloat64())
	}
	b.SetBytes(int64(2 * m * n * k))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Gemm(a, bb, m, n, k); err != nil {
			b.Fatal(err)
		}
	}
}
