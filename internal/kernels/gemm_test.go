package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"memcnn/internal/par"
	"memcnn/internal/tensor"
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
// blocking multiple and off a block of 8×8 micro-tiles, and three convolution
// GEMMs of the networks (LeNet conv2, AlexNet conv1 and conv4).
func gemmShapes() [][3]int {
	shapes := [][3]int{
		{1, 1, 1}, {7, 33, 19}, {50, 64, 500}, {96, 3025, 363}, {384, 169, 3456},
		{gemmMR * 8, gemmNR * 8, 40}, {gemmMR*8 + 1, gemmNR*8 + 1, 40},
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

// TestGemmPackedStaysInsideItsOperands runs the one driver as GemmInto does —
// A packed by PackConvFiltersInto, B the input of a 1×1 convolution — on
// operands fenced by NaNs: reading one step past a slab or treating the ragged
// panel as a full one would poison C, and writing a padded row or column of a
// micro-tile, or past the workspace, would break a fence.
func TestGemmPackedStaysInsideItsOperands(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for _, s := range gemmShapes() {
		m, n, k := s[0], s[1], s[2]
		if m*n*k > 1<<22 {
			continue // the big shapes add nothing here
		}
		cfg := ConvConfig{N: 1, C: k, H: 1, W: n, K: m, FH: 1, FW: 1}
		a, _ := guarded(r, m*k)
		b, _ := guarded(r, k*n)
		pa, _ := guarded(r, gemmPackedAElems(m, k))
		scratch, scratchBacking := guarded(r, ConvGemmWorkspaceElems(cfg, tensor.NCHW))
		c, backing := guarded(r, m*n)
		filters := &tensor.Tensor{Shape: cfg.FilterShape(), Layout: tensor.NCHW, Data: a}
		if err := PackConvFiltersInto(pa, filters, cfg); err != nil {
			t.Fatal(err)
		}
		in := &tensor.Tensor{Shape: cfg.InputShape(), Layout: tensor.NCHW, Data: b}
		out := &tensor.Tensor{Shape: cfg.OutputShape(), Layout: tensor.NCHW, Data: c}
		if err := ConvIm2colGemmInto(in, pa, out, cfg, scratch); err != nil {
			t.Fatal(err)
		}
		equalBits(t, fmt.Sprintf("%dx%dx%d", m, n, k), c, oldGemm(a, b, m, n, k))
		if !fenceIntact(backing, m*n) {
			t.Fatalf("%dx%dx%d: wrote outside C", m, n, k)
		}
		if !fenceIntact(scratchBacking, len(scratch)) {
			t.Fatalf("%dx%dx%d: wrote outside the workspace", m, n, k)
		}
	}
	// The table path: a CHWN input read in place, fenced like the rest, so a
	// row that starts before the input or runs past its end poisons C.
	for _, cfg := range inPlaceConvCases {
		cfg = cfg.WithDefaults()
		want := tensor.Random(cfg.InputShape(), tensor.CHWN, 5)
		data, _ := guarded(nil, len(want.Data))
		copy(data, want.Data)
		in := &tensor.Tensor{Shape: cfg.InputShape(), Layout: tensor.CHWN, Data: data}
		filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 6)
		flat, err := PackConvFilters(filters, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pa, _ := guarded(nil, len(flat))
		copy(pa, flat)
		scratch, scratchBacking := guarded(r, ConvGemmWorkspaceElems(cfg, tensor.CHWN))
		c, backing := guarded(r, cfg.OutputShape().Elems())
		out := &tensor.Tensor{Shape: cfg.OutputShape(), Layout: tensor.CHWN, Data: c}
		if err := ConvIm2colGemmInto(in, pa, out, cfg, scratch); err != nil {
			t.Fatal(err)
		}
		equalBits(t, fmt.Sprintf("%v", cfg), c, oldConvIm2colGemm(t, want, filters, cfg, tensor.CHWN).Data)
		if !fenceIntact(backing, len(c)) {
			t.Fatalf("%v: wrote outside the output", cfg)
		}
		if !fenceIntact(scratchBacking, len(scratch)) {
			t.Fatalf("%v: wrote outside the workspace", cfg)
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

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{{0, 4, 0}, {1, 4, 1}, {4, 4, 1}, {5, 4, 2}, {8, 4, 2}, {9, 4, 3}, {7, 0, 0}}
	for _, c := range cases {
		if got := ceilDiv(c.a, c.b); got != c.want {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// BenchmarkGemm256 times GemmInto on 256×256×256, into a C allocated once,
// and reports its rate with its fraction of the peak of the body the core
// dispatches, at the same worker count, measured just before (the host's
// speed moves between minutes).
func BenchmarkGemm256(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	m, n, k := 256, 256, 256
	a := make([]float32, m*k)
	bb, c := make([]float32, k*n), make([]float32, m*n)
	for i := range a {
		a[i] = float32(r.NormFloat64())
	}
	for i := range bb {
		bb[i] = float32(r.NormFloat64())
	}
	peak := microPeak(runtime.GOMAXPROCS(0))
	start := time.Now()
	peak.run(64)
	peakGFLOPS := peak.gflop(64) / time.Since(start).Seconds()
	b.SetBytes(int64(2 * m * n * k))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := GemmInto(a, bb, c, m, n, k); err != nil {
			b.Fatal(err)
		}
	}
	gflops := float64(2*m*n*k) * float64(b.N) / b.Elapsed().Seconds() / 1e9
	b.ReportMetric(gflops, "GFLOP/s")
	b.ReportMetric(gflops/peakGFLOPS, "of-peak")
}

// BenchmarkGemmMicroPeak is the packed core's compute roofline, a row per
// micro-kernel body: each worker runs gemmMicro2 over its own two gemmKC-step
// slabs and panel (28 KiB, inside L1) into a 12-row tile of C, so nothing but
// the body's own loads and multiply-adds is timed.  An iteration is
// microPeakCalls calls a worker.
func BenchmarkGemmMicroPeak(b *testing.B) {
	for _, body := range gemmBodies {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("body=%s/workers=%d", body.name, workers), func(b *testing.B) {
				body.use(b)
				if runtime.GOMAXPROCS(0) < workers {
					b.Skipf("GOMAXPROCS %d runs fewer than %d workers", runtime.GOMAXPROCS(0), workers)
				}
				peak := microPeak(workers)
				b.ResetTimer()
				peak.run(b.N)
				b.ReportMetric(peak.gflop(b.N)/b.Elapsed().Seconds(), "GFLOP/s")
			})
		}
	}
}

// gemmBody is one micro-kernel body and the start-up switches that select
// it; use (in the build's own test file) switches to it.
type gemmBody struct {
	name         string
	avx2, avx512 bool
}

// microPeakJob is two slabs, a panel's table and a 12-row tile of C per
// worker.
type microPeakJob struct {
	a, c [][]float32
	b    []*gemmRows
}

// microPeakCalls is the gemmMicro2 calls a worker makes per iteration,
// 50 MFLOP, which keeps the fan-out under a percent of the time.
const microPeakCalls = 512

func microPeak(workers int) microPeakJob {
	r := rand.New(rand.NewSource(2))
	var j microPeakJob
	for w := 0; w < workers; w++ {
		a, b := make([]float32, 2*gemmKC*gemmMR), make([]float32, gemmKC*gemmNR)
		for i := range a {
			a[i] = float32(r.NormFloat64())
		}
		for i := range b {
			b[i] = float32(r.NormFloat64())
		}
		var rows panelRows
		j.a, j.b, j.c = append(j.a, a), append(j.b, rows.of(b, gemmKC)), append(j.c, make([]float32, 2*gemmMR*gemmNR))
	}
	return j
}

// run makes iters iterations on every worker at once.
func (j microPeakJob) run(iters int) {
	for i := 0; i < iters; i++ {
		par.Planes(len(j.a), j, microPeakPlane)
	}
}

// gflop is the work of iters iterations, in GFLOP.
func (j microPeakJob) gflop(iters int) float64 {
	return float64(2*2*gemmMR*gemmNR*gemmKC*microPeakCalls*len(j.a)) * float64(iters) / 1e9
}

func microPeakPlane(j microPeakJob, w int) {
	a0, a1 := j.a[w][:gemmKC*gemmMR], j.a[w][gemmKC*gemmMR:]
	for i := 0; i < microPeakCalls; i++ {
		gemmMicro2(gemmKC, a0, a1, j.b[w], j.c[w], gemmNR, i > 0)
	}
}
