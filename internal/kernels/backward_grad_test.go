package kernels

import (
	"math"
	gort "runtime"
	"testing"

	"memcnn/internal/tensor"
)

// The backward kernels are checked against central finite differences of
// their forward kernels: for the scalar probe L(x) = Σ w·forward(x) the
// analytic gradient (the backward kernel applied to cotangent w) must match
// (L(x+h) - L(x-h)) / 2h element by element.  Small shapes keep the float32
// forward noise well below the tolerance.

const (
	fdStep = 1e-2
	fdTol  = 2e-2
)

// fdRelErr is the symmetric relative error used by gradient checks.
func fdRelErr(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Abs(a)+math.Abs(b))
}

// probe folds a forward output against a fixed cotangent in float64.
func probe(w, out []float32) float64 {
	var s float64
	for i, v := range out {
		s += float64(w[i]) * float64(v)
	}
	return s
}

// fdCheck perturbs every element of x and compares the finite difference of
// loss() against the analytic gradient grad (same layout as x).
func fdCheck(t *testing.T, name string, x, grad []float32, loss func() float64) {
	t.Helper()
	bad := 0
	for i := range x {
		orig := x[i]
		x[i] = orig + fdStep
		up := loss()
		x[i] = orig - fdStep
		down := loss()
		x[i] = orig
		fd := (up - down) / (2 * fdStep)
		if err := fdRelErr(fd, float64(grad[i])); err > fdTol {
			if bad < 5 {
				t.Errorf("%s: element %d: fd %v vs analytic %v (rel err %v)", name, i, fd, grad[i], err)
			}
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%s: %d/%d gradient elements outside tolerance", name, bad, len(x))
	}
}

func convGradConfigs() []ConvConfig {
	return []ConvConfig{
		{N: 2, C: 2, H: 5, W: 5, K: 3, FH: 3, FW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{N: 1, C: 3, H: 6, W: 6, K: 2, FH: 2, FW: 2, StrideH: 2, StrideW: 2},
		{N: 2, C: 1, H: 7, W: 7, K: 2, FH: 3, FW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
	}
}

func TestConvBackwardDataGradient(t *testing.T) {
	for _, cfg := range convGradConfigs() {
		in := tensor.Random(cfg.InputShape(), tensor.NCHW, 11)
		filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 12)
		dOut := tensor.Random(cfg.OutputShape(), tensor.NCHW, 13)

		dIn := tensor.New(cfg.InputShape(), tensor.NCHW)
		if err := ConvGemmBackwardDataInto(dOut, filters, dIn, cfg, make([]float32, ConvGemmBackwardDataWorkspaceElems(cfg))); err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		out := tensor.New(cfg.OutputShape(), tensor.NCHW)
		loss := func() float64 {
			if err := ConvDirectInto(in, filters, out, cfg); err != nil {
				t.Fatalf("%v: forward: %v", cfg, err)
			}
			return probe(dOut.Data, out.Data)
		}
		fdCheck(t, "conv-bwd-data "+cfg.String(), in.Data, dIn.Data, loss)
	}
}

func TestConvBackwardFilterGradient(t *testing.T) {
	for _, cfg := range convGradConfigs() {
		in := tensor.Random(cfg.InputShape(), tensor.NCHW, 21)
		filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 22)
		dOut := tensor.Random(cfg.OutputShape(), tensor.NCHW, 23)

		dW := tensor.New(cfg.FilterShape(), tensor.NCHW)
		if err := ConvGemmBackwardFilterInto(in, dOut, dW, cfg, make([]float32, ConvGemmBackwardFilterWorkspaceElems(cfg))); err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		out := tensor.New(cfg.OutputShape(), tensor.NCHW)
		loss := func() float64 {
			if err := ConvDirectInto(in, filters, out, cfg); err != nil {
				t.Fatalf("%v: forward: %v", cfg, err)
			}
			return probe(dOut.Data, out.Data)
		}
		fdCheck(t, "conv-bwd-filter "+cfg.String(), filters.Data, dW.Data, loss)
	}
}

// distinctInput fills a tensor with a pseudo-random permutation of well
// separated values so max-pool argmaxes cannot flip under the FD step.
func distinctInput(shape tensor.Shape, seed uint64) *tensor.Tensor {
	tt := tensor.New(shape, tensor.NCHW)
	n := len(tt.Data)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	state := seed
	for i := n - 1; i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int(state>>33) % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i, p := range perm {
		tt.Data[i] = float32(p)*0.05 - float32(n)*0.025
	}
	return tt
}

func TestPoolBackwardGradient(t *testing.T) {
	cfgs := []PoolConfig{
		{N: 2, C: 2, H: 6, W: 6, Window: 2, Stride: 2},
		{N: 1, C: 3, H: 7, W: 7, Window: 3, Stride: 2}, // overlapped
	}
	for _, cfg := range cfgs {
		in := distinctInput(cfg.InputShape(), uint64(31+cfg.Window))
		dOut := tensor.Random(cfg.OutputShape(), tensor.NCHW, 32)

		dIn := tensor.New(cfg.InputShape(), tensor.NCHW)
		if err := PoolBackwardInto(in, dOut, dIn, cfg); err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		out := tensor.New(cfg.OutputShape(), tensor.NCHW)
		loss := func() float64 {
			if err := PoolInto(in, out, cfg); err != nil {
				t.Fatalf("%v: forward: %v", cfg, err)
			}
			return probe(dOut.Data, out.Data)
		}
		fdCheck(t, "pool-bwd "+cfg.String(), in.Data, dIn.Data, loss)
	}
}

func TestReLUBackwardGradient(t *testing.T) {
	shape := tensor.Shape{N: 2, C: 3, H: 4, W: 4}
	in := tensor.Random(shape, tensor.NCHW, 41)
	// Push values away from the kink at zero so the FD step cannot cross it.
	for i, v := range in.Data {
		if v >= 0 {
			in.Data[i] = v + 0.1
		} else {
			in.Data[i] = v - 0.1
		}
	}
	dOut := tensor.Random(shape, tensor.NCHW, 42)

	dIn := tensor.New(shape, tensor.NCHW)
	if err := ReLUBackwardInto(in, dOut, dIn); err != nil {
		t.Fatal(err)
	}
	out := tensor.New(shape, tensor.NCHW)
	loss := func() float64 {
		for i, v := range in.Data {
			if v > 0 {
				out.Data[i] = v
			} else {
				out.Data[i] = 0
			}
		}
		return probe(dOut.Data, out.Data)
	}
	fdCheck(t, "relu-bwd", in.Data, dIn.Data, loss)
}

func TestSoftmaxCrossEntropyBackwardGradient(t *testing.T) {
	cfg := SoftmaxConfig{N: 4, Classes: 6}
	logits := make([]float32, cfg.Elems())
	state := uint64(51)
	for i := range logits {
		state = state*6364136223846793005 + 1442695040888963407
		logits[i] = float32(state>>40)/float32(1<<23) - 1
	}
	labels := []int{0, 3, 5, 2}

	probs := make([]float32, cfg.Elems())
	if err := SoftmaxInto(probs, logits, cfg); err != nil {
		t.Fatal(err)
	}
	grad := make([]float32, cfg.Elems())
	if err := SoftmaxCrossEntropyBackwardInto(grad, probs, labels, cfg); err != nil {
		t.Fatal(err)
	}
	loss := func() float64 {
		if err := SoftmaxInto(probs, logits, cfg); err != nil {
			t.Fatal(err)
		}
		l, err := SoftmaxCrossEntropyLoss(probs, labels, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	fdCheck(t, "softmax-xent-bwd", logits, grad, loss)

	// The float32-label variant must agree bit for bit with the int one
	// (recompute probs/grad first: the FD loop left them perturbed).
	if err := SoftmaxInto(probs, logits, cfg); err != nil {
		t.Fatal(err)
	}
	if err := SoftmaxCrossEntropyBackwardInto(grad, probs, labels, cfg); err != nil {
		t.Fatal(err)
	}
	flabels := make([]float32, cfg.N)
	for i, l := range labels {
		flabels[i] = float32(l)
	}
	fgrad := make([]float32, cfg.Elems())
	if err := SoftmaxCrossEntropyBackwardFloatInto(fgrad, probs, flabels, cfg); err != nil {
		t.Fatal(err)
	}
	for i := range grad {
		if math.Float32bits(grad[i]) != math.Float32bits(fgrad[i]) {
			t.Fatalf("float-label grad diverges at %d: %v vs %v", i, grad[i], fgrad[i])
		}
	}
}

// TestBackwardIntoDeterminism requires the parallel backward kernels to be
// bit-identical across worker counts: every output element is written by
// exactly one worker with a fixed accumulation order, so GOMAXPROCS must not
// show up in the bits.
func TestBackwardIntoDeterminism(t *testing.T) {
	cfg := ConvConfig{N: 4, C: 5, H: 13, W: 11, K: 6, FH: 3, FW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	pcfg := PoolConfig{N: 4, C: 5, H: 12, W: 12, Window: 3, Stride: 2}

	in := tensor.Random(cfg.InputShape(), tensor.NCHW, 61)
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 62)
	dOut := tensor.Random(cfg.OutputShape(), tensor.NCHW, 63)
	pin := tensor.Random(pcfg.InputShape(), tensor.NCHW, 64)
	pdOut := tensor.Random(pcfg.OutputShape(), tensor.NCHW, 65)
	dataScratch := make([]float32, ConvGemmBackwardDataWorkspaceElems(cfg))
	filterScratch := make([]float32, ConvGemmBackwardFilterWorkspaceElems(cfg))

	run := func() (dIn, dW, pdIn *tensor.Tensor) {
		dIn = tensor.New(cfg.InputShape(), tensor.NCHW)
		dW = tensor.New(cfg.FilterShape(), tensor.NCHW)
		pdIn = tensor.New(pcfg.InputShape(), tensor.NCHW)
		if err := ConvGemmBackwardDataInto(dOut, filters, dIn, cfg, dataScratch); err != nil {
			t.Fatal(err)
		}
		if err := ConvGemmBackwardFilterInto(in, dOut, dW, cfg, filterScratch); err != nil {
			t.Fatal(err)
		}
		if err := PoolBackwardInto(pin, pdOut, pdIn, pcfg); err != nil {
			t.Fatal(err)
		}
		return dIn, dW, pdIn
	}

	old := gort.GOMAXPROCS(1)
	d1, w1, p1 := run()
	gort.GOMAXPROCS(old)
	if old < 2 {
		gort.GOMAXPROCS(4)
		defer gort.GOMAXPROCS(old)
	}
	d2, w2, p2 := run()

	cmp := func(name string, a, b []float32) {
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				t.Fatalf("%s: bit divergence at %d across worker counts: %v vs %v", name, i, a[i], b[i])
			}
		}
	}
	cmp("conv-bwd-data", d1.Data, d2.Data)
	cmp("conv-bwd-filter", w1.Data, w2.Data)
	cmp("pool-bwd", p1.Data, p2.Data)
}
