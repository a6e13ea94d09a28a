package layers

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"memcnn/internal/kernels"
	"memcnn/internal/tensor"
)

// TestForwardContract walks all six layer types over both layouts.  The
// workspace query must state exactly what the kernel demands: a run with that
// much scratch succeeds and is bit-identical to the allocating Forward helper,
// one element less is an error.  Forward's reference switch runs every layer
// but the convolution on that same kernel, bit for bit, and the convolution
// on the direct kernel, within the tolerance the GEMM core is held to.
func TestForwardContract(t *testing.T) {
	conv := testConvLayer(t)
	shape := tensor.Shape{N: 2, C: 5, H: 3, W: 3}
	pool, err := NewPool("pool", kernels.PoolConfig{N: 2, C: 3, H: 8, W: 8, Window: 2, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	softmax, err := NewSoftmax("prob", kernels.SoftmaxConfig{N: 3, Classes: 7})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := NewFullyConnected("fc", 3, 12, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	relu, err := NewReLU("relu", shape)
	if err != nil {
		t.Fatal(err)
	}
	lrn, err := NewLRN("lrn", shape, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	// want is the scratch each kernel demands, stated independently of the
	// layers' own answers.
	cases := []struct {
		l    Layer
		want func(lay tensor.Layout) int
	}{
		{conv, func(lay tensor.Layout) int { return kernels.ConvGemmWorkspaceElems(conv.Cfg, lay) }},
		{pool, func(tensor.Layout) int { return 0 }},
		{softmax, func(tensor.Layout) int { return 2 * 3 * 7 }},
		{fc, func(tensor.Layout) int { return 3 * 12 }},
		{relu, func(tensor.Layout) int { return 0 }},
		{lrn, func(tensor.Layout) int { return 0 }},
	}

	for _, tc := range cases {
		l := tc.l
		for _, lay := range tensor.Layouts {
			name := fmt.Sprintf("%s/%v", l.Name(), lay)
			need := l.WorkspaceElems(lay)
			if want := tc.want(lay); need != want {
				t.Errorf("%s: workspace query says %d elements, the kernel demands %d", name, need, want)
			}

			in := tensor.Random(l.InputShape(), lay, 5)
			ref, err := Forward(l, in, false)
			if err != nil {
				t.Errorf("%s: allocating forward: %v", name, err)
				continue
			}
			oracle, err := Forward(l, in, true)
			if err != nil {
				t.Errorf("%s: reference forward: %v", name, err)
				continue
			}
			if _, isConv := l.(*Conv); isConv {
				if !tensor.RelClose(ref, oracle, 1e-5, 1e-3) {
					t.Errorf("%s: the GEMM kernel is not within tolerance of the direct reference", name)
				}
			} else if !slices.EqualFunc(ref.Data, oracle.Data, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
				t.Errorf("%s: the reference switch does not run the layer's one kernel", name)
			}
			// Poison both so stale contents cannot pass for results.
			dst := tensor.New(l.OutputShape(), lay)
			scratch := make([]float32, need)
			for i := range dst.Data {
				dst.Data[i] = float32(math.NaN())
			}
			for i := range scratch {
				scratch[i] = float32(math.NaN())
			}
			if err := l.ForwardInto(in, dst, scratch); err != nil {
				t.Errorf("%s: run with exactly %d scratch elements: %v", name, need, err)
				continue
			}
			for i, v := range dst.Data {
				if math.Float32bits(v) != math.Float32bits(ref.Data[i]) {
					t.Errorf("%s: element %d is %v, allocating forward gives %v", name, i, v, ref.Data[i])
					break
				}
			}
			if need > 0 && l.ForwardInto(in, dst, scratch[:need-1]) == nil {
				t.Errorf("%s: run with %d scratch elements, one short, did not fail", name, need-1)
			}
		}
	}
}
