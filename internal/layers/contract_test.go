package layers

import (
	"fmt"
	"math"
	"testing"

	"memcnn/internal/kernels"
	"memcnn/internal/tensor"
)

// TestForwardContract walks all six layer types over every (algorithm,
// layout) pair, accepted or not.  For an accepted pair the workspace query
// must state exactly what the kernel demands — a run with that much scratch
// succeeds and is bit-identical to the allocating Forward helper, one element
// less is an error.  A pair the layer has no kernel for must be an error from
// the query, and from ForwardInto, never a panic.
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

	// want is the scratch each accepted kernel demands, stated independently
	// of the layers' own answers.
	cases := []struct {
		l    Layer
		want func(alg kernels.ConvAlgorithm, lay tensor.Layout) int
	}{
		{conv, func(alg kernels.ConvAlgorithm, lay tensor.Layout) int {
			switch alg {
			case kernels.ConvAlgGemm:
				return kernels.ConvGemmWorkspaceElems(conv.Cfg, lay)
			}
			return 0
		}},
		{pool, func(kernels.ConvAlgorithm, tensor.Layout) int { return 0 }},
		{softmax, func(kernels.ConvAlgorithm, tensor.Layout) int { return 2 * 3 * 7 }},
		{fc, func(kernels.ConvAlgorithm, tensor.Layout) int { return 3 * 12 }},
		{relu, func(kernels.ConvAlgorithm, tensor.Layout) int { return 0 }},
		{lrn, func(kernels.ConvAlgorithm, tensor.Layout) int { return 0 }},
	}
	algs := []kernels.ConvAlgorithm{kernels.ConvAlgDirect, kernels.ConvAlgGemm, kernels.ConvAlgorithm(99)}

	for _, tc := range cases {
		l := tc.l
		_, isConv := l.(*Conv)
		for _, alg := range algs {
			for _, lay := range tensor.Layouts {
				name := fmt.Sprintf("%s/%v/%v", l.Name(), alg, lay)
				accepted := alg == kernels.ConvAlgDirect || isConv && alg == kernels.ConvAlgGemm
				need, err := l.WorkspaceElems(alg, lay)
				if !accepted {
					if err == nil {
						t.Errorf("%s: the query accepted a pair the layer has no kernel for", name)
					}
					if alg == kernels.ConvAlgorithm(99) {
						in := tensor.Random(l.InputShape(), lay, 5)
						if l.ForwardInto(in, tensor.New(l.OutputShape(), lay), alg, nil) == nil {
							t.Errorf("%s: ForwardInto ran an algorithm that does not exist", name)
						}
					}
					continue
				}
				if err != nil {
					t.Errorf("%s: %v", name, err)
					continue
				}
				if want := tc.want(alg, lay); need != want {
					t.Errorf("%s: workspace query says %d elements, the kernel demands %d", name, need, want)
				}

				in := tensor.Random(l.InputShape(), lay, 5)
				ref, err := Forward(l, in, alg)
				if err != nil {
					t.Errorf("%s: allocating forward: %v", name, err)
					continue
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
				if err := l.ForwardInto(in, dst, alg, scratch); err != nil {
					t.Errorf("%s: run with exactly %d scratch elements: %v", name, need, err)
					continue
				}
				for i, v := range dst.Data {
					if math.Float32bits(v) != math.Float32bits(ref.Data[i]) {
						t.Errorf("%s: element %d is %v, allocating forward gives %v", name, i, v, ref.Data[i])
						break
					}
				}
				if need > 0 && l.ForwardInto(in, dst, alg, scratch[:need-1]) == nil {
					t.Errorf("%s: run with %d scratch elements, one short, did not fail", name, need-1)
				}
			}
		}
	}
}
