package runtime_test

import (
	"os"
	"reflect"
	"testing"

	"memcnn/internal/autotune"
	"memcnn/internal/gpusim"
	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/network"
	"memcnn/internal/runtime"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// flipNet builds relu → conv → relu around a convolution of three 3×3
// filters over eight 16-channel 32×32 images, every layer planned in NCHW.
// The host price list gives the convolution to direct in NCHW, where GEMM's
// unroll copies pieces of rows (2.1 ns an element against direct's 1.7), and
// to GEMM in CHWN, where the copies move runs of eight images (0.6 ns); both
// ReLUs cost the same in either layout.
func flipNet(t *testing.T) (*network.Network, *network.ExecutionPlan) {
	t.Helper()
	shape := tensor.Shape{N: 8, C: 16, H: 32, W: 32}
	relu1, err := layers.NewReLU("relu1", shape)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := layers.NewConv("conv-flip", kernels.ConvConfig{N: 8, C: 16, H: 32, W: 32, K: 3, FH: 3, FW: 3, PadH: 1, PadW: 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	relu2, err := layers.NewReLU("relu2", conv.OutputShape())
	if err != nil {
		t.Fatal(err)
	}
	net, err := network.New("FlipNet", 8, relu1, conv, relu2)
	if err != nil {
		t.Fatal(err)
	}
	plan := &network.ExecutionPlan{PlannerName: "test", Network: net, Device: gpusim.TitanBlack()}
	for _, l := range net.Layers {
		plan.Layers = append(plan.Layers, network.PlannedLayer{Layer: l, Layout: tensor.NCHW})
	}
	return net, plan
}

// TestJointLayoutAlgorithmFlip checks that layout and algorithm are chosen
// together: the convolution's cheapest kernel is GEMM in CHWN, but in the
// plan's NCHW it is direct, so the selection pass moves the convolution to
// CHWN and GEMM at once, and since the two transforms around it would cost
// more than running both ReLUs in CHWN, the ReLUs move too and the program
// has no transform.  Without ConvAlgorithms, or with GEMM priced out, the
// plan's NCHW assignment stands and the layer runs the direct kernel; the
// explicit all-CHWN GEMM decision list lowers to the same program the
// selection pass produces.
func TestJointLayoutAlgorithmFlip(t *testing.T) {
	net, plan := flipNet(t)

	plain, err := runtime.CompileWithOptions(plan, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ch := plain.ConvChoices()[0]; ch.Alg != kernels.ConvAlgDirect || ch.Layout != tensor.NCHW {
		t.Errorf("without algorithm selection: got %v/%v, want direct/NCHW", ch.Alg, ch.Layout)
	}
	// Priced out of GEMM, every layout costs the same and the plan's stands:
	// it is the algorithm that moves the layout.
	noGemm := autotune.HostPrices()
	noGemm.GemmGFLOPS = 1e-6
	direct, _ := runtime.SelectWith(net, runtime.PlanChoices(plan), noGemm, false)
	for i, ch := range direct {
		if ch != (runtime.Choice{Layout: tensor.NCHW, Alg: kernels.ConvAlgDirect}) {
			t.Errorf("%s without GEMM: %v, want the plan's NCHW/direct", net.Layers[i].Name(), ch)
		}
	}

	joint, err := runtime.CompileWithOptions(plan, runtime.Options{ConvAlgorithms: true})
	if err != nil {
		t.Fatal(err)
	}
	if ch := joint.ConvChoices()[0]; ch.Alg != kernels.ConvAlgGemm || ch.Layout != tensor.CHWN {
		t.Fatalf("with algorithm selection: got %v/%v, want im2col+gemm/CHWN — the layout must move with the algorithm",
			ch.Alg, ch.Layout)
	}
	var kinds []string
	for _, op := range joint.Ops {
		kinds = append(kinds, op.Kind.String())
	}
	if want := []string{"layer", "layer", "layer"}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("selected program's ops are %v, want %v: the ReLUs follow the GEMM convolution into CHWN", kinds, want)
	}
	if d := joint.Decisions[0]; d.RunnerUp != (runtime.Choice{Layout: tensor.NCHW}) || !(d.Margin > 0) {
		t.Errorf("relu1's decision: runner-up %v by %g s, want NCHW/direct by a positive margin (%s)", d.RunnerUp, d.Margin, d.Reason)
	}

	listed, err := runtime.Compile(net, plan.PlannerName, runtime.Uniform(net, tensor.CHWN, kernels.ConvAlgGemm), runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := programDump(listed), programDump(joint); got != want {
		t.Errorf("the explicit all-CHWN GEMM decision list lowers to\n%s\nthe selection pass to\n%s", got, want)
	}
}

// TestFixedAlgorithmGolden holds both production convolution algorithms
// against ReferenceForward on the workload networks, with selection bypassed
// so each algorithm covers every convolution layer.  The cheap networks run
// un-gated; the ImageNet-scale shapes join behind MEMCNN_GOLDEN_FULL.
func TestFixedAlgorithmGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("fixed-algorithm goldens run full convolutions; skipped with -short")
	}
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	cases := []*network.Network{nets["LeNet"]}
	cifarSmall, err := workloads.Cifar10WithBatch(16)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, cifarSmall)
	if os.Getenv("MEMCNN_GOLDEN_FULL") != "" {
		alexSmall, err := workloads.AlexNetWithBatch(4)
		if err != nil {
			t.Fatal(err)
		}
		zfSmall, err := workloads.ZFNetWithBatch(4)
		if err != nil {
			t.Fatal(err)
		}
		vggSmall, err := workloads.VGGWithBatch(1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, alexSmall, zfSmall, vggSmall)
	}
	algs := []kernels.ConvAlgorithm{kernels.ConvAlgDirect, kernels.ConvAlgGemm}
	for _, net := range cases {
		in := tensor.Random(net.InputShape(), tensor.NCHW, 99)
		for _, alg := range algs {
			prog, err := compilePinned(net, alg)
			if err != nil {
				t.Fatalf("%s/%v: %v", net.Name, alg, err)
			}
			for _, ch := range prog.ConvChoices() {
				if ch.Alg != alg {
					t.Fatalf("%s/%v: layer %s compiled with %v", net.Name, alg, ch.Layer, ch.Alg)
				}
			}
			want, err := prog.ReferenceForward(in)
			if err != nil {
				t.Fatalf("%s/%v: reference forward: %v", net.Name, alg, err)
			}
			got, err := runBatch(runtime.NewExecutor(prog), in, prog.OutputShape())
			if err != nil {
				t.Fatalf("%s/%v: %v", net.Name, alg, err)
			}
			requireBitEqual(t, net.Name+"/"+alg.String(), got, want)
		}
	}
}
