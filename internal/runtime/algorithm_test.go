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
// The host price list prices the convolution's GEMM unroll at 2.05 ns an
// element in NCHW, where it copies pieces of rows, and 0.56 ns in CHWN, where
// the copies move runs of eight images; both ReLUs cost the same in either
// layout.
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

// TestJointLayoutAlgorithmFlip checks that the layouts of a chain are chosen
// together: the convolution's GEMM unroll is cheapest in CHWN, so the
// selection pass moves the convolution there, and since the two transforms
// around it would cost more than running both ReLUs in CHWN, the ReLUs move
// too and the program has no transform.  Without selection, or with the
// unroll priced the same in both layouts, the plan's NCHW assignment stands;
// the explicit all-CHWN decision list lowers to the same program the
// selection pass produces.
func TestJointLayoutAlgorithmFlip(t *testing.T) {
	net, plan := flipNet(t)

	plain, err := runtime.CompileWithOptions(plan, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ch := plain.ConvChoices()[0]; ch.Layout != tensor.NCHW {
		t.Errorf("without selection: got %v, want NCHW", ch.Layout)
	}
	// With the unroll's run length priced out, every layout costs the same
	// and the plan's stands: it is the unroll that moves the layout.
	flat := autotune.HostPrices()
	flat.GemmRunNS = 0
	same, _ := runtime.SelectWith(net, runtime.PlanChoices(plan), flat, false)
	for i, lay := range same {
		if lay != tensor.NCHW {
			t.Errorf("%s with a layout-blind unroll: %v, want the plan's NCHW", net.Layers[i].Name(), lay)
		}
	}

	joint, err := runtime.CompileWithOptions(plan, runtime.Options{ConvAlgorithms: true})
	if err != nil {
		t.Fatal(err)
	}
	if ch := joint.ConvChoices()[0]; ch.Layout != tensor.CHWN {
		t.Fatalf("with selection: got %v, want CHWN — the layout must move with the unroll", ch.Layout)
	}
	var kinds []string
	for _, op := range joint.Ops {
		kinds = append(kinds, op.Kind.String())
	}
	if want := []string{"layer", "layer", "layer"}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("selected program's ops are %v, want %v: the ReLUs follow the convolution into CHWN", kinds, want)
	}
	if d := joint.Decisions[0]; d.RunnerUp != tensor.NCHW || !(d.Margin > 0) {
		t.Errorf("relu1's decision: runner-up %v by %g s, want NCHW by a positive margin (%s)", d.RunnerUp, d.Margin, d.Reason)
	}

	listed, err := runtime.Compile(net, plan.PlannerName, runtime.Uniform(net, tensor.CHWN), runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := programDump(listed), programDump(joint); got != want {
		t.Errorf("the explicit all-CHWN decision list lowers to\n%s\nthe selection pass to\n%s", got, want)
	}
}

// TestFixedAlgorithmGolden holds the single-layout programs, selection
// bypassed, against ReferenceForward bit for bit and against the naive
// Network.Forward, whose convolutions run the direct kernel, within the
// benchmark's tolerance, on the workload networks.  The cheap networks run
// un-gated; the ImageNet-scale shapes join behind MEMCNN_GOLDEN_FULL.
func TestFixedAlgorithmGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("fixed-layout goldens run full convolutions; skipped with -short")
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
	for _, net := range cases {
		in := tensor.Random(net.InputShape(), tensor.NCHW, 99)
		naive, err := net.Forward(in)
		if err != nil {
			t.Fatalf("%s: naive forward: %v", net.Name, err)
		}
		for _, lay := range tensor.Layouts {
			label := net.Name + "/" + lay.String()
			prog, err := compileFixedLayout(net, lay, runtime.Options{Verify: true})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want, err := prog.ReferenceForward(in)
			if err != nil {
				t.Fatalf("%s: reference forward: %v", label, err)
			}
			got, err := runBatch(runtime.NewExecutor(prog), in, prog.OutputShape())
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireBitEqual(t, label, got, want)
			requireClose(t, label, got, naive)
		}
	}
}
