package runtime_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"memcnn/internal/core"
	"memcnn/internal/frameworks"
	"memcnn/internal/gpusim"
	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/layout"
	"memcnn/internal/network"
	"memcnn/internal/runtime"
	_ "memcnn/internal/runtime/verify" // registers the checker Options.Verify runs
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// planners returns the execution policies the runtime is exercised under:
// both fixed layouts and the paper's optimiser.
func planners() []core.Policy {
	th := layout.TitanBlackThresholds()
	return []core.Policy{
		frameworks.CudaConvnet(),
		frameworks.Caffe(),
		frameworks.Optimized(th),
	}
}

func mustCompile(t *testing.T, planner core.Policy, net *network.Network) *runtime.Program {
	t.Helper()
	return mustCompileOpts(t, planner, net, runtime.Options{})
}

func mustCompileOpts(t *testing.T, planner core.Policy, net *network.Network, opts runtime.Options) *runtime.Program {
	t.Helper()
	plan, err := planner.Plan(gpusim.TitanBlack(), net)
	if err != nil {
		t.Fatalf("planning %s with %s: %v", net.Name, planner.Name, err)
	}
	prog, err := runtime.CompileWithOptions(plan, opts)
	if err != nil {
		t.Fatalf("compiling %s/%s: %v", net.Name, planner.Name, err)
	}
	return prog
}

// compileFixedLayout lowers net with every layer in one layout, the
// single-layout baseline most tests run on.
func compileFixedLayout(net *network.Network, lay tensor.Layout, opts runtime.Options) (*runtime.Program, error) {
	return runtime.Compile(net, "fixed-"+lay.String(), runtime.Uniform(net, lay), opts)
}

// compileFixedOutOfPlace is compileFixedLayout with in-place execution off.
func compileFixedOutOfPlace(net *network.Network, lay tensor.Layout, opts runtime.Options) (*runtime.Program, error) {
	return runtime.CompileOutOfPlace(net, "fixed-"+lay.String(), runtime.Uniform(net, lay), opts)
}

// compilePinned lowers net in NCHW with the static checker run over the
// result.  Its name carries the GEMM kernel's label, which programs.golden's
// pinned lines record.
func compilePinned(net *network.Network) (*runtime.Program, error) {
	return runtime.Compile(net, fmt.Sprintf("fixed-NCHW-%v", kernels.ConvAlgGemm), runtime.Uniform(net, tensor.NCHW), runtime.Options{Verify: true})
}

// TestCompileStructure checks the lowering of TinyNet: one op per layer, a
// zero-copy reshape view at the flattening boundary, and buffers consistent
// with the layer shapes.
func TestCompileStructure(t *testing.T) {
	net, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	for _, lay := range []tensor.Layout{tensor.NCHW, tensor.CHWN} {
		prog, err := compileFixedLayout(net, lay, runtime.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var layerOps, reshapeOps, transformOps, aliases int
		for _, op := range prog.Ops {
			switch op.Kind {
			case runtime.OpLayer:
				layerOps++
			case runtime.OpReshape:
				reshapeOps++
				if prog.Buffers[op.Out].AliasOf != runtime.NoBuffer {
					aliases++
				}
			case runtime.OpTransform:
				transformOps++
			}
		}
		if layerOps != len(net.Layers) {
			t.Errorf("%v: %d layer ops, want %d", lay, layerOps, len(net.Layers))
		}
		if transformOps != 0 {
			t.Errorf("%v: fixed-layout program contains %d transforms", lay, transformOps)
		}
		if reshapeOps == 0 {
			t.Errorf("%v: expected a reshape at the conv->fc flattening boundary", lay)
		}
		// NCHW reinterprets any reshape, CHWN reinterprets batch-preserving
		// ones — both hold at flattening boundaries, so every reshape must be
		// a zero-copy view.
		if aliases != reshapeOps {
			t.Errorf("%v: %d of %d reshapes are zero-copy views", lay, aliases, reshapeOps)
		}
		if prog.InputShape() != net.InputShape() || prog.OutputShape() != net.OutputShape() {
			t.Errorf("%v: program shapes %v->%v, want %v->%v",
				lay, prog.InputShape(), prog.OutputShape(), net.InputShape(), net.OutputShape())
		}
	}
}

// TestCompileWithTransforms checks that a plan's layout switches lower into
// as many transform ops: AlexNet at its own batch mixes layouts, and the
// workloads' batches move the first layer off its preferred layout, where
// there is nothing to transform (the input is written in its layout).
func TestCompileWithTransforms(t *testing.T) {
	th := layout.TitanBlackThresholds()
	for _, tc := range []struct {
		name  string
		batch int
	}{{"AlexNet", 0}, {"AlexNet", 4}, {"Cifar10", 8}, {"LeNet", 16}} {
		net, err := workloads.ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if tc.batch > 0 {
			if net, err = net.WithBatch(tc.batch); err != nil {
				t.Fatal(err)
			}
		}
		plan, err := frameworks.Optimized(th).Plan(gpusim.TitanBlack(), net)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := runtime.CompileWithOptions(plan, runtime.Options{})
		if err != nil {
			t.Fatal(err)
		}
		transforms := 0
		for _, op := range prog.Ops {
			if op.Kind == runtime.OpTransform {
				transforms++
			}
		}
		if transforms != plan.TransformCount() {
			t.Errorf("%s@%d: program has %d transform ops, plan expects %d", tc.name, net.InputShape().N, transforms, plan.TransformCount())
		}
	}
}

// TestMemoryPlanInvariants verifies, for every workload network under every
// planner, that the memory plan is sound (no two live buffers overlap) and
// that the arena's peak footprint is strictly below the naive
// all-buffers-live total.
func TestMemoryPlanInvariants(t *testing.T) {
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloads.NetworkOrder {
		net := nets[name]
		for _, planner := range planners() {
			prog := mustCompile(t, planner, net)
			if err := prog.Mem.Validate(prog); err != nil {
				t.Errorf("%s/%s: %v", name, planner.Name, err)
			}
			peak, naive := prog.Mem.PeakBytes(), prog.NaiveBytes()
			if peak >= naive {
				t.Errorf("%s/%s: peak %d B not below naive %d B", name, planner.Name, peak, naive)
			}
			// The arena must still hold the largest single buffer.
			for _, b := range prog.Buffers {
				if b.AliasOf == runtime.NoBuffer && b.Bytes() > peak {
					t.Errorf("%s/%s: buffer %v larger than arena", name, planner.Name, b.Shape)
				}
			}
			t.Logf("%s/%s: peak %.2f MiB vs naive %.2f MiB (%.0f%% saved)",
				name, planner.Name, float64(peak)/(1<<20), float64(naive)/(1<<20), 100*prog.Savings())
		}
	}
}

// goldenCase is one network of the equivalence suite with the execution
// policies it is checked under.  The functional CPU forward pass is the cost
// driver, so coverage is tiered: TinyNet (milliseconds) runs under every
// planner with a rerun through the recycled arena; LeNet and a small-batch
// AlexNet (seconds, skipped with -short) run under the paper's optimiser —
// AlexNet compiles with convolution algorithm selection, which makes its
// ImageNet-scale layer shapes affordable in CI through the GEMM path; the
// remaining ImageNet-scale models at full batch join — optimiser only — when
// MEMCNN_GOLDEN_FULL is set, as their forwards take minutes on a CPU.
//
// Every program, selection on and off, is checked bit for bit against
// Program.ReferenceForward, which runs the same kernels, and within the
// benchmark's tolerance against the naive Network.Forward, whose
// convolutions run the direct kernel (it accumulates in float64 tap order,
// GEMM in float32 k-block order).  Under the race detector the naive forward
// of the ImageNet-scale cases (heavy) takes minutes, so there they are held
// to ReferenceForward alone.
type goldenCase struct {
	name     string
	net      *network.Network
	planners []core.Policy
	rerun    bool
	heavy    bool
}

func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	tiny, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	opt := planners()[2:]
	cases := []goldenCase{{name: "TinyNet", net: tiny, planners: planners(), rerun: true}}
	if !testing.Short() {
		cases = append(cases, goldenCase{name: "LeNet", net: nets["LeNet"], planners: opt})
		alexSmall, err := workloads.AlexNetWithBatch(4)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, goldenCase{name: "AlexNet@4", net: alexSmall, planners: opt, heavy: true})
		// Reduced-batch Cifar10 and ZFNet follow the AlexNet@4 precedent:
		// layer shapes unchanged, batch small enough for CI.
		cifarSmall, err := workloads.Cifar10WithBatch(16)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, goldenCase{name: "Cifar10@16", net: cifarSmall, planners: opt})
		zfSmall, err := workloads.ZFNetWithBatch(4)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, goldenCase{name: "ZFNet@4", net: zfSmall, planners: opt, heavy: true})
		// Reduced-batch VGG completes the set: the last paper network whose
		// golden run was gated behind MEMCNN_GOLDEN_FULL.  Batch 1 keeps its
		// thirteen 224x224 convolution layers affordable under -race.
		vggSmall, err := workloads.VGGWithBatch(1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, goldenCase{name: "VGG@1", net: vggSmall, planners: opt, heavy: true})
	}
	if os.Getenv("MEMCNN_GOLDEN_FULL") != "" {
		for _, name := range []string{"Cifar10", "AlexNet", "ZFNet", "VGG"} {
			cases = append(cases, goldenCase{name: name, net: nets[name], planners: opt, heavy: true})
		}
	}
	return cases
}

// TestGoldenEquivalence checks the runtime against its functional references,
// selection on and off: the planned execution must reproduce
// ReferenceForward bit for bit (every layer accumulates in a fixed order
// regardless of layout and worker count, so even float32 results are exactly
// equal) and the naive Network.Forward within the benchmark's tolerance.
func TestGoldenEquivalence(t *testing.T) {
	for _, tc := range goldenCases(t) {
		in := tensor.Random(tc.net.InputShape(), tensor.CHWN, 42)
		var naive, want *tensor.Tensor
		var err error
		if !tc.heavy || !raceDetector {
			if naive, err = tc.net.Forward(in); err != nil {
				t.Fatalf("%s: naive forward: %v", tc.name, err)
			}
		}
		for _, sel := range []bool{false, true} {
			for _, planner := range tc.planners {
				label := fmt.Sprintf("%s/%s select=%t", tc.name, planner.Name, sel)
				prog := mustCompileOpts(t, planner, tc.net, runtime.Options{ConvAlgorithms: sel})
				if want == nil {
					// Every program runs the same kernels, whose bits do not
					// depend on the layout, so the reference is shared.
					if want, err = prog.ReferenceForward(in); err != nil {
						t.Fatalf("%s: reference forward: %v", label, err)
					}
					if naive != nil {
						requireClose(t, tc.name+" reference", want, naive)
					}
				}
				exec := runtime.NewExecutor(prog)
				got, err := runBatch(exec, in, prog.OutputShape())
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireBitEqual(t, label, got, want)
				if naive != nil {
					requireClose(t, label, got, naive)
				}
				if !tc.rerun {
					continue
				}
				// A second run through the recycled arena must be identical.
				again, err := runBatch(exec, in, prog.OutputShape())
				if err != nil {
					t.Fatalf("%s rerun: %v", label, err)
				}
				requireBitEqual(t, label+" rerun", again, want)
			}
		}
	}
}

// TestWithBatchPinsChoices checks that rebatching a program lowers its own
// decision list — the base's layouts — instead of re-selecting by the
// (smaller) sub-batch shape: the property the replica scheduler's
// bit-equality rests on.
func TestWithBatchPinsChoices(t *testing.T) {
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	base := mustCompileOpts(t, planners()[2], nets["LeNet"],
		runtime.Options{ConvAlgorithms: true})

	prog, err := base.WithBatch(1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := prog.InputShape().N, 1; got != want {
		t.Errorf("rebatched program batch %d, want %d", got, want)
	}
	// Layouts must match layer for layer.
	baseChoices, gotChoices := base.Choices(), prog.Choices()
	if len(gotChoices) != len(baseChoices) {
		t.Fatalf("rebatched program has %d choices, base %d", len(gotChoices), len(baseChoices))
	}
	for i, lay := range gotChoices {
		if lay != baseChoices[i] {
			t.Errorf("layer %d: rebatched %v, base %v — the choice was not pinned", i, lay, baseChoices[i])
		}
	}
}

func requireBitEqual(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	if got.Shape != want.Shape || got.Layout != want.Layout {
		t.Fatalf("%s: got %v/%v, want %v/%v", label, got.Shape, got.Layout, want.Shape, want.Layout)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			diff, _ := tensor.MaxAbsDiff(got, want)
			t.Fatalf("%s: output differs from the reference (first at %d: %v vs %v, max |Δ| %v)",
				label, i, got.Data[i], want.Data[i], diff)
		}
	}
}

// requireClose holds got within the benchmark's tolerance of want, the naive
// Network.Forward: 1e-5 absolute and 1e-3 relative.
func requireClose(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	if !tensor.RelClose(got, want, 1e-5, 1e-3) {
		diff, _ := tensor.MaxAbsDiff(got, want)
		t.Fatalf("%s: output is not within tolerance of Network.Forward (max |Δ| %v)", label, diff)
	}
}

// TestRunIntoConvertsLayouts checks RunInto delivery into a caller buffer of
// a different layout.
func TestRunIntoConvertsLayouts(t *testing.T) {
	net, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compileFixedLayout(net, tensor.CHWN, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exec := runtime.NewExecutor(prog)
	in := tensor.Random(net.InputShape(), tensor.NCHW, 7)
	want, err := prog.ReferenceForward(in)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := net.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	dst := tensor.New(net.OutputShape(), tensor.CHWN)
	if err := exec.RunInto(in, dst); err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "chwn delivery", tensor.Convert(dst, tensor.NCHW), want)
	requireClose(t, "chwn delivery", dst, naive)
}

// TestExecutorRejectsBadShapes covers the error paths.
func TestExecutorRejectsBadShapes(t *testing.T) {
	net, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compileFixedLayout(net, tensor.NCHW, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exec := runtime.NewExecutor(prog)
	bad := tensor.New(tensor.Shape{N: 4, C: 2, H: 12, W: 12}, tensor.NCHW)
	if _, err := runBatch(exec, bad, prog.OutputShape()); err == nil {
		t.Error("wrong input shape must be rejected")
	}
	in := tensor.New(net.InputShape(), tensor.NCHW)
	badOut := tensor.New(tensor.Shape{N: 4, C: 3, H: 1, W: 1}, tensor.NCHW)
	if err := exec.RunInto(in, badOut); err == nil {
		t.Error("wrong output shape must be rejected")
	}
}

// TestAlgorithmSelectionCompile checks a selected program's workspace:
// compiling with Options{ConvAlgorithms: true} records each convolution's
// layout with its GEMM workspace, plans that workspace and the
// fully-connected/softmax staging as op-local arena buffers, reproduces
// ReferenceForward bit for bit and the naive Network.Forward within
// tolerance.
func TestAlgorithmSelectionCompile(t *testing.T) {
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	net := nets["LeNet"]
	prog, err := compileFixedLayout(net, tensor.NCHW, runtime.Options{ConvAlgorithms: true})
	if err != nil {
		t.Fatal(err)
	}
	choices := prog.ConvChoices()
	if len(choices) != 2 {
		t.Fatalf("LeNet has 2 conv layers, ConvChoices reported %d", len(choices))
	}
	for _, ch := range choices {
		if ch.WorkspaceBytes == 0 {
			t.Errorf("%s in %v: no workspace for the GEMM unroll", ch.Layer, ch.Layout)
		}
	}
	if prog.ScratchBytes() == 0 {
		t.Error("program should plan scratch buffers for the GEMM conv, fully-connected and softmax layers")
	}
	if err := prog.Mem.Validate(prog); err != nil {
		t.Fatalf("memory plan with scratch buffers: %v", err)
	}
	// Scratch buffers must be live exactly during their op and nothing else.
	for i, op := range prog.Ops {
		if op.Scratch == runtime.NoBuffer {
			continue
		}
		if !prog.Buffers[op.Scratch].Scratch {
			t.Errorf("op %d scratch buffer %d is not marked Scratch", i, op.Scratch)
		}
		live := prog.Mem.Live[op.Scratch]
		if live.Def != i || live.LastUse != i {
			t.Errorf("op %d scratch live range [%d,%d], want [%d,%d]", i, live.Def, live.LastUse, i, i)
		}
	}

	in := tensor.Random(net.InputShape(), tensor.NCHW, 17)
	want, err := prog.ReferenceForward(in)
	if err != nil {
		t.Fatal(err)
	}
	exec := runtime.NewExecutor(prog)
	got, err := runBatch(exec, in, prog.OutputShape())
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "LeNet selected", got, want)
	again, err := runBatch(exec, in, prog.OutputShape()) // recycled arena with dirty scratch
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "LeNet selected rerun", again, want)
	naive, err := net.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	requireClose(t, "LeNet selected", got, naive)
}

// TestInPlaceReLUShrinksArena checks the aliasing-aware liveness tweak: with
// in-place execution (the default) every ReLU op's output buffer aliases its
// input, the arena peak never exceeds the out-of-place plan's, and the
// executor still reproduces the out-of-place results bit for bit.
func TestInPlaceReLUShrinksArena(t *testing.T) {
	net, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	inPlace, err := compileFixedLayout(net, tensor.NCHW, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	outOfPlace, err := compileFixedOutOfPlace(net, tensor.NCHW, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var aliasedLayers int
	for _, op := range inPlace.Ops {
		if op.Kind != runtime.OpLayer {
			continue
		}
		aliased := inPlace.Buffers[op.Out].AliasOf != runtime.NoBuffer
		if op.Layer.ForwardsInPlace(inPlace.Buffers[op.In].Layout) {
			if !aliased {
				t.Errorf("in-place-capable layer %q did not alias its output", op.Name)
			}
			aliasedLayers++
		} else if aliased {
			t.Errorf("layer %q aliases its output without declaring in-place support", op.Name)
		}
	}
	if aliasedLayers == 0 {
		t.Fatal("TinyNet has a ReLU; expected at least one in-place layer op")
	}
	for _, op := range outOfPlace.Ops {
		if op.Kind == runtime.OpLayer && outOfPlace.Buffers[op.Out].AliasOf != runtime.NoBuffer {
			t.Errorf("out-of-place program still aliases layer %q", op.Name)
		}
	}
	if ip, op := inPlace.Mem.PeakBytes(), outOfPlace.Mem.PeakBytes(); ip > op {
		t.Errorf("in-place peak %d B exceeds out-of-place peak %d B", ip, op)
	} else {
		t.Logf("peak %d B in place vs %d B out of place", ip, op)
	}
	if err := inPlace.Mem.Validate(inPlace); err != nil {
		t.Fatal(err)
	}
	in := tensor.Random(net.InputShape(), tensor.NCHW, 29)
	want, err := runBatch(runtime.NewExecutor(outOfPlace), in, outOfPlace.OutputShape())
	if err != nil {
		t.Fatal(err)
	}
	got, err := runBatch(runtime.NewExecutor(inPlace), in, inPlace.OutputShape())
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "in-place", got, want)

	// AlexNet's rectifiers alias multi-megabyte activations: the peak must
	// never grow and the all-buffers-live footprint must shrink strictly
	// (compile-only: execution is covered by the golden suite).
	alex, err := workloads.AlexNetWithBatch(4)
	if err != nil {
		t.Fatal(err)
	}
	alexIn, err := compileFixedLayout(alex, tensor.NCHW, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	alexOut, err := compileFixedOutOfPlace(alex, tensor.NCHW, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ip, op := alexIn.Mem.PeakBytes(), alexOut.Mem.PeakBytes(); ip > op {
		t.Errorf("AlexNet@4 in-place peak %d B exceeds out-of-place peak %d B", ip, op)
	} else {
		t.Logf("AlexNet@4 peak %.2f MiB in place vs %.2f MiB out of place",
			float64(ip)/(1<<20), float64(op)/(1<<20))
	}
	if ip, op := alexIn.NaiveBytes(), alexOut.NaiveBytes(); ip >= op {
		t.Errorf("AlexNet@4 in-place naive footprint %d B not below out-of-place %d B", ip, op)
	}

	// Where the rectifier dominates the live set the arena shrinks strictly:
	// a rectifier-only program keeps input and output live simultaneously
	// out of place, and merges them in place.
	relu, err := layers.NewReLU("relu", net.InputShape())
	if err != nil {
		t.Fatal(err)
	}
	reluNet, err := network.New("ReluOnly", net.Batch, relu)
	if err != nil {
		t.Fatal(err)
	}
	reluIn, err := compileFixedLayout(reluNet, tensor.NCHW, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reluOut, err := compileFixedOutOfPlace(reluNet, tensor.NCHW, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ip, op := reluIn.Mem.PeakBytes(), reluOut.Mem.PeakBytes(); ip >= op {
		t.Errorf("rectifier-dominated in-place peak %d B not below out-of-place peak %d B", ip, op)
	}
}

// TestCompileRejects covers every precondition of the compile entrypoints:
// each malformed request is an error, never a panic or a program.
func TestCompileRejects(t *testing.T) {
	net, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	nchw := runtime.Uniform(net, tensor.NCHW)
	badLayout := append([]tensor.Layout(nil), nchw...)
	badLayout[1] = tensor.Layout(99)
	base, err := runtime.Compile(net, "base", nchw, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	compile := func(net *network.Network, choices []tensor.Layout) func() error {
		return func() error {
			_, err := runtime.Compile(net, "test", choices, runtime.Options{})
			return err
		}
	}
	for _, tc := range []struct {
		name    string
		compile func() error
		want    string
	}{
		{"nil network", compile(nil, nil), "empty network"},
		{"network without layers", compile(&network.Network{Name: "Empty", Batch: 1}, nil), "empty network"},
		{"no choices", compile(net, nil), "choices for the"},
		{"one choice short", compile(net, nchw[1:]), "choices for the"},
		{"invalid layout", compile(net, badLayout), "no valid layout"},
		{"layout past tensor.Layouts", compile(net, runtime.Uniform(net, tensor.Layout(9))), "no valid layout"},
		{"nil plan", func() error {
			_, err := runtime.CompileWithOptions(nil, runtime.Options{})
			return err
		}, "plan is nil"},
		{"plan without a network", func() error {
			_, err := runtime.CompileWithOptions(&network.ExecutionPlan{}, runtime.Options{})
			return err
		}, "missing its network"},
		{"non-positive batch", func() error {
			_, err := base.WithBatch(0)
			return err
		}, "batch"},
	} {
		err := tc.compile()
		if err == nil {
			t.Errorf("%s: compiled, want an error", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
