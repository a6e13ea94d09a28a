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

// compileFixedLayout lowers net with every layer in one layout on the direct
// kernels, the single-layout baseline most tests run on.
func compileFixedLayout(net *network.Network, lay tensor.Layout, opts runtime.Options) (*runtime.Program, error) {
	return runtime.Compile(net, "fixed-"+lay.String(), runtime.Uniform(net, lay, kernels.ConvAlgDirect), opts)
}

// compileFixedOutOfPlace is compileFixedLayout with in-place execution off.
func compileFixedOutOfPlace(net *network.Network, lay tensor.Layout, opts runtime.Options) (*runtime.Program, error) {
	return runtime.CompileOutOfPlace(net, "fixed-"+lay.String(), runtime.Uniform(net, lay, kernels.ConvAlgDirect), opts)
}

// compilePinned lowers net in NCHW with every convolution pinned to alg and
// the static checker run over the result: the per-algorithm programs the
// golden suite holds against ReferenceForward.
func compilePinned(net *network.Network, alg kernels.ConvAlgorithm) (*runtime.Program, error) {
	return runtime.Compile(net, fmt.Sprintf("fixed-NCHW-%v", alg), runtime.Uniform(net, tensor.NCHW, alg), runtime.Options{Verify: true})
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
// Direct-only programs are checked against the naive Network.Forward;
// algorithm-selected programs against Program.ReferenceForward, which mirrors
// the per-layer algorithm choices (golden bit-equality holds per algorithm,
// not across algorithms — direct accumulates in float64 tap order, GEMM in
// float32 k-block order).
type goldenCase struct {
	name     string
	net      *network.Network
	planners []core.Policy
	rerun    bool
	opts     runtime.Options
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
		cases = append(cases, goldenCase{
			name: "AlexNet@4", net: alexSmall, planners: opt,
			opts: runtime.Options{ConvAlgorithms: true},
		})
		// Reduced-batch Cifar10 and ZFNet follow the AlexNet@4 precedent:
		// layer shapes unchanged, batch small enough for CI, checked against
		// ReferenceForward through the algorithm-selected GEMM path.
		cifarSmall, err := workloads.Cifar10WithBatch(16)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, goldenCase{
			name: "Cifar10@16", net: cifarSmall, planners: opt,
			opts: runtime.Options{ConvAlgorithms: true},
		})
		zfSmall, err := workloads.ZFNetWithBatch(4)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, goldenCase{
			name: "ZFNet@4", net: zfSmall, planners: opt,
			opts: runtime.Options{ConvAlgorithms: true},
		})
		// Reduced-batch VGG completes the set: the last paper network whose
		// golden run was gated behind MEMCNN_GOLDEN_FULL.  Batch 1 keeps its
		// thirteen 224x224 convolution layers affordable under -race.
		vggSmall, err := workloads.VGGWithBatch(1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, goldenCase{
			name: "VGG@1", net: vggSmall, planners: opt,
			opts: runtime.Options{ConvAlgorithms: true},
		})
	}
	if os.Getenv("MEMCNN_GOLDEN_FULL") != "" {
		for _, name := range []string{"Cifar10", "AlexNet", "ZFNet", "VGG"} {
			cases = append(cases, goldenCase{name: name, net: nets[name], planners: opt})
		}
	}
	return cases
}

// TestGoldenEquivalence checks the runtime against its functional reference:
// the planned execution must reproduce the reference output bit for bit
// (every layer accumulates in a fixed order regardless of layout and worker
// count, so even float32 results are exactly equal).
func TestGoldenEquivalence(t *testing.T) {
	for _, tc := range goldenCases(t) {
		in := tensor.Random(tc.net.InputShape(), tensor.CHWN, 42)
		var want *tensor.Tensor
		if !tc.opts.ConvAlgorithms {
			naive, err := tc.net.Forward(in)
			if err != nil {
				t.Fatalf("%s: naive forward: %v", tc.name, err)
			}
			want = naive
		}
		for _, planner := range tc.planners {
			prog := mustCompileOpts(t, planner, tc.net, tc.opts)
			if tc.opts.ConvAlgorithms && want == nil {
				// Algorithm selection depends only on layer shapes, so the
				// reference is shared across planners.
				ref, err := prog.ReferenceForward(in)
				if err != nil {
					t.Fatalf("%s: reference forward: %v", tc.name, err)
				}
				want = ref
			}
			exec := runtime.NewExecutor(prog)
			got, err := runBatch(exec, in, prog.OutputShape())
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, planner.Name, err)
			}
			requireBitEqual(t, tc.name+"/"+planner.Name, got, want)
			if !tc.rerun {
				continue
			}
			// A second run through the recycled arena must be identical.
			again, err := runBatch(exec, in, prog.OutputShape())
			if err != nil {
				t.Fatalf("%s/%s rerun: %v", tc.name, planner.Name, err)
			}
			requireBitEqual(t, tc.name+"/"+planner.Name+" rerun", again, want)
		}
	}
}

// TestWithBatchPinsChoices checks that rebatching a program lowers its own
// decision list — the base's layouts and convolution algorithms — instead of
// re-selecting by the (smaller) sub-batch shape: the property the replica
// scheduler's bit-equality rests on.
func TestWithBatchPinsChoices(t *testing.T) {
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	base := mustCompileOpts(t, planners()[2], nets["LeNet"],
		runtime.Options{ConvAlgorithms: true})
	gemms := 0
	for _, ch := range base.ConvChoices() {
		if ch.Alg == kernels.ConvAlgGemm {
			gemms++
		}
	}
	if gemms == 0 {
		t.Fatal("LeNet@128 selected no GEMM convolution; the pinning test needs one")
	}

	prog, err := base.WithBatch(1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := prog.InputShape().N, 1; got != want {
		t.Errorf("rebatched program batch %d, want %d", got, want)
	}
	// Layouts and algorithms must match layer for layer.
	baseChoices, gotChoices := base.Choices(), prog.Choices()
	if len(gotChoices) != len(baseChoices) {
		t.Fatalf("rebatched program has %d choices, base %d", len(gotChoices), len(baseChoices))
	}
	for i, ch := range gotChoices {
		if ch != baseChoices[i] {
			t.Errorf("layer %d: rebatched %v/%v, base %v/%v — the choice was not pinned",
				i, ch.Layout, ch.Alg, baseChoices[i].Layout, baseChoices[i].Alg)
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
			t.Fatalf("%s: output differs from Network.Forward (first at %d: %v vs %v, max |Δ| %v)",
				label, i, got.Data[i], want.Data[i], diff)
		}
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
	want, err := net.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	dst := tensor.New(net.OutputShape(), tensor.CHWN)
	if err := exec.RunInto(in, dst); err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "chwn delivery", tensor.Convert(dst, tensor.NCHW), want)
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

// TestAlgorithmSelectionCompile checks the tentpole of the conv-algorithm
// work: compiling with Options{ConvAlgorithms: true} records a per-layer
// strategy (both LeNet convolutions go to GEMM at batch 128: measured on the
// host, conv1 runs 4–9× and conv2 4–10× faster there than on the direct
// kernel), plans the GEMM workspace and the fully-connected/softmax staging
// as op-local arena buffers, and still reproduces the per-algorithm
// functional reference bit for bit.
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
		if ch.Alg != kernels.ConvAlgGemm || ch.WorkspaceBytes == 0 {
			t.Errorf("%s: got %v with %d B workspace, want im2col+gemm with its workspace", ch.Layer, ch.Alg, ch.WorkspaceBytes)
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

	// The selected program must differ from the direct-only one where an
	// algorithm switched: the GEMM accumulation order is not the direct
	// float64 tap order.
	naive, err := net.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range naive.Data {
		if got.Data[i] != naive.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Log("selected output happens to bit-match the direct reference; equality is allowed but unexpected")
	}
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
	nchw := runtime.Uniform(net, tensor.NCHW, kernels.ConvAlgDirect)
	badLayout := append([]runtime.Choice(nil), nchw...)
	badLayout[1].Layout = tensor.Layout(99)
	badAlg := append([]runtime.Choice(nil), nchw...)
	badAlg[0].Alg = kernels.ConvAlgorithm(99)
	onPool := runtime.Uniform(net, tensor.NCHW, kernels.ConvAlgDirect)
	for i, l := range net.Layers {
		if _, ok := l.(*layers.Pool); ok {
			onPool[i].Alg = kernels.ConvAlgGemm
		}
	}
	base, err := runtime.Compile(net, "base", nchw, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	compile := func(net *network.Network, choices []runtime.Choice) func() error {
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
		{"layout past tensor.Layouts", compile(net, runtime.Uniform(net, tensor.Layout(9), kernels.ConvAlgDirect)), "no valid layout"},
		{"unknown algorithm", compile(net, badAlg), "kernel"},
		{"algorithm on a layer without it", compile(net, onPool), "kernel"},
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
