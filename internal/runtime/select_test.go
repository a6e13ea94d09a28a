package runtime_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"memcnn/internal/autotune"
	"memcnn/internal/runtime"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// TestDecisionRecordExplainsAFlip changes one rate of the price list the
// selection is given, the softmax's in CHWN, and reads the flip back from the
// decision record: only the classifier moves, to NCHW behind a transform, and
// its record names the runner-up, the margin the changed rate leaves and why.
// The record of the unchanged list says the opposite, by the margin the
// prices give.
func TestDecisionRecordExplainsAFlip(t *testing.T) {
	net, err := workloads.Cifar10WithBatch(8)
	if err != nil {
		t.Fatal(err)
	}
	caller := runtime.Uniform(net, tensor.NCHW)
	host := autotune.HostPrices()
	base, baseRecord := runtime.SelectWith(net, caller, host, false)
	changed := host
	changed.SoftmaxNS.CHWN = 40 * host.SoftmaxNS.CHWN
	flipped, record := runtime.SelectWith(net, caller, changed, false)

	last := len(net.Layers) - 1
	for i := range net.Layers {
		if i != last && flipped[i] != base[i] {
			t.Errorf("%s moved from %v to %v: only the classifier's price changed", net.Layers[i].Name(), base[i], flipped[i])
		}
	}
	prob := net.Layers[last]
	nchw, chwn := tensor.NCHW, tensor.CHWN
	if base[last] != chwn || flipped[last] != nchw {
		t.Fatalf("%s: %v on the host's prices, %v on the changed ones; want CHWN, then NCHW", prob.Name(), base[last], flipped[last])
	}
	price := func(p autotune.Prices, lay tensor.Layout) float64 {
		s, ok := p.Layer(prob, lay)
		if !ok {
			t.Fatalf("%s has no price in %v", prob.Name(), lay)
		}
		return s
	}
	transform := host.Convert(prob.InputShape(), tensor.CHWN, tensor.NCHW)
	d := record[last]
	if d.Layer != prob.Name() || d.Chosen != nchw || d.RunnerUp != chwn {
		t.Fatalf("decision %+v: want %s choosing NCHW over CHWN", d, prob.Name())
	}
	if want := price(changed, tensor.CHWN) - price(changed, tensor.NCHW) - transform; math.Abs(d.Margin-want) > 1e-12 {
		t.Errorf("%s's margin is %g s, want its CHWN price less its NCHW price and the transform before it, %g s", prob.Name(), d.Margin, want)
	}
	if !strings.HasPrefix(d.Reason, "beats CHWN by ") || !strings.Contains(d.Reason, "own price is") {
		t.Errorf("%s's reason %q does not name the runner-up and the price it lost on", prob.Name(), d.Reason)
	}
	b := baseRecord[last]
	if want := price(host, tensor.NCHW) + transform - price(host, tensor.CHWN); b.RunnerUp != nchw || math.Abs(b.Margin-want) > 1e-12 {
		t.Errorf("on the host's prices %s keeps CHWN over %v by %g s, want NCHW by %g s", prob.Name(), b.RunnerUp, b.Margin, want)
	}
	if len(d.Candidates) != 2 {
		t.Errorf("%s has %d candidates, want its two priced layouts: %+v", prob.Name(), len(d.Candidates), d.Candidates)
	}
}

// TestSelectionKeepsTheCallersLayoutOnATie prices every layout the same and
// every transform at nothing: every assignment then costs the same, and the
// selection must hand back the caller's layouts, whatever they are, with a
// margin of 0 where a layer had a real alternative.  Then a tie the order of
// a sum's terms decides: in AlexNet's training step on the host's prices,
// conv1 runs in CHWN and norm1 in NCHW, and the transform between them costs
// the same before or after conv1_relu, which costs the same in either layout,
// so the ReLU keeps the caller's NCHW and its record says it ties.
func TestSelectionKeepsTheCallersLayoutOnATie(t *testing.T) {
	net, err := workloads.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	flat := autotune.HostPrices()
	flat.GemmRunNS = 0
	flat.SyncUS = 0
	flat.ConvertGBs = math.Inf(1)
	for _, p := range []*autotune.PerLayout{&flat.PoolTapNS, &flat.FCGFLOPS, &flat.ReLUNS, &flat.LRNNS, &flat.SoftmaxNS} {
		p.CHWN = p.NCHW
	}
	flat.PoolVecTapNS = flat.PoolTapNS.NCHW
	caller := runtime.Uniform(net, tensor.NCHW)
	for i := 1; i < len(caller); i += 2 {
		caller[i] = tensor.CHWN
	}
	got, record := runtime.SelectWith(net, caller, flat, false)
	for i, lay := range got {
		if lay != caller[i] {
			t.Errorf("%s: %v, want the caller's %v on a tie", net.Layers[i].Name(), lay, caller[i])
		}
		if d := record[i]; d.RunnerUp != lay && d.Margin != 0 {
			t.Errorf("%s: margin %g s over %v, want a tie", d.Layer, d.Margin, d.RunnerUp)
		}
	}

	alex, err := workloads.AlexNet()
	if err != nil {
		t.Fatal(err)
	}
	got, record = runtime.SelectWith(alex, runtime.Uniform(alex, tensor.NCHW), autotune.HostPrices(), true)
	conv1, relu, norm1 := got[0], got[1], got[2]
	if alex.Layers[1].Name() != "conv1_relu" || conv1 != tensor.CHWN || norm1 != tensor.NCHW {
		t.Fatalf("AlexNet's step runs %s %v, %s %v, %s %v: want a ReLU between a CHWN and an NCHW layer",
			alex.Layers[0].Name(), conv1, alex.Layers[1].Name(), relu, alex.Layers[2].Name(), norm1)
	}
	if d := record[1]; relu != tensor.NCHW || !strings.HasPrefix(d.Reason, "ties ") {
		t.Errorf("%s: %v (%s), want the caller's NCHW on a tie", d.Layer, relu, d.Reason)
	}
}

// TestDecisionRecordRidesOnThePlannedProgram checks that a program compiled
// with selection carries one decision per layer whose winner is what it
// runs, that a program compiled without carries none, and that training
// keeps every layer in NCHW.
func TestDecisionRecordRidesOnThePlannedProgram(t *testing.T) {
	net, err := workloads.Cifar10WithBatch(8)
	if err != nil {
		t.Fatal(err)
	}
	prog := mustCompileOpts(t, planners()[2], net, runtime.Options{ConvAlgorithms: true})
	if len(prog.Decisions) != len(net.Layers) {
		t.Fatalf("%d decisions for %d layers", len(prog.Decisions), len(net.Layers))
	}
	for i, ch := range prog.Choices() {
		if d := prog.Decisions[i]; d.Chosen != ch || d.Layer != net.Layers[i].Name() {
			t.Errorf("decision %d (%s) chose %v, the program runs %v", i, d.Layer, d.Chosen, ch)
		}
	}
	if plain := mustCompileOpts(t, planners()[2], net, runtime.Options{}); plain.Decisions != nil {
		t.Errorf("a program compiled without selection carries %d decisions", len(plain.Decisions))
	}
	for i, lay := range runtime.SelectChoices(net, runtime.Uniform(net, tensor.NCHW), false, tensor.NCHW) {
		if lay != tensor.NCHW {
			t.Errorf("%s: %v with NCHW the only layout allowed", net.Layers[i].Name(), lay)
		}
	}
}

// TestSelectedBucketsMatchNCHW runs every power-of-two rebatching the batching
// server binds (1, 2, 4 and the base 8) of the selection's Cifar10@8 program,
// which runs in CHWN, against the all-NCHW program, and compares every
// layer's output bit for bit: the GEMM convolution's
// columns run image by image in CHWN (one image is one order in either
// layout), and the GEMM core fixes each element's accumulation order in both.
func TestSelectedBucketsMatchNCHW(t *testing.T) {
	net, err := workloads.Cifar10WithBatch(8)
	if err != nil {
		t.Fatal(err)
	}
	prog := mustCompileOpts(t, planners()[2], net, runtime.Options{ConvAlgorithms: true, Verify: true})
	if got := prog.Choices()[0]; got != tensor.CHWN {
		t.Fatalf("conv1 selected %v, want CHWN", got)
	}
	// layerOutputs runs p on in, one allocation per buffer, and returns every
	// layer op's output in NCHW.
	layerOutputs := func(p *runtime.Program, in *tensor.Tensor) []*tensor.Tensor {
		inst, err := runtime.NewInstance(p, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := tensor.ConvertInto(in, inst.Buffer(p.Input)); err != nil {
			t.Fatal(err)
		}
		if err := runtime.NewExecutor(p).ExecuteOn(context.Background(), inst); err != nil {
			t.Fatal(err)
		}
		var outs []*tensor.Tensor
		for _, op := range p.Ops {
			if op.Kind == runtime.OpLayer {
				outs = append(outs, tensor.Convert(inst.Buffer(op.Out), tensor.NCHW))
			}
		}
		return outs
	}
	for _, batch := range []int{1, 2, 4, 8} {
		bucket, err := prog.WithBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := runtime.Compile(bucket.Net, "fixed-NCHW", runtime.Uniform(bucket.Net, tensor.NCHW), runtime.Options{Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		in := tensor.Random(bucket.InputShape(), tensor.NCHW, uint64(batch))
		got, want := layerOutputs(bucket, in), layerOutputs(ref, in)
		for l := range want {
			for i, v := range want[l].Data {
				if math.Float32bits(got[l].Data[i]) != math.Float32bits(v) {
					t.Fatalf("batch %d, %s: element %d is %v in the selected layouts, %v in NCHW", batch, net.Layers[l].Name(), i, got[l].Data[i], v)
				}
			}
		}
	}
}

// TestTrainingStepSelection prices LeNet@16 as a training step: both
// convolutions and both pools run in CHWN and the fully-connected tail and
// the softmax in NCHW, one transform each way at fc1.  A copy of the price
// list whose transform costs the step between half and all of what the CHWN
// layers save flips them back to NCHW, and one where it costs under half
// keeps them: the transform is paid twice, by the activation and by its
// gradient.
func TestTrainingStepSelection(t *testing.T) {
	base, err := workloads.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	net, err := base.WithBatch(16)
	if err != nil {
		t.Fatal(err)
	}
	caller := runtime.Uniform(net, tensor.NCHW)
	host := autotune.HostPrices()
	fc1 := 4 // the first layer priced in NCHW alone
	wantCHWN := func(prices autotune.Prices) {
		t.Helper()
		got, _ := runtime.SelectWith(net, caller, prices, true)
		for i, lay := range got {
			if want := i < fc1; (lay == tensor.CHWN) != want {
				t.Errorf("%s trains in %v; CHWN wanted: %t", net.Layers[i].Name(), lay, want)
			}
		}
	}
	wantCHWN(host)

	// saved is what the layers below fc1 save in CHWN.
	var saved float64
	for _, l := range net.Layers[:fc1] {
		nchw, _ := host.Step(l, tensor.NCHW)
		chwn, _ := host.Step(l, tensor.CHWN)
		saved += nchw - chwn
	}
	if !(saved > 0) {
		t.Fatalf("the layers below fc1 save %g s in CHWN", saved)
	}
	bytes := float64(net.Layers[fc1].InputShape().Bytes())
	dear, cheap := host, host
	dear.ConvertGBs = bytes / (saved / 1.5 * 1e9)  // a transform costs 2/3 of the saving
	cheap.ConvertGBs = bytes / (saved / 2.5 * 1e9) // and here 2/5
	got, _ := runtime.SelectWith(net, caller, dear, true)
	for i, lay := range got {
		if lay != tensor.NCHW {
			t.Errorf("%s trains in %v when two transforms cost more than CHWN saves", net.Layers[i].Name(), lay)
		}
	}
	wantCHWN(cheap)
}
