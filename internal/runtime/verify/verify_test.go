package verify_test

import (
	"strings"
	"testing"

	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/network"
	"memcnn/internal/runtime"
	"memcnn/internal/runtime/train"
	"memcnn/internal/runtime/verify"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

func mustNets(t *testing.T) map[string]*network.Network {
	t.Helper()
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatalf("building workloads: %v", err)
	}
	return nets
}

var algs = []kernels.ConvAlgorithm{kernels.ConvAlgDirect, kernels.ConvAlgGemm, kernels.ConvAlgFFT}

// compileNCHW lowers net in NCHW with every convolution on alg.
func compileNCHW(net *network.Network, alg kernels.ConvAlgorithm, opts runtime.Options) (*runtime.Program, error) {
	return runtime.Compile(net, "fixed-NCHW", runtime.Uniform(net, tensor.NCHW, alg), opts)
}

// TestMatrixInference runs the full checker over every workload network ×
// every production convolution algorithm.  Every compiler output must verify
// clean.
func TestMatrixInference(t *testing.T) {
	for name, net := range mustNets(t) {
		for _, alg := range algs {
			p, err := compileNCHW(net, alg, runtime.Options{})
			if err != nil {
				t.Fatalf("%s/%v: compile: %v", name, alg, err)
			}
			if diags := verify.Check(p); len(diags) != 0 {
				t.Errorf("%s/%v: %d diagnostics on a sound program:\n%s", name, alg, len(diags), diagText(diags))
			}
		}
	}
}

// TestMatrixTraining verifies every workload network's compiled training
// step, and confirms that cutting a training program into pipeline stages is
// rejected: backward ops reach across any cut for forward activations and
// the caller-staged labels, so no stage would be self-contained.
func TestMatrixTraining(t *testing.T) {
	for name, net := range mustNets(t) {
		tp, err := train.CompileTraining(net, train.Options{})
		if err != nil {
			t.Fatalf("%s: training compile: %v", name, err)
		}
		if diags := verify.Check(tp.Program); len(diags) != 0 {
			t.Errorf("%s: %d diagnostics on a sound training program:\n%s", name, len(diags), diagText(diags))
		}
		if _, err := runtime.Shard(tp.Program, 4, runtime.ShardOptions{}); err == nil {
			t.Errorf("%s: sharding a training program succeeded; stages cannot be self-contained", name)
		} else if !strings.Contains(err.Error(), "cannot be cut here") {
			t.Errorf("%s: sharding a training program failed for the wrong reason: %v", name, err)
		}
	}
}

// TestMatrixDerived covers the derived programs: rebatched Program.WithBatch
// clones and checkpointed training programs.
func TestMatrixDerived(t *testing.T) {
	net, err := workloads.Cifar10WithBatch(8)
	if err != nil {
		t.Fatalf("cifar10: %v", err)
	}
	base, err := compileNCHW(net, kernels.ConvAlgGemm, runtime.Options{})
	if err != nil {
		t.Fatalf("compile base: %v", err)
	}
	clone, err := base.WithBatch(2)
	if err != nil {
		t.Fatalf("rebatching: %v", err)
	}
	if diags := verify.Check(clone); len(diags) != 0 {
		t.Errorf("rebatched clone: %d diagnostics:\n%s", len(diags), diagText(diags))
	}

	for _, ckpt := range []train.Checkpoint{train.CheckpointOff, train.CheckpointOn} {
		tp, err := train.CompileTraining(net, train.Options{Checkpoint: ckpt})
		if err != nil {
			t.Fatalf("training %v: %v", ckpt, err)
		}
		if diags := verify.Check(tp.Program); len(diags) != 0 {
			t.Errorf("training %v: %d diagnostics:\n%s", ckpt, len(diags), diagText(diags))
		}
	}
}

// TestOptionsVerify exercises the registered-hook path: compiling with
// Options.Verify (inference and training) runs this package's checker behind
// the runtime's registration hook and must succeed on sound programs.
func TestOptionsVerify(t *testing.T) {
	net, err := workloads.LeNet()
	if err != nil {
		t.Fatalf("lenet: %v", err)
	}
	p, err := compileNCHW(net, kernels.ConvAlgDirect, runtime.Options{Verify: true})
	if err != nil {
		t.Fatalf("compile with Verify: %v", err)
	}
	if !p.Opts.Verify {
		t.Fatalf("compiled program lost the Verify flag")
	}
	// Shard accepts a verified program; its stages are op ranges of it.
	if _, err := runtime.Shard(p, 2, runtime.ShardOptions{}); err != nil {
		t.Fatalf("shard with Verify: %v", err)
	}
	// A rebatched clone inherits the flag from the base.
	small, err := workloads.Cifar10WithBatch(4)
	if err != nil {
		t.Fatalf("cifar10: %v", err)
	}
	base, err := compileNCHW(small, kernels.ConvAlgDirect, runtime.Options{Verify: true})
	if err != nil {
		t.Fatalf("compile base: %v", err)
	}
	clone, err := base.WithBatch(2)
	if err != nil {
		t.Fatalf("rebatching with Verify: %v", err)
	}
	if !clone.Opts.Verify {
		t.Fatalf("rebatched clone lost the Verify flag")
	}
	if _, err := train.CompileTraining(net, train.Options{Verify: true}); err != nil {
		t.Fatalf("training compile with Verify: %v", err)
	}
}

// --- mutation tests -------------------------------------------------------
//
// Each test clones a sound program, corrupts one invariant, and asserts the
// checker rejects it with a diagnostic of the right check naming the op and
// buffer involved.

// cloneProgram deep-copies the parts of a program the mutation tests modify.
func cloneProgram(p *runtime.Program) *runtime.Program {
	q := *p
	q.Buffers = append([]runtime.Buffer(nil), p.Buffers...)
	q.Ops = append([]runtime.Op(nil), p.Ops...)
	q.ExtraInputs = append([]runtime.BufferID(nil), p.ExtraInputs...)
	m := *p.Mem
	m.Offsets = append([]int(nil), p.Mem.Offsets...)
	m.Live = append([]runtime.Interval(nil), p.Mem.Live...)
	q.Mem = &m
	return &q
}

func rootOf(p *runtime.Program, id runtime.BufferID) runtime.BufferID {
	for p.Buffers[id].AliasOf != runtime.NoBuffer {
		id = p.Buffers[id].AliasOf
	}
	return id
}

func diagText(diags []verify.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("\t")
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	return b.String()
}

// wantDiag asserts that the diagnostics contain a finding of the given check
// anchored to the given op and buffer (-1 / NoBuffer skip that field match).
func wantDiag(t *testing.T, diags []verify.Diagnostic, check string, op int, buf runtime.BufferID) verify.Diagnostic {
	t.Helper()
	if len(diags) == 0 {
		t.Fatalf("program accepted; want a %q diagnostic", check)
	}
	for _, d := range diags {
		if d.Check != check {
			continue
		}
		if op >= 0 && d.Op != op {
			continue
		}
		if buf != runtime.NoBuffer && d.Buffer != buf {
			continue
		}
		return d
	}
	t.Fatalf("no %q diagnostic for op %d buffer %d; got:\n%s", check, op, buf, diagText(diags))
	return verify.Diagnostic{}
}

func compileLeNet(t *testing.T, alg kernels.ConvAlgorithm) *runtime.Program {
	t.Helper()
	net, err := workloads.LeNet()
	if err != nil {
		t.Fatalf("lenet: %v", err)
	}
	p, err := compileNCHW(net, alg, runtime.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func compileCifar(t *testing.T) *runtime.Program {
	t.Helper()
	net, err := workloads.Cifar10WithBatch(4)
	if err != nil {
		t.Fatalf("cifar10: %v", err)
	}
	p, err := compileNCHW(net, kernels.ConvAlgDirect, runtime.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func compileTraining(t *testing.T, ckpt train.Checkpoint) *train.Program {
	t.Helper()
	net, err := workloads.Cifar10WithBatch(4)
	if err != nil {
		t.Fatalf("cifar10: %v", err)
	}
	tp, err := train.CompileTraining(net, train.Options{Checkpoint: ckpt})
	if err != nil {
		t.Fatalf("training compile: %v", err)
	}
	return tp
}

func TestMutationSwappedOps(t *testing.T) {
	p := cloneProgram(compileLeNet(t, kernels.ConvAlgDirect))
	i := -1
	for k := 0; k+1 < len(p.Ops); k++ {
		a, b := p.Ops[k], p.Ops[k+1]
		if a.Kind == runtime.OpLayer && b.Kind == runtime.OpLayer && b.In == a.Out &&
			p.Buffers[a.Out].AliasOf == runtime.NoBuffer && p.Buffers[b.Out].AliasOf == runtime.NoBuffer {
			i = k
			break
		}
	}
	if i < 0 {
		t.Fatal("no adjacent layer-op pair to swap")
	}
	stolen := p.Ops[i].Out // after the swap, read at position i before any write
	p.Ops[i], p.Ops[i+1] = p.Ops[i+1], p.Ops[i]
	diags := verify.Check(p)
	wantDiag(t, diags, verify.CheckDataflow, i, stolen)
	// The memory plan was computed for the original order, so it must also
	// read as stale.
	wantDiag(t, diags, verify.CheckPlan, -1, runtime.NoBuffer)
	if runtime.VerifyProgram(p) == nil {
		t.Fatal("registered verifier accepted the swapped program")
	}
}

func TestMutationAliasCycle(t *testing.T) {
	p := cloneProgram(compileCifar(t))
	var alias runtime.BufferID = runtime.NoBuffer
	for id := range p.Buffers {
		if p.Buffers[id].AliasOf != runtime.NoBuffer {
			alias = runtime.BufferID(id)
			break
		}
	}
	if alias == runtime.NoBuffer {
		t.Fatal("program has no alias buffer")
	}
	p.Buffers[alias].AliasOf = alias // self-cycle: root resolution would never terminate
	wantDiag(t, verify.Check(p), verify.CheckAlias, -1, alias)
}

func TestMutationAliasShape(t *testing.T) {
	p := cloneProgram(compileCifar(t))
	var alias runtime.BufferID = runtime.NoBuffer
	for id := range p.Buffers {
		if p.Buffers[id].AliasOf != runtime.NoBuffer && !p.Buffers[id].Scratch {
			alias = runtime.BufferID(id)
			break
		}
	}
	if alias == runtime.NoBuffer {
		t.Fatal("program has no alias buffer")
	}
	p.Buffers[alias].Shape.W++ // the view no longer reinterprets its root
	wantDiag(t, verify.Check(p), verify.CheckAlias, -1, alias)
}

func TestMutationShrunkScratch(t *testing.T) {
	for _, alg := range []kernels.ConvAlgorithm{kernels.ConvAlgGemm, kernels.ConvAlgFFT} {
		p := cloneProgram(compileLeNet(t, alg))
		op := -1
		for k, o := range p.Ops {
			if o.Kind == runtime.OpLayer && o.Alg == alg && o.Scratch != runtime.NoBuffer {
				op = k
				break
			}
		}
		if op < 0 {
			t.Fatalf("%v: no conv op with scratch", alg)
		}
		sc := p.Ops[op].Scratch
		p.Buffers[sc].Shape.W /= 2 // workspace now smaller than the kernel needs
		d := wantDiag(t, verify.Check(p), verify.CheckWorkspace, op, sc)
		if !strings.Contains(d.Msg, "needs") {
			t.Errorf("%v: diagnostic does not state the required size: %s", alg, d)
		}
	}
}

// gradientOp returns the index of the training program's first op of the
// given kind on a layer of type L, or fails the test.
func gradientOp[L any](t *testing.T, p *runtime.Program, kind runtime.OpKind) int {
	t.Helper()
	for k, o := range p.Ops {
		if _, ok := o.Layer.(L); ok && o.Kind == kind {
			return k
		}
	}
	t.Fatalf("no %v op on a %T layer", kind, *new(L))
	return -1
}

func TestMutationShrunkGradientScratch(t *testing.T) {
	for _, kind := range []runtime.OpKind{runtime.OpBackward, runtime.OpGradFilter} {
		p := cloneProgram(compileTraining(t, train.CheckpointOff).Program)
		op := gradientOp[*layers.Conv](t, p, kind)
		if p.Ops[op].Alg != kernels.ConvAlgGemm || p.Ops[op].Scratch == runtime.NoBuffer {
			t.Fatalf("%v op %s runs %v with scratch %d; want a GEMM gradient with a workspace", kind, p.Ops[op].Name, p.Ops[op].Alg, p.Ops[op].Scratch)
		}
		sc := p.Ops[op].Scratch
		p.Buffers[sc].Shape.W-- // one element short of the GEMM gradient's workspace
		d := wantDiag(t, verify.Check(p), verify.CheckWorkspace, op, sc)
		if !strings.Contains(d.Msg, "needs") {
			t.Errorf("%v: diagnostic does not state the required size: %s", kind, d)
		}
	}
}

func TestMutationGradientAlgorithm(t *testing.T) {
	for _, m := range []struct {
		name string
		op   func(*runtime.Program) int
		alg  kernels.ConvAlgorithm
	}{
		// A convolution's gradients run on GEMM whatever its forward runs.
		{"fft grad-filter", func(p *runtime.Program) int { return gradientOp[*layers.Conv](t, p, runtime.OpGradFilter) }, kernels.ConvAlgFFT},
		{"direct conv backward", func(p *runtime.Program) int { return gradientOp[*layers.Conv](t, p, runtime.OpBackward) }, kernels.ConvAlgDirect},
		// Every other layer's gradients are its own kernels.
		{"gemm pool backward", func(p *runtime.Program) int { return gradientOp[*layers.Pool](t, p, runtime.OpBackward) }, kernels.ConvAlgGemm},
	} {
		p := cloneProgram(compileTraining(t, train.CheckpointOff).Program)
		op := m.op(p)
		p.Ops[op].Alg = m.alg
		d := wantDiag(t, verify.Check(p), verify.CheckDeterminism, op, runtime.NoBuffer)
		if !strings.Contains(d.Msg, "but its kernel is") {
			t.Errorf("%s: diagnostic does not name the kernel the op runs: %s", m.name, d)
		}
	}
}

func TestMutationReadBeforeWrite(t *testing.T) {
	p := cloneProgram(compileLeNet(t, kernels.ConvAlgDirect))
	// Point an early op's input at a buffer only defined later.
	op := -1
	for k, o := range p.Ops {
		if o.Kind == runtime.OpLayer {
			op = k
			break
		}
	}
	late := p.Ops[len(p.Ops)-1].Out
	if rootOf(p, late) == rootOf(p, p.Ops[op].In) {
		t.Fatal("test premise broken: output shares the first op's input storage")
	}
	p.Ops[op].In = late
	wantDiag(t, verify.Check(p), verify.CheckDataflow, op, late)
}

func TestMutationInPlaceClobber(t *testing.T) {
	p := cloneProgram(compileCifar(t))
	// Find an in-place op (ReLU writing over its input's storage) and make a
	// later op read the pre-ReLU view.
	ip := -1
	for k, o := range p.Ops {
		if o.Kind == runtime.OpLayer && rootOf(p, o.Out) == rootOf(p, o.In) && o.In != o.Out {
			ip = k
			break
		}
	}
	if ip < 0 {
		t.Fatal("program has no in-place layer op")
	}
	victim := p.Ops[ip].In
	reader := -1
	for k := ip + 1; k < len(p.Ops); k++ {
		if o := p.Ops[k]; o.Kind == runtime.OpLayer && p.Buffers[o.In].Shape == p.Buffers[victim].Shape {
			reader = k
			break
		}
	}
	if reader < 0 {
		// No shape-compatible later reader; retarget the next op regardless —
		// the checker flags the hazard before any shape concern.
		reader = ip + 1
	}
	p.Ops[reader].In = victim
	wantDiag(t, verify.Check(p), verify.CheckInPlace, reader, victim)
}

func TestMutationUnknownAlgorithm(t *testing.T) {
	p := cloneProgram(compileLeNet(t, kernels.ConvAlgDirect))
	op := -1
	for k, o := range p.Ops {
		if o.Kind == runtime.OpLayer {
			op = k
			break
		}
	}
	p.Ops[op].Alg = kernels.ConvAlgorithm(99)
	d := wantDiag(t, verify.Check(p), verify.CheckDeterminism, op, runtime.NoBuffer)
	if !strings.Contains(d.Msg, "accumulation order") {
		t.Errorf("diagnostic does not mention the accumulation order: %s", d)
	}
}

func TestMutationScratchOnWrongLayer(t *testing.T) {
	p := cloneProgram(compileCifar(t))
	// Attach an existing scratch buffer to an op whose layer has no
	// workspace path on the direct algorithm (an in-place ReLU).
	var sc runtime.BufferID = runtime.NoBuffer
	for _, o := range p.Ops {
		if o.Scratch != runtime.NoBuffer {
			sc = o.Scratch
			break
		}
	}
	if sc == runtime.NoBuffer {
		t.Fatal("program has no scratch buffer")
	}
	op := -1
	for k, o := range p.Ops {
		if o.Kind == runtime.OpLayer && o.Scratch == runtime.NoBuffer && rootOf(p, o.Out) == rootOf(p, o.In) {
			op = k
			break
		}
	}
	if op < 0 {
		t.Fatal("no scratch-free in-place layer op")
	}
	p.Ops[op].Scratch = sc
	wantDiag(t, verify.Check(p), verify.CheckWorkspace, op, sc)
}

func TestMutationOverlapOffsets(t *testing.T) {
	p := cloneProgram(compileLeNet(t, kernels.ConvAlgDirect))
	// Find two roots with intersecting live ranges and force them onto the
	// same offset.
	var a, b runtime.BufferID = runtime.NoBuffer, runtime.NoBuffer
outer:
	for i := range p.Buffers {
		if p.Buffers[i].AliasOf != runtime.NoBuffer {
			continue
		}
		for j := i + 1; j < len(p.Buffers); j++ {
			if p.Buffers[j].AliasOf != runtime.NoBuffer {
				continue
			}
			li, lj := p.Mem.Live[i], p.Mem.Live[j]
			if li.Def <= lj.LastUse && lj.Def <= li.LastUse {
				a, b = runtime.BufferID(i), runtime.BufferID(j)
				break outer
			}
		}
	}
	if a == runtime.NoBuffer {
		t.Fatal("no two concurrently-live roots")
	}
	for id := range p.Buffers {
		if rootOf(p, runtime.BufferID(id)) == b {
			p.Mem.Offsets[id] = p.Mem.Offsets[a]
		}
	}
	if p.Mem.Offsets[a]+p.Buffers[a].Elems() > p.Mem.ArenaElems {
		p.Mem.ArenaElems = p.Mem.Offsets[a] + p.Buffers[a].Elems() // keep bounds clean; the overlap is the defect
	}
	if p.Mem.Offsets[b]+p.Buffers[b].Elems() > p.Mem.ArenaElems {
		p.Mem.ArenaElems = p.Mem.Offsets[b] + p.Buffers[b].Elems()
	}
	d := wantDiag(t, verify.Check(p), verify.CheckPlan, -1, runtime.NoBuffer)
	if !strings.Contains(d.Msg, "overlap") {
		t.Errorf("diagnostic does not report the overlap: %s", d)
	}
}

func TestMutationStaleLiveRange(t *testing.T) {
	p := cloneProgram(compileLeNet(t, kernels.ConvAlgDirect))
	var root runtime.BufferID = runtime.NoBuffer
	for id := range p.Buffers {
		if p.Buffers[id].AliasOf == runtime.NoBuffer && !p.Buffers[id].Scratch {
			root = runtime.BufferID(id)
			break
		}
	}
	p.Mem.Live[root] = runtime.Interval{Def: p.Mem.Live[root].Def, LastUse: p.Mem.Live[root].LastUse + 1}
	d := wantDiag(t, verify.Check(p), verify.CheckPlan, -1, root)
	if !strings.Contains(d.Msg, "stale") {
		t.Errorf("diagnostic does not report staleness: %s", d)
	}
}

// TestMutationStaleBound tampers with the recorded lower bound, so the plan's
// explanation of its size no longer matches its live ranges, and then with
// the arena, shrinking it under the bound.
func TestMutationStaleBound(t *testing.T) {
	p := cloneProgram(compileLeNet(t, kernels.ConvAlgDirect))
	p.Mem.BoundElems--
	d := wantDiag(t, verify.Check(p), verify.CheckPlan, -1, runtime.NoBuffer)
	if !strings.Contains(d.Msg, "lower bound") || !strings.Contains(d.Msg, "stale") {
		t.Errorf("diagnostic does not report a stale bound: %s", d)
	}

	// An arena under the (true) bound cannot hold the roots live at its peak.
	p = cloneProgram(compileLeNet(t, kernels.ConvAlgDirect))
	p.Mem.ArenaElems = p.Mem.BoundElems - 1
	d = wantDiag(t, verify.Check(p), verify.CheckPlan, -1, runtime.NoBuffer)
	if !strings.Contains(d.Msg, "under the liveness lower bound") {
		t.Errorf("diagnostic does not report an arena under the bound: %s", d)
	}
}

func TestMutationSGDBeforeGradFilter(t *testing.T) {
	tp := compileTraining(t, train.CheckpointOff)
	p := cloneProgram(tp.Program)
	gf := -1
	for k, o := range p.Ops {
		if o.Kind == runtime.OpGradFilter && k+1 < len(p.Ops) && p.Ops[k+1].Kind == runtime.OpSGD {
			gf = k
			break
		}
	}
	if gf < 0 {
		t.Fatal("no grad-filter/sgd pair")
	}
	p.Ops[gf], p.Ops[gf+1] = p.Ops[gf+1], p.Ops[gf]
	d := wantDiag(t, verify.Check(p), verify.CheckTraining, gf, runtime.NoBuffer)
	if !strings.Contains(d.Msg, "grad-filter") {
		t.Errorf("diagnostic does not name the missing grad-filter: %s", d)
	}
}

func TestMutationLayerAfterSGD(t *testing.T) {
	tp := compileTraining(t, train.CheckpointOff)
	p := cloneProgram(tp.Program)
	// Re-run a trainable layer's forward op after its SGD update: it would
	// read mid-step parameters.
	var fwd runtime.Op
	found := false
	for _, o := range p.Ops {
		if o.Kind == runtime.OpSGD {
			for _, f := range p.Ops {
				if f.Kind == runtime.OpLayer && f.Layer == o.Layer {
					fwd, found = f, true
					break
				}
			}
			break
		}
	}
	if !found {
		t.Fatal("no forward op for an SGD-updated layer")
	}
	p.Ops = append(p.Ops, fwd)
	wantDiag(t, verify.Check(p), verify.CheckTraining, len(p.Ops)-1, runtime.NoBuffer)
}

func TestMutationDuplicateRecompute(t *testing.T) {
	tp := compileTraining(t, train.CheckpointOn)
	if tp.RecomputeOps == 0 {
		t.Skip("checkpointed program has no recompute ops")
	}
	p := cloneProgram(tp.Program)
	rc := -1
	for k, o := range p.Ops {
		if o.Kind == runtime.OpRecompute {
			rc = k
			break
		}
	}
	dup := p.Ops[rc]
	p.Ops = append(p.Ops[:rc+1], append([]runtime.Op{dup}, p.Ops[rc+1:]...)...)
	d := wantDiag(t, verify.Check(p), verify.CheckTraining, rc+1, dup.Out)
	if !strings.Contains(d.Msg, "recompute") {
		t.Errorf("diagnostic does not mention the recompute: %s", d)
	}
}

// TestVerifyOptionRejects confirms the Options.Verify wiring turns a checker
// rejection into a compile error: a program corrupted after compilation and
// re-verified through the runtime hook must fail.
func TestVerifyOptionRejects(t *testing.T) {
	p := cloneProgram(compileLeNet(t, kernels.ConvAlgDirect))
	p.Ops[0].In = p.Ops[len(p.Ops)-1].Out
	err := runtime.VerifyProgram(p)
	if err == nil {
		t.Fatal("corrupted program passed the registered verifier")
	}
	var verr *verify.Error
	if !errorsAs(err, &verr) {
		t.Fatalf("error is not a *verify.Error: %T", err)
	}
	if len(verr.Diags) == 0 {
		t.Fatal("verify.Error carries no diagnostics")
	}
}

// errorsAs avoids importing errors for one call site.
func errorsAs(err error, target **verify.Error) bool {
	e, ok := err.(*verify.Error)
	if ok {
		*target = e
	}
	return ok
}
