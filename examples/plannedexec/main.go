// Example plannedexec walks the compile → memory-plan → execute pipeline of
// internal/runtime on a small network: it plans the network with the paper's
// optimiser, prints the lowered op list and the static memory plan, runs the
// compiled program and compares the result with the naive Network.Forward.
// The program's convolution runs im2col+GEMM and the naive forward the
// float64-accumulating direct kernel, so the two differ in the last bits.
package main

import (
	"fmt"
	"os"

	"memcnn/internal/frameworks"
	"memcnn/internal/gpusim"
	"memcnn/internal/layout"
	memruntime "memcnn/internal/runtime"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

func main() {
	net, err := workloads.TinyNet()
	if err != nil {
		fail(err)
	}
	plan, err := frameworks.Optimized(layout.TitanBlackThresholds()).Plan(gpusim.TitanBlack(), net)
	if err != nil {
		fail(err)
	}
	prog, err := memruntime.CompileWithOptions(plan, memruntime.Options{})
	if err != nil {
		fail(err)
	}

	fmt.Printf("%s compiled with %s: %d ops over %d buffers\n\n",
		net.Name, prog.PlannerName, len(prog.Ops), len(prog.Buffers))
	for i, op := range prog.Ops {
		fmt.Printf("  %2d %-9s %-28s b%d -> b%d\n", i, op.Kind, op.Name, op.In, op.Out)
	}
	fmt.Printf("\nmemory plan: arena %d elems; peak %d B vs naive %d B (%.0f%% saved)\n",
		prog.Mem.ArenaElems, prog.Mem.PeakBytes(), prog.NaiveBytes(), 100*prog.Savings())
	for _, b := range prog.Buffers {
		kind := "      "
		if b.AliasOf != memruntime.NoBuffer {
			kind = fmt.Sprintf("=b%-4d", b.AliasOf)
		}
		live := prog.Mem.Live[b.ID]
		fmt.Printf("  b%-2d %-14v %-5v %s offset %6d  live [%d,%d]\n",
			b.ID, b.Shape, b.Layout, kind, prog.Mem.Offsets[b.ID], live.Def, live.LastUse)
	}

	in := tensor.Random(net.InputShape(), tensor.NCHW, 17)
	want, err := net.Forward(in)
	if err != nil {
		fail(err)
	}
	got := tensor.New(prog.OutputShape(), tensor.NCHW)
	if err := memruntime.NewExecutor(prog).RunInto(in, got); err != nil {
		fail(err)
	}
	diff, err := tensor.MaxAbsDiff(got, want)
	if err != nil {
		fail(err)
	}
	fmt.Printf("\nplanned output vs naive Network.Forward: max |Δ| = %v\n", diff)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
