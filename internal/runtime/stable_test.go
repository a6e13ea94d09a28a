package runtime_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"memcnn/internal/kernels"
	"memcnn/internal/network"
	"memcnn/internal/runtime"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden of each test that runs from what the code produces now")

const (
	programsGolden = "testdata/programs.golden"
	shardGolden    = "testdata/shard.golden"
)

// unselectedGoldenSHA256 is the hash of the golden file's lines that no
// selection pass touched: the 54 `select=false` and `pinned-` configurations
// (the other 48, `select=true` and the `rebatch-` clones of a selected
// program, move when the selector does).  It was taken from the file as it
// stood when PlanMemory began keeping the best of three placement orders
// (which moved offsets and peaks, no op or buffer), and -update does not
// rewrite it: a change to the selector that moves one of these lines has
// changed the lowering too, and has to say so by editing this constant.
const unselectedGoldenSHA256 = "665ae26d9c5727be061c67dbccaca0feedf805f4f06663410238724c2f5a2b0a"

// programDump lists everything about a compiled program that execution and
// the memory plan depend on: the planner name, every op's kind, name,
// operands, algorithm, scratch and aux buffer, every buffer's shape, layout,
// alias and scratch flag, the arena offsets and the peak.
func programDump(p *runtime.Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "planner %s\n", p.PlannerName)
	for i, op := range p.Ops {
		fmt.Fprintf(&b, "op %d %v %q in=%d out=%d alg=%v scratch=%d aux=%d\n",
			i, op.Kind, op.Name, op.In, op.Out, op.Alg, op.Scratch, op.Aux)
	}
	for _, buf := range p.Buffers {
		fmt.Fprintf(&b, "buffer %d %v %v alias=%d scratch=%t\n", buf.ID, buf.Shape, buf.Layout, buf.AliasOf, buf.Scratch)
	}
	fmt.Fprintf(&b, "offsets %v\npeak %d\n", p.Mem.Offsets, p.Mem.PeakBytes())
	return b.String()
}

// TestCompiledProgramsAreStable pins the compiler's output over its option
// cross-product: TinyNet and the five workload networks, from the optimiser's
// plan and from both fixed layouts, with algorithm selection off and on,
// in place and not; every convolution pinned to each production algorithm;
// and the selected program rebatched to 1 and to half its batch.  Nothing
// executes, so every network runs at full batch.  The golden file was
// recorded before the compile entrypoints were folded into one decision list
// and one lowering; a refactor of the compiler must leave it untouched
// (go test -run CompiledProgramsAreStable -update rewrites it when a change
// is meant to alter programs).
func TestCompiledProgramsAreStable(t *testing.T) {
	tiny, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	all := []*network.Network{tiny}
	for _, name := range workloads.NetworkOrder {
		all = append(all, nets[name])
	}

	var lines []string
	dumps := make(map[string]string)
	record := func(config string, p *runtime.Program, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", config, err)
		}
		// The counts stay readable in the golden file; the dump goes into the
		// hash.
		dumps[config] = programDump(p)
		lines = append(lines, fmt.Sprintf("%s ops=%d buffers=%d peak=%d sha256=%x",
			config, len(p.Ops), len(p.Buffers), p.Mem.PeakBytes(), sha256.Sum256([]byte(dumps[config]))))
	}
	for _, net := range all {
		for _, sel := range []bool{false, true} {
			for _, noInPlace := range []bool{false, true} {
				opts := runtime.Options{ConvAlgorithms: sel, NoInPlace: noInPlace}
				tag := fmt.Sprintf("select=%t noinplace=%t", sel, noInPlace)
				prog := mustCompileOpts(t, planners()[2], net, opts)
				record(fmt.Sprintf("%s plan %s", net.Name, tag), prog, nil)
				for _, lay := range []tensor.Layout{tensor.NCHW, tensor.CHWN} {
					prog, err := compileFixedLayout(net, lay, opts)
					record(fmt.Sprintf("%s fixed-%v %s", net.Name, lay, tag), prog, err)
				}
			}
		}
		for _, alg := range []kernels.ConvAlgorithm{kernels.ConvAlgDirect, kernels.ConvAlgGemm, kernels.ConvAlgFFT} {
			prog, err := compilePinned(net, alg)
			record(fmt.Sprintf("%s pinned-%v", net.Name, alg), prog, err)
		}
		base := mustCompileOpts(t, planners()[2], net, runtime.Options{ConvAlgorithms: true})
		for _, batch := range []int{1, net.Batch / 2} {
			prog, err := base.WithBatch(batch)
			record(fmt.Sprintf("%s rebatch-%d", net.Name, batch), prog, err)
		}
	}
	var unselected strings.Builder
	for _, line := range lines {
		if !strings.Contains(line, " select=true ") && !strings.Contains(line, " rebatch-") {
			unselected.WriteString(line + "\n")
		}
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(unselected.String()))); sum != unselectedGoldenSHA256 {
		t.Errorf("programs compiled without the selection pass changed: their lines hash to %s, want %s", sum, unselectedGoldenSHA256)
	}
	checkGolden(t, programsGolden, lines, func(line string) string {
		return dumps[line[:strings.Index(line, " ops=")]]
	})
}

// checkGolden compares lines with the golden file, or rewrites the file with
// -update.  A changed line is reported with what detail says about it.
func checkGolden(t *testing.T, path string, lines []string, detail func(line string) string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%d configurations recorded, %s holds %d", len(lines), path, len(want))
	}
	for i, line := range lines {
		if line != want[i] {
			t.Errorf("%s changed:\n got %s\nwant %s\n%s", path, line, want[i], detail(line))
		}
	}
}

// TestShardCutsAreStable pins where Shard cuts the five networks' planned
// inference programs, selection off and on, at two to four stages.  The
// cuts were recorded while Shard still balanced on the modeled GPU's FLOPs;
// the host work count that replaced it must cut every program in the same
// place (go test -run ShardCutsAreStable ./internal/runtime/ -update rewrites
// testdata/shard.golden when a change is meant to move a cut).
func TestShardCutsAreStable(t *testing.T) {
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, name := range workloads.NetworkOrder {
		for _, sel := range []bool{false, true} {
			p := mustCompileOpts(t, planners()[2], nets[name], runtime.Options{ConvAlgorithms: sel})
			for stages := 2; stages <= 4; stages++ {
				sp, err := runtime.Shard(p, stages, runtime.ShardOptions{})
				if err != nil {
					t.Fatal(err)
				}
				var cuts []string
				for _, st := range sp.Stages {
					cuts = append(cuts, fmt.Sprintf("%d-%d", st.FirstOp, st.LastOp))
				}
				lines = append(lines, fmt.Sprintf("%s plan select=%t shard=%d cuts=%s",
					name, sel, stages, strings.Join(cuts, ",")))
			}
		}
	}
	checkGolden(t, shardGolden, lines, func(string) string { return "" })
}
