package runtime

import (
	"sync"
	"testing"

	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// TestPipelineArenasPerStage holds the pipeline to its memory bound: however
// many callers walk a two-stage pipeline at once, at most one base-program
// arena per stage is ever live, so the shared pool builds at most two.  A
// batch that released one stage's lock before taking the next one's would
// hold its arena under no lock and let a third batch take a third arena.
func TestPipelineArenasPerStage(t *testing.T) {
	net, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(net, "fixed-NCHW", Uniform(net, tensor.NCHW), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Shard(prog, 2, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pe := NewPipelineExecutor(sp)
	defer pe.Close()

	const callers, batches = 8, 50
	in := tensor.Random(prog.InputShape(), tensor.NCHW, 7)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := tensor.New(prog.OutputShape(), tensor.NCHW)
			for b := 0; b < batches; b++ {
				if err := pe.RunInto(in, dst); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Every batch has returned its arena, so the idle list holds every arena
	// the pool built.
	if built := len(pe.pool.idle); built > len(sp.Stages) {
		t.Errorf("the pool built %d arenas for %d stages", built, len(sp.Stages))
	}
}
