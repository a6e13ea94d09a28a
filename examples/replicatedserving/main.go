// Example replicatedserving walks the data-parallel layer of the runtime: it
// compiles a small network, replicates the program across a heterogeneous
// simulated fleet (a Titan Black plus a pipeline-sharded pair of Titan Xs),
// shows the throughput-weighted batch split, checks the scattered execution
// against the single-device executor bit for bit, and then serves duplicated
// single-image traffic through the batching server with the checksum-keyed
// result cache in front, printing the hit/miss counters the cache earns.
package main

import (
	"context"
	"fmt"
	"os"
	"sync"

	"memcnn/internal/frameworks"
	"memcnn/internal/gpusim"
	"memcnn/internal/layout"
	memruntime "memcnn/internal/runtime"
	"memcnn/internal/runtime/replica"
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

	// Replica 0 is a lone Titan Black; replica 1 pipelines its sub-batches
	// across two Titan Xs — data parallelism composed with model parallelism.
	group, err := replica.NewGroup(prog, 2, replica.Config{
		Devices: [][]memruntime.Device{
			{memruntime.NewSimDevice("r0", gpusim.TitanBlack())},
			{memruntime.NewSimDevice("r1.0", gpusim.TitanX()), memruntime.NewSimDevice("r1.1", gpusim.TitanX())},
		},
	})
	if err != nil {
		fail(err)
	}
	defer group.Close()

	fmt.Printf("%s replicated across %d device groups (batch %d)\n", net.Name, group.Replicas(), net.Batch)
	for _, st := range group.ReplicaStats() {
		fmt.Printf("  replica %d on %s: %d images/batch (weight %.3g), modeled %.0f us incl. %.0f us contended scatter\n",
			st.Replica, st.Devices, st.Share, st.Weight, st.ModeledUS, st.ScatterUS)
	}

	exec := memruntime.NewExecutor(prog)
	for batch := 0; batch < 4; batch++ {
		in := tensor.Random(net.InputShape(), tensor.NCHW, uint64(batch+1))
		want, err := exec.Run(in)
		if err != nil {
			fail(err)
		}
		got, err := group.Run(in)
		if err != nil {
			fail(err)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				fail(fmt.Errorf("batch %d: replicated output differs from single-device at element %d", batch, i))
			}
		}
	}
	fmt.Printf("4 batches scattered; every output bit-equals the single-device executor\n\n")

	// Serve duplicated traffic through the cached batching server: 8 distinct
	// images requested 96 times cost at most 8 executions — concurrent
	// identical requests share one flight, repeats hit the cache.
	srv, err := memruntime.NewServerWith(prog, group, memruntime.ServerConfig{
		Workers: 2, CacheEntries: 64,
	})
	if err != nil {
		fail(err)
	}
	defer srv.Close()
	in := net.InputShape()
	imgShape := tensor.Shape{N: 1, C: in.C, H: in.H, W: in.W}
	images := make([]*tensor.Tensor, 8)
	for i := range images {
		images[i] = tensor.Random(imgShape, tensor.NCHW, uint64(100+i))
	}
	const requests = 96
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := srv.Infer(context.Background(), images[i%len(images)]); err != nil {
				fail(err)
			}
		}(i)
	}
	wg.Wait()
	st := srv.Stats()
	fmt.Printf("served %d requests over %d distinct images: %d batch executions\n",
		requests, len(images), st.Batches)
	if cs := st.Cache; cs != nil {
		fmt.Printf("cache: %d hits, %d misses, %d evictions (%d of %d entries)\n",
			cs.Hits, cs.Misses, cs.Evictions, cs.Size, cs.Capacity)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
