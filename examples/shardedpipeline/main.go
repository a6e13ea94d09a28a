// Example shardedpipeline walks the device/sharding layer of
// internal/runtime: it compiles a small network, cuts the program into
// pipeline stages balanced by modeled FLOPs, binds each stage to a simulated
// GPU, streams a few batches through the pipelined executor and checks the
// stitched result against the unsharded executor bit for bit, printing the
// per-stage op counts, arena and transfer bytes and modeled vs measured
// latency.
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

	const devices = 2
	sp, err := memruntime.Shard(prog, devices, memruntime.ShardOptions{
		Devices: memruntime.SimDevices(devices, gpusim.TitanBlack()),
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s sharded into %d stages (flops-balanced)\n", net.Name, len(sp.Stages))
	for _, st := range sp.Stages {
		fmt.Printf("  stage %d on %s: ops [%d,%d], arena %d B, transfer in %d B\n",
			st.Index, st.Device.Name(), st.FirstOp, st.LastOp,
			st.Prog.Mem.PeakBytes(), st.TransferInBytes)
	}
	fmt.Printf("summed arena %d B vs single-device %d B; %d B transferred per batch\n\n",
		sp.SummedPeakBytes(), prog.Mem.PeakBytes(), sp.TransferBytes())

	pipe := memruntime.NewPipelineExecutor(sp)
	defer pipe.Close()

	exec := memruntime.NewExecutor(prog)
	for batch := 0; batch < 4; batch++ {
		in := tensor.Random(net.InputShape(), tensor.NCHW, uint64(batch+1))
		want, err := exec.Run(in)
		if err != nil {
			fail(err)
		}
		got, err := pipe.Run(in)
		if err != nil {
			fail(err)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				fail(fmt.Errorf("batch %d: sharded output differs from unsharded at element %d", batch, i))
			}
		}
	}
	fmt.Printf("4 batches pipelined; every output bit-equals the unsharded executor\n\n")
	for _, st := range pipe.StageStats() {
		fmt.Printf("  stage %d: %d batches, modeled %.1f us/batch, measured %.1f us/batch\n",
			st.Stage, st.Batches, st.ModeledUS, st.MeasuredUS)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
