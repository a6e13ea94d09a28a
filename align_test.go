package memcnn_test

import (
	"fmt"
	"testing"

	"memcnn/internal/frameworks"
	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/network"
	memruntime "memcnn/internal/runtime"
	"memcnn/internal/runtime/train"
	_ "memcnn/internal/runtime/verify" // the Verify option's verifier
	"memcnn/internal/workloads"
)

// TestGemmOperandsAligned holds the memory plans of the four benchmark
// programs — LeNet@128, AlexNet@4, Cifar10@8 with its serving buckets 1, 2
// and 4, and the LeNet@16 training step — to what the GEMM convolution reads
// and writes in place: every buffer a GEMM convolution op reads or writes
// (input, output, scratch and, on a gradient op, the forward activation)
// starts at an arena offset that is a multiple of 16 floats, 64 bytes, so a
// gemmNR-float row the micro-kernel loads from the input or stores into the
// output is one cache line of the arena.  A misaligned output and scratch ran
// lenet-conv1@n128 CHWN 1.7× slower.  The planner does not align, so this
// pins what it happens to give these programs.  The one exception is
// AlexNet's program input, conv1's input (offset ≡ 11 mod 16): conv1 has
// stride 4, so its panels are always unrolled, never read in place.
func TestGemmOperandsAligned(t *testing.T) {
	type program struct {
		name string
		prog *memruntime.Program
	}
	var progs []program
	compile := func(net *network.Network, err error) *memruntime.Program {
		if err != nil {
			t.Fatal(err)
		}
		plan, err := frameworks.Optimized(thresholds()).Plan(device(), net)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := memruntime.CompileWithOptions(plan, memruntime.Options{ConvAlgorithms: true, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	progs = append(progs, program{"LeNet@128", compile(workloads.LeNet())},
		program{"AlexNet@4", compile(workloads.AlexNetWithBatch(4))})
	cifar := compile(workloads.Cifar10WithBatch(8))
	progs = append(progs, program{"Cifar10@8", cifar})
	for _, b := range []int{1, 2, 4} {
		bucket, err := cifar.WithBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{fmt.Sprintf("Cifar10@8 bucket %d", b), bucket})
	}
	net, err := workloads.LeNet()
	if err == nil {
		net, err = net.WithBatch(16)
	}
	if err != nil {
		t.Fatal(err)
	}
	step, err := train.CompileTraining(net, train.Options{Verify: true, SGD: train.SGD{LR: 1e-4}})
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, program{"LeNet@16 training step", step.Program})

	checked := 0
	for _, pr := range progs {
		p := pr.prog
		for _, op := range p.Ops {
			if _, conv := op.Layer.(*layers.Conv); !conv || op.Alg != kernels.ConvAlgGemm {
				continue
			}
			for _, operand := range []struct {
				what string
				id   memruntime.BufferID
			}{{"input", op.In}, {"output", op.Out}, {"scratch", op.Scratch}, {"forward activation", op.Aux}} {
				if operand.id == memruntime.NoBuffer {
					continue
				}
				checked++
				off := p.Mem.Offsets[operand.id]
				if off%16 == 0 {
					continue
				}
				if pr.name == "AlexNet@4" && op.Name == "conv1" && operand.id == p.Input {
					t.Logf("%s %s %s %s: offset %d ≡ %d mod 16, the known exception", pr.name, op.Kind, op.Name, operand.what, off, off%16)
					continue
				}
				t.Errorf("%s %s %s: %s at arena offset %d ≡ %d mod 16 floats, want a multiple of 16",
					pr.name, op.Kind, op.Name, operand.what, off, off%16)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no GEMM convolution operand was checked")
	}
}
