// Package workloads defines the benchmark inputs of the paper: the
// single-layer configurations of Table 1 (CV1–CV12, PL1–PL10, CLASS1–CLASS5),
// the softmax configuration sweep of Fig. 13, and the five complete networks
// (LeNet, Cifar10, AlexNet, ZFNet and VGG) used in the whole-network
// evaluation.
package workloads

import (
	"fmt"

	"memcnn/internal/kernels"
)

// NamedConv is one convolutional layer of Table 1.
type NamedConv struct {
	Name    string
	Network string
	Cfg     kernels.ConvConfig
}

// NamedPool is one pooling layer of Table 1.
type NamedPool struct {
	Name    string
	Network string
	Cfg     kernels.PoolConfig
}

// NamedSoftmax is one classifier layer of Table 1.
type NamedSoftmax struct {
	Name    string
	Network string
	Cfg     kernels.SoftmaxConfig
}

// Table1Convs returns the twelve convolutional layer configurations of
// Table 1 in order.
func Table1Convs() []NamedConv {
	return []NamedConv{
		{"CV1", "LeNet", kernels.ConvConfig{N: 128, C: 1, H: 28, W: 28, K: 16, FH: 5, FW: 5}},
		{"CV2", "LeNet", kernels.ConvConfig{N: 128, C: 16, H: 14, W: 14, K: 16, FH: 5, FW: 5}},
		{"CV3", "Cifar10", kernels.ConvConfig{N: 128, C: 3, H: 24, W: 24, K: 64, FH: 5, FW: 5}},
		{"CV4", "Cifar10", kernels.ConvConfig{N: 128, C: 64, H: 12, W: 12, K: 64, FH: 5, FW: 5}},
		{"CV5", "ZFNet", kernels.ConvConfig{N: 64, C: 3, H: 224, W: 224, K: 96, FH: 3, FW: 3, StrideH: 2, StrideW: 2}},
		{"CV6", "ZFNet", kernels.ConvConfig{N: 64, C: 96, H: 55, W: 55, K: 256, FH: 5, FW: 5, StrideH: 2, StrideW: 2}},
		{"CV7", "ZFNet", kernels.ConvConfig{N: 64, C: 256, H: 13, W: 13, K: 384, FH: 3, FW: 3}},
		{"CV8", "ZFNet", kernels.ConvConfig{N: 64, C: 384, H: 13, W: 13, K: 384, FH: 3, FW: 3}},
		{"CV9", "VGG", kernels.ConvConfig{N: 32, C: 3, H: 224, W: 224, K: 64, FH: 3, FW: 3}},
		{"CV10", "VGG", kernels.ConvConfig{N: 32, C: 128, H: 56, W: 56, K: 256, FH: 3, FW: 3}},
		{"CV11", "VGG", kernels.ConvConfig{N: 32, C: 256, H: 28, W: 28, K: 512, FH: 3, FW: 3}},
		{"CV12", "VGG", kernels.ConvConfig{N: 32, C: 512, H: 14, W: 14, K: 512, FH: 3, FW: 3}},
	}
}

// Table1Pools returns the ten pooling layer configurations of Table 1 in
// order.  All of them are max-pooling layers; PL1–PL2 are the non-overlapped
// LeNet pools, the rest are overlapped (window 3, stride 2).
func Table1Pools() []NamedPool {
	return []NamedPool{
		{"PL1", "LeNet", kernels.PoolConfig{N: 128, C: 16, H: 28, W: 28, Window: 2, Stride: 2, Op: kernels.MaxPool}},
		{"PL2", "LeNet", kernels.PoolConfig{N: 128, C: 16, H: 14, W: 14, Window: 2, Stride: 2, Op: kernels.MaxPool}},
		{"PL3", "Cifar10", kernels.PoolConfig{N: 128, C: 64, H: 24, W: 24, Window: 3, Stride: 2, Op: kernels.MaxPool}},
		{"PL4", "Cifar10", kernels.PoolConfig{N: 128, C: 64, H: 12, W: 12, Window: 3, Stride: 2, Op: kernels.MaxPool}},
		{"PL5", "AlexNet", kernels.PoolConfig{N: 128, C: 96, H: 55, W: 55, Window: 3, Stride: 2, Op: kernels.MaxPool}},
		{"PL6", "AlexNet", kernels.PoolConfig{N: 128, C: 192, H: 27, W: 27, Window: 3, Stride: 2, Op: kernels.MaxPool}},
		{"PL7", "AlexNet", kernels.PoolConfig{N: 128, C: 256, H: 13, W: 13, Window: 3, Stride: 2, Op: kernels.MaxPool}},
		{"PL8", "ZFNet", kernels.PoolConfig{N: 64, C: 96, H: 110, W: 110, Window: 3, Stride: 2, Op: kernels.MaxPool}},
		{"PL9", "ZFNet", kernels.PoolConfig{N: 64, C: 256, H: 26, W: 26, Window: 3, Stride: 2, Op: kernels.MaxPool}},
		{"PL10", "ZFNet", kernels.PoolConfig{N: 64, C: 256, H: 13, W: 13, Window: 3, Stride: 2, Op: kernels.MaxPool}},
	}
}

// Table1Softmax returns the five classifier configurations of Table 1.
func Table1Softmax() []NamedSoftmax {
	return []NamedSoftmax{
		{"CLASS1", "LeNet", kernels.SoftmaxConfig{N: 128, Classes: 10}},
		{"CLASS2", "Cifar10", kernels.SoftmaxConfig{N: 128, Classes: 10}},
		{"CLASS3", "AlexNet", kernels.SoftmaxConfig{N: 128, Classes: 1000}},
		{"CLASS4", "ZFNet", kernels.SoftmaxConfig{N: 64, Classes: 1000}},
		{"CLASS5", "VGG", kernels.SoftmaxConfig{N: 32, Classes: 1000}},
	}
}

// SoftmaxSweep returns the twelve batch/category configurations of Fig. 13.
func SoftmaxSweep() []NamedSoftmax {
	shapes := []kernels.SoftmaxConfig{
		{N: 32, Classes: 10}, {N: 64, Classes: 10}, {N: 128, Classes: 10},
		{N: 32, Classes: 100}, {N: 64, Classes: 100}, {N: 128, Classes: 100},
		{N: 32, Classes: 1000}, {N: 64, Classes: 1000}, {N: 128, Classes: 1000},
		{N: 128, Classes: 5000}, {N: 128, Classes: 10000}, {N: 256, Classes: 10000},
	}
	out := make([]NamedSoftmax, 0, len(shapes))
	for _, s := range shapes {
		out = append(out, NamedSoftmax{Name: fmt.Sprintf("%d/%d", s.N, s.Classes), Network: "sweep", Cfg: s})
	}
	return out
}

// FindConv returns the Table 1 convolution with the given name.
func FindConv(name string) (NamedConv, error) {
	for _, c := range Table1Convs() {
		if c.Name == name {
			return c, nil
		}
	}
	return NamedConv{}, fmt.Errorf("workloads: unknown convolution layer %q", name)
}

// AlexNetFig1Convs returns the five AlexNet convolution shapes used by the
// motivating Fig. 1 comparison (batch 64, as in the whole-network runs).
func AlexNetFig1Convs() []NamedConv {
	return []NamedConv{
		{"CV1", "AlexNet", kernels.ConvConfig{N: 64, C: 3, H: 227, W: 227, K: 96, FH: 11, FW: 11, StrideH: 4, StrideW: 4}},
		{"CV2", "AlexNet", kernels.ConvConfig{N: 64, C: 96, H: 27, W: 27, K: 256, FH: 5, FW: 5, PadH: 2, PadW: 2}},
		{"CV3", "AlexNet", kernels.ConvConfig{N: 64, C: 256, H: 13, W: 13, K: 384, FH: 3, FW: 3, PadH: 1, PadW: 1}},
		{"CV4", "AlexNet", kernels.ConvConfig{N: 64, C: 384, H: 13, W: 13, K: 384, FH: 3, FW: 3, PadH: 1, PadW: 1}},
		{"CV5", "AlexNet", kernels.ConvConfig{N: 64, C: 384, H: 13, W: 13, K: 256, FH: 3, FW: 3, PadH: 1, PadW: 1}},
	}
}

// AlexNetFig1Pools returns the three AlexNet pooling shapes of Fig. 1
// (batch 128, the Table 1 configurations PL5–PL7).
func AlexNetFig1Pools() []NamedPool {
	all := Table1Pools()
	return []NamedPool{
		{"PL1", "AlexNet", all[4].Cfg},
		{"PL2", "AlexNet", all[5].Cfg},
		{"PL3", "AlexNet", all[6].Cfg},
	}
}
