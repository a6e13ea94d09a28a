package workloads

import (
	"fmt"
	"strings"

	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/network"
	"memcnn/internal/tensor"
)

// netBuilder incrementally assembles a network, tracking the current
// activation shape so layer configurations stay consistent.
type netBuilder struct {
	name  string
	batch int
	shape tensor.Shape
	ls    []layers.Layer
	seed  uint64
	err   error
}

func newNetBuilder(name string, batch int, input tensor.Shape) *netBuilder {
	return &netBuilder{name: name, batch: batch, shape: input, seed: 1}
}

func (b *netBuilder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// conv appends a convolution (with optional padding and stride) and returns
// the builder for chaining.
func (b *netBuilder) conv(name string, k, f, stride, pad int) *netBuilder {
	if b.err != nil {
		return b
	}
	cfg := kernels.ConvConfig{
		N: b.batch, C: b.shape.C, H: b.shape.H, W: b.shape.W,
		K: k, FH: f, FW: f, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad,
	}
	l, err := layers.NewConv(name, cfg, b.seed)
	if err != nil {
		b.fail(fmt.Errorf("workloads: %s/%s: %w", b.name, name, err))
		return b
	}
	b.seed++
	b.ls = append(b.ls, l)
	b.shape = l.OutputShape()
	return b
}

// convRelu appends a convolution followed by its rectifier.
func (b *netBuilder) convRelu(name string, k, f, stride, pad int) *netBuilder {
	b.conv(name, k, f, stride, pad)
	return b.relu(name + "_relu")
}

func (b *netBuilder) pool(name string, window, stride int) *netBuilder {
	if b.err != nil {
		return b
	}
	cfg := kernels.PoolConfig{
		N: b.batch, C: b.shape.C, H: b.shape.H, W: b.shape.W,
		Window: window, Stride: stride,
	}
	l, err := layers.NewPool(name, cfg)
	if err != nil {
		b.fail(fmt.Errorf("workloads: %s/%s: %w", b.name, name, err))
		return b
	}
	b.ls = append(b.ls, l)
	b.shape = l.OutputShape()
	return b
}

func (b *netBuilder) relu(name string) *netBuilder {
	if b.err != nil {
		return b
	}
	l, err := layers.NewReLU(name, b.shape)
	if err != nil {
		b.fail(err)
		return b
	}
	b.ls = append(b.ls, l)
	return b
}

func (b *netBuilder) lrn(name string) *netBuilder {
	if b.err != nil {
		return b
	}
	l, err := layers.NewLRN(name, b.shape, 5, 0, 0)
	if err != nil {
		b.fail(err)
		return b
	}
	b.ls = append(b.ls, l)
	return b
}

func (b *netBuilder) fc(name string, out int) *netBuilder {
	if b.err != nil {
		return b
	}
	in := b.shape.C * b.shape.H * b.shape.W
	l, err := layers.NewFullyConnected(name, b.batch, in, out, b.seed)
	if err != nil {
		b.fail(fmt.Errorf("workloads: %s/%s: %w", b.name, name, err))
		return b
	}
	b.seed++
	b.ls = append(b.ls, l)
	b.shape = l.OutputShape()
	return b
}

func (b *netBuilder) softmax(name string, classes int) *netBuilder {
	if b.err != nil {
		return b
	}
	if b.shape.C != classes || b.shape.H != 1 || b.shape.W != 1 {
		b.fail(fmt.Errorf("workloads: %s/%s: softmax over %d classes fed with shape %v", b.name, name, classes, b.shape))
		return b
	}
	l, err := layers.NewSoftmax(name, kernels.SoftmaxConfig{N: b.batch, Classes: classes})
	if err != nil {
		b.fail(err)
		return b
	}
	b.ls = append(b.ls, l)
	return b
}

func (b *netBuilder) build() (*network.Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	return network.New(b.name, b.batch, b.ls...)
}

// LeNet returns the MNIST network of Table 1 (batch 128): two padded 5×5
// convolutions with 2×2 non-overlapped pooling and a small classifier.
func LeNet() (*network.Network, error) {
	b := newNetBuilder("LeNet", 128, tensor.Shape{N: 128, C: 1, H: 28, W: 28})
	b.conv("conv1", 16, 5, 1, 2).
		pool("pool1", 2, 2).
		conv("conv2", 16, 5, 1, 2).
		pool("pool2", 2, 2).
		fc("fc1", 100).
		relu("relu1").
		fc("fc2", 10).
		softmax("prob", 10)
	return b.build()
}

// Cifar10 returns the cuda-convnet CIFAR-10 example network of Table 1
// (batch 128, 24×24 crops, overlapped 3×3 pooling).
func Cifar10() (*network.Network, error) {
	return Cifar10WithBatch(128)
}

// Cifar10WithBatch returns the CIFAR-10 network at an arbitrary batch size,
// layer shapes unchanged; like AlexNetWithBatch it is the affordable
// golden-equivalence configuration for CI.
func Cifar10WithBatch(batch int) (*network.Network, error) {
	b := newNetBuilder("Cifar10", batch, tensor.Shape{N: batch, C: 3, H: 24, W: 24})
	b.conv("conv1", 64, 5, 1, 2).
		pool("pool1", 3, 2).
		conv("conv2", 64, 5, 1, 2).
		pool("pool2", 3, 2).
		fc("fc1", 64).
		relu("relu1").
		fc("fc2", 10).
		softmax("prob", 10)
	return b.build()
}

// AlexNetBatch is the batch size used for the whole-network AlexNet runs.
// The paper's Fig. 15 reports that the optimiser selects CHWN for the first
// convolution and NCHW for the rest; with the published (Ct, Nt) = (32, 128)
// thresholds that assignment corresponds to a batch of 64 (at batch 128 the
// batch rule would select CHWN everywhere), so the whole-network experiments
// use 64 images per batch.
const AlexNetBatch = 64

// AlexNet returns the AlexNet model (5 convolutions, 3 overlapped pools,
// 2 LRN layers, 3 fully-connected layers and the softmax classifier).
func AlexNet() (*network.Network, error) {
	return AlexNetWithBatch(AlexNetBatch)
}

// AlexNetWithBatch returns the AlexNet model at an arbitrary batch size.  The
// layer shapes (channels, filters, feature maps) are unchanged, which is what
// the CI golden-equivalence suite relies on: a small batch keeps the
// functional cross-check affordable while still exercising the
// ImageNet-scale per-layer configurations.
func AlexNetWithBatch(batch int) (*network.Network, error) {
	b := newNetBuilder("AlexNet", batch, tensor.Shape{N: batch, C: 3, H: 227, W: 227})
	b.convRelu("conv1", 96, 11, 4, 0).
		lrn("norm1").
		pool("pool1", 3, 2).
		convRelu("conv2", 256, 5, 1, 2).
		lrn("norm2").
		pool("pool2", 3, 2).
		convRelu("conv3", 384, 3, 1, 1).
		convRelu("conv4", 384, 3, 1, 1).
		convRelu("conv5", 256, 3, 1, 1).
		pool("pool5", 3, 2).
		fc("fc6", 4096).
		relu("relu6").
		fc("fc7", 4096).
		relu("relu7").
		fc("fc8", 1000).
		softmax("prob", 1000)
	return b.build()
}

// ZFNet returns the ZFNet model with the layer shapes of Table 1 (batch 64).
func ZFNet() (*network.Network, error) {
	return ZFNetWithBatch(64)
}

// ZFNetWithBatch returns the ZFNet model at an arbitrary batch size, layer
// shapes unchanged; like AlexNetWithBatch it is the affordable
// golden-equivalence configuration for CI.
func ZFNetWithBatch(batch int) (*network.Network, error) {
	b := newNetBuilder("ZFNet", batch, tensor.Shape{N: batch, C: 3, H: 224, W: 224})
	b.convRelu("conv1", 96, 3, 2, 0).
		pool("pool1", 3, 2).
		convRelu("conv2", 256, 5, 2, 0).
		pool("pool2", 3, 2).
		convRelu("conv3", 384, 3, 1, 1).
		convRelu("conv4", 384, 3, 1, 1).
		convRelu("conv5", 256, 3, 1, 1).
		pool("pool3", 3, 2).
		fc("fc6", 4096).
		relu("relu6").
		fc("fc7", 4096).
		relu("relu7").
		fc("fc8", 1000).
		softmax("prob", 1000)
	return b.build()
}

// VGG returns the VGG-16 model (batch 32): thirteen 3×3 convolutions in five
// blocks separated by 2×2 pooling, then the three fully-connected layers.
func VGG() (*network.Network, error) {
	return VGGWithBatch(32)
}

// VGGWithBatch returns the VGG-16 model at an arbitrary batch size, layer
// shapes unchanged; like AlexNetWithBatch it is the affordable
// ImageNet-scale configuration for functional CI runs.
func VGGWithBatch(batch int) (*network.Network, error) {
	b := newNetBuilder("VGG", batch, tensor.Shape{N: batch, C: 3, H: 224, W: 224})
	b.convRelu("conv1_1", 64, 3, 1, 1).
		convRelu("conv1_2", 64, 3, 1, 1).
		pool("pool1", 2, 2).
		convRelu("conv2_1", 128, 3, 1, 1).
		convRelu("conv2_2", 128, 3, 1, 1).
		pool("pool2", 2, 2).
		convRelu("conv3_1", 256, 3, 1, 1).
		convRelu("conv3_2", 256, 3, 1, 1).
		convRelu("conv3_3", 256, 3, 1, 1).
		pool("pool3", 2, 2).
		convRelu("conv4_1", 512, 3, 1, 1).
		convRelu("conv4_2", 512, 3, 1, 1).
		convRelu("conv4_3", 512, 3, 1, 1).
		pool("pool4", 2, 2).
		convRelu("conv5_1", 512, 3, 1, 1).
		convRelu("conv5_2", 512, 3, 1, 1).
		convRelu("conv5_3", 512, 3, 1, 1).
		pool("pool5", 2, 2).
		fc("fc6", 4096).
		relu("relu6").
		fc("fc7", 4096).
		relu("relu7").
		fc("fc8", 1000).
		softmax("prob", 1000)
	return b.build()
}

// TinyNet returns a small LeNet-style network (batch 4, 12×12 inputs) that is
// cheap enough for functional end-to-end tests and the quickstart example.
func TinyNet() (*network.Network, error) {
	b := newNetBuilder("TinyNet", 4, tensor.Shape{N: 4, C: 1, H: 12, W: 12})
	b.conv("conv1", 4, 3, 1, 1).
		pool("pool1", 2, 2).
		conv("conv2", 8, 3, 1, 1).
		pool("pool2", 2, 2).
		fc("fc1", 16).
		relu("relu1").
		fc("fc2", 5).
		softmax("prob", 5)
	return b.build()
}

// NetworkOrder is the presentation order of the whole-network results.
var NetworkOrder = []string{"LeNet", "Cifar10", "AlexNet", "ZFNet", "VGG"}

// builders names every network this package can build: the five of
// NetworkOrder, then TinyNet.
var builders = []struct {
	name string
	fn   func() (*network.Network, error)
}{
	{"LeNet", LeNet}, {"Cifar10", Cifar10}, {"AlexNet", AlexNet}, {"ZFNet", ZFNet}, {"VGG", VGG},
	{"TinyNet", TinyNet},
}

// ByName builds the network with the given name, compared without regard to
// case: one of NetworkOrder, or TinyNet.  It is the lookup behind every
// command's -network flag; the error names the accepted values.
func ByName(name string) (*network.Network, error) {
	names := make([]string, len(builders))
	for i, b := range builders {
		if strings.EqualFold(b.name, name) {
			net, err := b.fn()
			if err != nil {
				return nil, fmt.Errorf("workloads: building %s: %w", b.name, err)
			}
			return net, nil
		}
		names[i] = b.name
	}
	return nil, fmt.Errorf("workloads: unknown network %q (want one of %s)", name, strings.Join(names, ", "))
}

// Networks returns the five complete networks of the paper's whole-network
// evaluation (Fig. 14), keyed by their NetworkOrder names.
func Networks() (map[string]*network.Network, error) {
	out := make(map[string]*network.Network, len(NetworkOrder))
	for _, name := range NetworkOrder {
		net, err := ByName(name)
		if err != nil {
			return nil, err
		}
		out[name] = net
	}
	return out, nil
}
