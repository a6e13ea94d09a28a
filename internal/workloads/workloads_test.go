package workloads

import (
	"math"
	"strings"
	"testing"

	"memcnn/internal/layers"
	"memcnn/internal/network"
	"memcnn/internal/tensor"
)

func TestTable1ConvsMatchPaper(t *testing.T) {
	convs := Table1Convs()
	if len(convs) != 12 {
		t.Fatalf("Table 1 has 12 convolutional layers, got %d", len(convs))
	}
	for _, c := range convs {
		if err := c.Cfg.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
	// Spot-check a few entries against the published table.
	cv1, err := FindConv("CV1")
	if err != nil {
		t.Fatal(err)
	}
	if cv1.Cfg.N != 128 || cv1.Cfg.C != 1 || cv1.Cfg.H != 28 || cv1.Cfg.K != 16 || cv1.Cfg.FH != 5 {
		t.Errorf("CV1 = %+v does not match Table 1", cv1.Cfg)
	}
	cv6, err := FindConv("CV6")
	if err != nil {
		t.Fatal(err)
	}
	if cv6.Cfg.N != 64 || cv6.Cfg.C != 96 || cv6.Cfg.H != 55 || cv6.Cfg.K != 256 || cv6.Cfg.StrideH != 2 {
		t.Errorf("CV6 = %+v does not match Table 1", cv6.Cfg)
	}
	cv12, err := FindConv("CV12")
	if err != nil {
		t.Fatal(err)
	}
	if cv12.Cfg.N != 32 || cv12.Cfg.C != 512 || cv12.Cfg.H != 14 {
		t.Errorf("CV12 = %+v does not match Table 1", cv12.Cfg)
	}
	if _, err := FindConv("CV99"); err == nil {
		t.Error("unknown layer name must be rejected")
	}
}

func TestTable1PoolsMatchPaper(t *testing.T) {
	pools := Table1Pools()
	if len(pools) != 10 {
		t.Fatalf("Table 1 has 10 pooling layers, got %d", len(pools))
	}
	overlapped := 0
	for _, p := range pools {
		if err := p.Cfg.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if p.Cfg.Overlapped() {
			overlapped++
		}
	}
	// PL1 and PL2 (LeNet) are non-overlapped, the remaining eight are
	// window-3 stride-2 overlapped pools.
	if overlapped != 8 {
		t.Errorf("expected 8 overlapped pooling layers, got %d", overlapped)
	}
	if pl5 := pools[4]; pl5.Name != "PL5" || pl5.Cfg.C != 96 || pl5.Cfg.H != 55 || pl5.Cfg.N != 128 {
		t.Errorf("%s = %+v does not match Table 1's PL5", pl5.Name, pl5.Cfg)
	}
}

func TestTable1SoftmaxAndSweep(t *testing.T) {
	cls := Table1Softmax()
	if len(cls) != 5 {
		t.Fatalf("Table 1 has 5 classifier layers, got %d", len(cls))
	}
	for _, c := range cls {
		if err := c.Cfg.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
	if cls[2].Cfg.Classes != 1000 || cls[2].Cfg.N != 128 {
		t.Errorf("CLASS3 = %+v should be 128 images x 1000 categories", cls[2].Cfg)
	}
	sweep := SoftmaxSweep()
	if len(sweep) != 12 {
		t.Fatalf("Fig. 13 sweeps 12 configurations, got %d", len(sweep))
	}
	for _, s := range sweep {
		if err := s.Cfg.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestFig1Workloads(t *testing.T) {
	convs := AlexNetFig1Convs()
	if len(convs) != 5 {
		t.Fatalf("AlexNet has 5 convolutional layers, got %d", len(convs))
	}
	for _, c := range convs {
		if err := c.Cfg.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
	if convs[0].Cfg.C != 3 || convs[1].Cfg.C != 96 {
		t.Error("AlexNet conv1/conv2 channel counts incorrect")
	}
	pools := AlexNetFig1Pools()
	if len(pools) != 3 {
		t.Fatalf("AlexNet has 3 pooling layers, got %d", len(pools))
	}
}

func TestNetworksBuild(t *testing.T) {
	nets, err := Networks()
	if err != nil {
		t.Fatal(err)
	}
	if len(nets) != 5 {
		t.Fatalf("expected 5 networks, got %d", len(nets))
	}
	wantBatch := map[string]int{"LeNet": 128, "Cifar10": 128, "AlexNet": 64, "ZFNet": 64, "VGG": 32}
	for _, name := range NetworkOrder {
		net, ok := nets[name]
		if !ok {
			t.Fatalf("missing network %s", name)
		}
		if net.Batch != wantBatch[name] {
			t.Errorf("%s batch = %d, want %d", name, net.Batch, wantBatch[name])
		}
		if len(net.Layers) == 0 {
			t.Errorf("%s has no layers", name)
		}
	}
	// Structural spot checks.
	if convCount(nets["VGG"]) != 13 {
		t.Errorf("VGG-16 should have 13 convolutions, got %d", convCount(nets["VGG"]))
	}
	if convCount(nets["AlexNet"]) != 5 {
		t.Errorf("AlexNet should have 5 convolutions, got %d", convCount(nets["AlexNet"]))
	}
	if poolCount(nets["LeNet"]) != 2 || poolCount(nets["AlexNet"]) != 3 {
		t.Error("pooling layer counts incorrect")
	}
	if nets["AlexNet"].OutputShape().C != 1000 || nets["LeNet"].OutputShape().C != 10 {
		t.Error("classifier sizes incorrect")
	}
}

func convCount(net *network.Network) int {
	count := 0
	for _, l := range net.Layers {
		if _, ok := l.(*layers.Conv); ok {
			count++
		}
	}
	return count
}

func poolCount(net *network.Network) int {
	count := 0
	for _, l := range net.Layers {
		if _, ok := l.(*layers.Pool); ok {
			count++
		}
	}
	return count
}

// TestByName: the one lookup behind every command's -network flag ignores
// case, knows TinyNet next to the five evaluation networks, and names the
// accepted values when it rejects one.
func TestByName(t *testing.T) {
	for _, tc := range []struct{ arg, want string }{
		{"LeNet", "LeNet"}, {"lenet", "LeNet"}, {"CIFAR10", "Cifar10"}, {"alexnet", "AlexNet"},
		{"tinynet", "TinyNet"}, {"TinyNet", "TinyNet"},
	} {
		net, err := ByName(tc.arg)
		if err != nil {
			t.Errorf("ByName(%q): %v", tc.arg, err)
			continue
		}
		if net.Name != tc.want {
			t.Errorf("ByName(%q) built %s, want %s", tc.arg, net.Name, tc.want)
		}
	}
	for _, arg := range []string{"", "LeNet5", "all"} {
		_, err := ByName(arg)
		if err == nil {
			t.Errorf("ByName(%q) succeeded", arg)
			continue
		}
		for _, name := range append([]string{"TinyNet"}, NetworkOrder...) {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("ByName(%q): error %q does not name %s", arg, err, name)
			}
		}
	}
}

func TestTinyNetForward(t *testing.T) {
	net, err := TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.Random(net.InputShape(), tensor.CHWN, 3)
	out, err := net.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Shape.C != 5 {
		t.Fatalf("TinyNet output shape %v", out.Shape)
	}
	for n := 0; n < net.Batch; n++ {
		var sum float64
		for c := 0; c < 5; c++ {
			sum += float64(out.At(n, c, 0, 0))
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Errorf("image %d probabilities sum to %v", n, sum)
		}
	}
}
