//go:build amd64 && !purego

package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"memcnn/internal/tensor"
)

// poolSpecials fills s from fill's mix: "random" normal values, "special"
// ones half the time (NaNs with distinct payloads and signs, ±0, ±Inf, 1 and
// -1), or "ties" drawn from +0, -0 and two equal values, so that a window
// holds NaN in its first tap and in later ones, zeros of both signs and
// repeated maxima.
func poolSpecials(r *rand.Rand, s []float32, fill string) {
	for i := range s {
		v := float32(r.NormFloat64())
		switch {
		case fill == "ties":
			v = []float32{0, float32(math.Copysign(0, -1)), 1, 1}[r.Intn(4)]
		case fill == "special" && r.Intn(2) == 0:
			switch k := r.Intn(8); k {
			case 0, 1:
				v = math.Float32frombits(0x7fc00000 | uint32(k)<<31 | r.Uint32()&0x3fffff)
			default:
				v = []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), 1, -1}[k-2]
			}
		}
		s[i] = v
	}
}

// TestPoolAssemblyMatchesPureGo runs max pooling with the vector body on and
// off over batches on either side of one 8-lane chunk and of a lane tile,
// 2×2/2, overlapping 3×3/2 and 3×3/1 windows, in NCHW (whose lanes are
// unit-stride at stride 1) and CHWN, on random and adversarial inputs, and
// wants the same bits.  Then it calls the vector body directly on fenced
// slices: it must write its whole chunks and nothing past them.
func TestPoolAssemblyMatchesPureGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("the CPU or the OS lacks AVX2: the assembly kernel never runs here")
	}
	defer func() { useAVX2 = true }()
	r := rand.New(rand.NewSource(71))
	for _, n := range []int{1, 4, 7, 8, 9, 16, 128} {
		for _, ws := range [][2]int{{2, 2}, {3, 2}, {3, 1}} {
			cfg := PoolConfig{N: n, C: 2, H: 7, W: 8, Window: ws[0], Stride: ws[1], Op: MaxPool}
			for _, lay := range []tensor.Layout{tensor.NCHW, tensor.CHWN} {
				for _, fill := range []string{"random", "special", "ties"} {
					in := tensor.New(cfg.InputShape(), lay)
					poolSpecials(r, in.Data, fill)
					asm, pure := tensor.New(cfg.OutputShape(), lay), tensor.New(cfg.OutputShape(), lay)
					useAVX2 = true
					if err := PoolInto(in, asm, cfg); err != nil {
						t.Fatal(err)
					}
					useAVX2 = false
					if err := PoolInto(in, pure, cfg); err != nil {
						t.Fatal(err)
					}
					equalBits(t, fmt.Sprintf("%v %v %s", cfg, lay, fill), asm.Data, pure.Data)
				}
			}
		}
	}
	useAVX2 = true
	const sh, sw = 40, 13
	for _, m := range []int{7, 8, 15, 16, 63, laneTile} {
		for _, window := range []int{1, 2, 3} {
			win, _ := guarded(nil, (window-1)*(sh+sw)+m)
			poolSpecials(r, win, "special")
			dst, backing := guarded(nil, m)
			if got := maxChunks(win, dst, m, window, sh, sw); got != m&^7 {
				t.Fatalf("m=%d: vector body wrote %d lanes, want %d", m, got, m&^7)
			}
			want := make([]float32, m&^7)
			for i := range want {
				want[i] = win[i]
				for y := 0; y < window; y++ {
					for x := 0; x < window; x++ {
						if v := win[y*sh+x*sw+i]; v > want[i] {
							want[i] = v
						}
					}
				}
			}
			equalBits(t, fmt.Sprintf("m=%d window=%d", m, window), dst[:len(want)], want)
			for i, v := range dst[len(want):] {
				if v != 0 {
					t.Fatalf("m=%d: lane %d = %v past the whole chunks", m, len(want)+i, v)
				}
			}
			if !fenceIntact(backing, m) {
				t.Fatalf("m=%d window=%d: vector body wrote outside dst", m, window)
			}
		}
	}
}
