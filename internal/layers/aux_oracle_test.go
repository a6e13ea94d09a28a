package layers

import (
	"fmt"
	"math"
	"testing"

	"memcnn/internal/kernels"
	"memcnn/internal/tensor"
)

// The fully-connected, LRN and softmax forwards and the LRN backward as they
// ran before the stride walks, every element resolved through At and Set and
// every LRN power through math.Pow: kept as the oracles the new loops are
// checked against bit for bit.

func oldFullyConnectedForward(f *FullyConnected, in, dst *tensor.Tensor) {
	flat := make([]float32, 0, f.Batch*f.InDim)
	for n := 0; n < in.Shape.N; n++ {
		for c := 0; c < in.Shape.C; c++ {
			for h := 0; h < in.Shape.H; h++ {
				for w := 0; w < in.Shape.W; w++ {
					flat = append(flat, in.At(n, c, h, w))
				}
			}
		}
	}
	w := f.Weights()
	for n := 0; n < f.Batch; n++ {
		row := flat[n*f.InDim : (n+1)*f.InDim]
		for o := 0; o < f.OutDim; o++ {
			var acc float64
			wRow := w[o*f.InDim : (o+1)*f.InDim]
			for k, v := range row {
				acc += float64(v) * float64(wRow[k])
			}
			dst.Set(n, o, 0, 0, float32(acc))
		}
	}
}

func oldLRNForward(l *LRN, in, dst *tensor.Tensor) {
	half := l.LocalSize / 2
	for n := 0; n < l.Shape.N; n++ {
		for c := 0; c < l.Shape.C; c++ {
			lo, hi := c-half, c+half
			if lo < 0 {
				lo = 0
			}
			if hi >= l.Shape.C {
				hi = l.Shape.C - 1
			}
			for h := 0; h < l.Shape.H; h++ {
				for w := 0; w < l.Shape.W; w++ {
					var sq float64
					for cc := lo; cc <= hi; cc++ {
						v := float64(in.At(n, cc, h, w))
						sq += v * v
					}
					scale := math.Pow(1+l.Alpha/float64(l.LocalSize)*sq, -l.Beta)
					dst.Set(n, c, h, w, float32(float64(in.At(n, c, h, w))*scale))
				}
			}
		}
	}
}

func oldLRNBackward(l *LRN, in, dOut, dIn *tensor.Tensor) {
	half := l.LocalSize / 2
	C := l.Shape.C
	pow, prod := make([]float32, C), make([]float32, C)
	coef := 2 * l.Alpha * l.Beta / float64(l.LocalSize)
	for n := 0; n < l.Shape.N; n++ {
		for h := 0; h < l.Shape.H; h++ {
			for w := 0; w < l.Shape.W; w++ {
				for c := 0; c < C; c++ {
					lo, hi := c-half, c+half
					if lo < 0 {
						lo = 0
					}
					if hi >= C {
						hi = C - 1
					}
					var sq float64
					for cc := lo; cc <= hi; cc++ {
						v := float64(in.At(n, cc, h, w))
						sq += v * v
					}
					s := 1 + l.Alpha/float64(l.LocalSize)*sq
					sInv := math.Pow(s, -l.Beta-1)
					pow[c] = float32(sInv * s) // s^{-β}
					prod[c] = float32(float64(dOut.At(n, c, h, w)) * float64(in.At(n, c, h, w)) * sInv)
				}
				for c := 0; c < C; c++ {
					lo, hi := c-half, c+half
					if lo < 0 {
						lo = 0
					}
					if hi >= C {
						hi = C - 1
					}
					var acc float64
					for cc := lo; cc <= hi; cc++ {
						acc += float64(prod[cc])
					}
					g := float64(dOut.At(n, c, h, w))*float64(pow[c]) - coef*float64(in.At(n, c, h, w))*acc
					dIn.Set(n, c, h, w, float32(g))
				}
			}
		}
	}
}

func oldSoftmaxForward(t *testing.T, s *Softmax, in, dst *tensor.Tensor) {
	t.Helper()
	logits := make([]float32, s.Cfg.Elems())
	for n := 0; n < s.Cfg.N; n++ {
		for c := 0; c < s.Cfg.Classes; c++ {
			logits[n*s.Cfg.Classes+c] = in.At(n, c, 0, 0)
		}
	}
	probs := make([]float32, s.Cfg.Elems())
	if err := kernels.SoftmaxInto(probs, logits, s.Cfg); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < s.Cfg.N; n++ {
		for c := 0; c < s.Cfg.Classes; c++ {
			dst.Set(n, c, 0, 0, probs[n*s.Cfg.Classes+c])
		}
	}
}

// forwardMatchesOld runs l from every input layout into every output layout
// it supports, with a NaN-filled output and scratch, and wants the bits of
// old, the loop the layer ran before.
func forwardMatchesOld(t *testing.T, l Layer, inShape tensor.Shape, old func(in, dst *tensor.Tensor)) {
	t.Helper()
	forwardMatchesOldScaled(t, l, inShape, 1, old)
}

// forwardMatchesOldScaled is forwardMatchesOld on inputs drawn from
// [-scale, scale).
func forwardMatchesOldScaled(t *testing.T, l Layer, inShape tensor.Shape, scale float32, old func(in, dst *tensor.Tensor)) {
	t.Helper()
	nan := float32(math.NaN())
	for _, inLay := range tensor.Layouts {
		in := tensor.Random(inShape, inLay, 17)
		for i := range in.Data {
			in.Data[i] *= scale
		}
		for _, outLay := range tensor.Layouts {
			scratch := make([]float32, l.WorkspaceElems(outLay))
			got, want := tensor.New(l.OutputShape(), outLay), tensor.New(l.OutputShape(), outLay)
			for _, s := range [][]float32{scratch, got.Data} {
				for i := range s {
					s[i] = nan
				}
			}
			if err := l.ForwardInto(in, got, scratch); err != nil {
				t.Fatalf("%s %v->%v: %v", l.Name(), inLay, outLay, err)
			}
			old(in, want)
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%s %v %v->%v: element %d = %v, want %v", l.Name(), inShape, inLay, outLay, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestAuxForwardsMatchOldLoops pins the fully-connected, LRN and softmax
// forwards to the loops they replaced at batch 1, 3, 4, 5, 8 and 9 — below,
// at and across the four images of a fully-connected block's lanes — and
// the fully-connected one at 7 outputs, under its eight rows, and at 19,
// across two whole blocks.
func TestAuxForwardsMatchOldLoops(t *testing.T) {
	for _, batch := range []int{1, 3, 4, 5, 8, 9} {
		for _, outDim := range []int{7, 19} {
			// A feature map that is not yet flat: the layer flattens (C,H,W).
			fc, err := NewFullyConnected(fmt.Sprintf("fc@%d", batch), batch, 3*2*5, outDim, 3)
			if err != nil {
				t.Fatal(err)
			}
			forwardMatchesOld(t, fc, tensor.Shape{N: batch, C: 3, H: 2, W: 5}, func(in, dst *tensor.Tensor) {
				oldFullyConnectedForward(fc, in, dst)
			})
		}

		// Wider than a lane tile, and a window that is cut at both ends.
		lrn, err := NewLRN(fmt.Sprintf("lrn@%d", batch), tensor.Shape{N: batch, C: 7, H: 3, W: 70}, 5, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		forwardMatchesOld(t, lrn, lrn.Shape, func(in, dst *tensor.Tensor) { oldLRNForward(lrn, in, dst) })

		softmax, err := NewSoftmax(fmt.Sprintf("prob@%d", batch), kernels.SoftmaxConfig{N: batch, Classes: 11})
		if err != nil {
			t.Fatal(err)
		}
		forwardMatchesOld(t, softmax, softmax.InputShape(), func(in, dst *tensor.Tensor) {
			oldSoftmaxForward(t, softmax, in, dst)
		})
	}
}
