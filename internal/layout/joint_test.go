package layout

import (
	"testing"

	"memcnn/internal/gpusim"
	"memcnn/internal/kernels"
	"memcnn/internal/tensor"
)

// zfConv3 is ZFNet's conv3 at full batch.
var zfConv3 = kernels.ConvConfig{N: 64, C: 256, H: 12, W: 12, K: 384, FH: 3, FW: 3, PadH: 1, PadW: 1}

// TestConvAlgCandidatesTransformCharges checks the model-only sweep rows: every
// production algorithm is priced in its natural layout, and candidates whose
// layout differs from the incoming one carry a positive layout-switch charge.
func TestConvAlgCandidatesTransformCharges(t *testing.T) {
	d := gpusim.TitanBlack()
	cands := ConvAlgCandidates(d, zfConv3, tensor.CHWN)
	if len(cands) != 3 {
		t.Fatalf("got %d candidates, want 3", len(cands))
	}
	byAlg := map[kernels.ConvAlgorithm]ConvCandidate{}
	for _, c := range cands {
		byAlg[c.Alg] = c
	}
	if c := byAlg[kernels.ConvAlgDirect]; c.Layout != tensor.CHWN || c.TransformUS != 0 {
		t.Errorf("direct candidate: layout %v transform %v, want CHWN with no charge from CHWN", c.Layout, c.TransformUS)
	}
	for _, alg := range []kernels.ConvAlgorithm{kernels.ConvAlgGemm, kernels.ConvAlgFFT} {
		c := byAlg[alg]
		if c.Layout != tensor.NCHW {
			t.Errorf("%v candidate priced in %v, want NCHW", alg, c.Layout)
		}
		if c.TransformUS <= 0 {
			t.Errorf("%v candidate from CHWN carries no layout-switch charge", alg)
		}
	}
}
