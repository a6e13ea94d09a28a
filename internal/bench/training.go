package bench

import (
	"memcnn/internal/gpusim"
	"memcnn/internal/workloads"
)

// TrainingRow is one convolutional layer priced as a complete training step
// (forward + backward-data + backward-filter) in both layouts.  The paper's
// footnote 1 states that the backward pass uses the same data structures and
// operations as the forward pass, so the layout preference must carry over;
// its framework integration is profiled on full forward-backward iterations.
type TrainingRow struct {
	Layer           string
	ForwardCHWNUS   float64
	ForwardNCHWUS   float64
	TrainingCHWNUS  float64
	TrainingNCHWUS  float64
	ForwardPrefCHWN bool
	TrainPrefCHWN   bool
	SamePreference  bool
}

// TrainingStep regenerates the forward-vs-training layout consistency check
// over the Table 1 convolutional layers.
func TrainingStep(d *gpusim.Device) ([]TrainingRow, Table) {
	var rows []TrainingRow
	agree := 0
	for _, c := range workloads.Table1Convs() {
		fwdCHWN := gpusim.EstimateTime(d, gpusim.ConvDirectCHWNCost(d, c.Cfg)).TotalUS
		fwdNCHW := gpusim.EstimateSequence(d, gpusim.ConvGemmNCHWCost(d, c.Cfg))
		trainCHWN := gpusim.EstimateSequence(d, gpusim.ConvTrainingCost(d, c.Cfg, true))
		trainNCHW := gpusim.EstimateSequence(d, gpusim.ConvTrainingCost(d, c.Cfg, false))
		row := TrainingRow{
			Layer:           c.Name,
			ForwardCHWNUS:   fwdCHWN,
			ForwardNCHWUS:   fwdNCHW,
			TrainingCHWNUS:  trainCHWN,
			TrainingNCHWUS:  trainNCHW,
			ForwardPrefCHWN: fwdCHWN <= fwdNCHW,
			TrainPrefCHWN:   trainCHWN <= trainNCHW,
		}
		row.SamePreference = row.ForwardPrefCHWN == row.TrainPrefCHWN
		if row.SamePreference {
			agree++
		}
		rows = append(rows, row)
	}
	t := Table{
		Title:   "Training step (forward + backward): layout preference vs the forward-only preference, Table 1 convolutions",
		Headers: []string{"layer", "fwd CHWN us", "fwd NCHW us", "train CHWN us", "train NCHW us", "same preference"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Layer, f1(r.ForwardCHWNUS), f1(r.ForwardNCHWUS), f1(r.TrainingCHWNUS), f1(r.TrainingNCHWUS),
			boolCell(r.SamePreference),
		})
	}
	t.Notes = append(t.Notes, f0(float64(agree))+" of 12 layers keep the forward-pass layout preference in the full training step")
	return rows, t
}

func boolCell(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
