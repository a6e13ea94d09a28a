package main

import (
	_ "embed"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// The naive AlexNet forward takes about 35 s per batch of four on this
// machine, too long to run inside a benchmark run.  So the reference outputs
// of batch-alexnet4 are checked in: Network.Forward's output for each image
// of a fixed pool.  A workload seed chooses which pool images make up each
// batch and in what order; every layer treats the images of a batch
// independently, so an image's reference output is the same in any batch.

const (
	alexPoolImages = 8
	alexPoolSeed   = 0xa1e7
	alexBatch      = 4
	goldenPath     = "golden/alexnet4-pool.json"
)

//go:embed golden/alexnet4-pool.json
var goldenAlexNet []byte

// goldenFile is the checked-in reference: one output row per pool image,
// little-endian float32 in base64 so that the round trip is exact.
type goldenFile struct {
	Network  string   `json:"network"`
	Batch    int      `json:"batch"`
	PoolSeed uint64   `json:"pool_seed"`
	Classes  int      `json:"classes"`
	Outputs  []string `json:"outputs_f32le_base64"`
}

func encodeFloats(v []float32) string {
	raw := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(x))
	}
	return base64.StdEncoding.EncodeToString(raw)
}

func decodeFloats(s string) ([]float32, error) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, err
	}
	if len(raw)%4 != 0 {
		return nil, fmt.Errorf("%d bytes is not a whole number of float32s", len(raw))
	}
	v := make([]float32, len(raw)/4)
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return v, nil
}

// alexPoolImage generates pool image i: {1,3,227,227}, NCHW.
func alexPoolImage(i int) *tensor.Tensor {
	return tensor.Random(tensor.Shape{N: 1, C: 3, H: 227, W: 227}, tensor.NCHW, alexPoolSeed+uint64(i))
}

// stackImages lays single images side by side as one NCHW batch.
func stackImages(images []*tensor.Tensor) *tensor.Tensor {
	s := images[0].Shape
	batch := tensor.New(tensor.Shape{N: len(images), C: s.C, H: s.H, W: s.W}, tensor.NCHW)
	per := s.Elems()
	for i, img := range images {
		copy(batch.Data[i*per:(i+1)*per], img.Data)
	}
	return batch
}

// parseGolden decodes a golden file into one output row per pool image.
func parseGolden(data []byte) ([][]float32, error) {
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	if g.Network != "AlexNet" || g.Batch != alexBatch || g.PoolSeed != alexPoolSeed || len(g.Outputs) != alexPoolImages {
		return nil, fmt.Errorf("golden file is for %s batch %d pool seed %#x with %d images; regenerate it with -update-golden",
			g.Network, g.Batch, g.PoolSeed, len(g.Outputs))
	}
	rows := make([][]float32, len(g.Outputs))
	for i, s := range g.Outputs {
		row, err := decodeFloats(s)
		if err != nil {
			return nil, fmt.Errorf("golden file, image %d: %w", i, err)
		}
		if len(row) != g.Classes {
			return nil, fmt.Errorf("golden file, image %d: %d values for %d classes", i, len(row), g.Classes)
		}
		rows[i] = row
	}
	return rows, nil
}

// marshalGolden encodes output rows as a golden file.
func marshalGolden(rows [][]float32) ([]byte, error) {
	g := goldenFile{Network: "AlexNet", Batch: alexBatch, PoolSeed: alexPoolSeed, Classes: len(rows[0])}
	for _, row := range rows {
		g.Outputs = append(g.Outputs, encodeFloats(row))
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// updateGolden recomputes the pool's reference outputs with the naive
// Network.Forward and rewrites the golden file.  It takes a minute or two.
func updateGolden(dir string) error {
	net, err := workloads.AlexNetWithBatch(alexBatch)
	if err != nil {
		return err
	}
	var rows [][]float32
	for first := 0; first < alexPoolImages; first += alexBatch {
		images := make([]*tensor.Tensor, alexBatch)
		for i := range images {
			images[i] = alexPoolImage(first + i)
		}
		fmt.Printf("naive forward of pool images %d-%d...\n", first, first+alexBatch-1)
		out, err := net.Forward(stackImages(images))
		if err != nil {
			return err
		}
		out = tensor.Convert(out, tensor.NCHW)
		per := out.Shape.Elems() / alexBatch
		for i := 0; i < alexBatch; i++ {
			rows = append(rows, append([]float32(nil), out.Data[i*per:(i+1)*per]...))
		}
	}
	data, err := marshalGolden(rows)
	if err != nil {
		return err
	}
	path := dir + "/" + goldenPath
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d images, %d classes)\n", path, len(rows), len(rows[0]))
	return nil
}
