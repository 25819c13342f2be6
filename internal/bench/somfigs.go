package bench

import (
	"fmt"
	"path/filepath"

	"repro/internal/bio"
	"repro/internal/som"
)

// SOMFigResult reports a real (non-simulated) SOM training used for the
// correctness figures.
type SOMFigResult struct {
	// Codebook is the trained map.
	Codebook *som.Codebook
	// QuantErr and TopoErr are the map quality metrics.
	QuantErr, TopoErr float64
	// Files lists the images written (empty when outDir is "").
	Files []string
}

// Fig7 reproduces the paper's Fig. 7 correctness check: a 50×50 SOM
// trained with 100 random RGB feature vectors, rendered as the codebook
// color image and its U-matrix. A correct SOM arranges the random colors
// into smooth patches.
func Fig7(outDir string, gridW, gridH, nVectors, epochs int) (*SOMFigResult, error) {
	data := bio.RandomRGB(7, nVectors)
	grid, err := som.NewGrid(gridW, gridH)
	if err != nil {
		return nil, err
	}
	cb, err := som.NewCodebook(grid, 3)
	if err != nil {
		return nil, err
	}
	cb.InitRandom(7)
	if err := som.TrainBatch(cb, data, nVectors, som.TrainParams{Epochs: epochs}); err != nil {
		return nil, err
	}
	res := &SOMFigResult{Codebook: cb}
	res.QuantErr, res.TopoErr = som.Quality(cb, data, nVectors, 1)
	if outDir != "" {
		colors := filepath.Join(outDir, "fig7_rgb_codebook.ppm")
		if err := som.WriteCodebookPPM(colors, cb); err != nil {
			return nil, err
		}
		um := filepath.Join(outDir, "fig7_umatrix.pgm")
		if err := som.WritePGM(um, som.UMatrix(cb)); err != nil {
			return nil, err
		}
		res.Files = []string{colors, um}
	}
	return res, nil
}

// Fig8 reproduces the paper's Fig. 8: the U-matrix of a 50×50 SOM trained
// with 10,000 random 500-dimensional vectors — a well-defined U-matrix over
// structureless input demonstrates the map organizes even in high
// dimension.
func Fig8(outDir string, gridW, gridH, nVectors, dim, epochs int) (*SOMFigResult, error) {
	data := bio.RandomVectors(8, nVectors, dim)
	grid, err := som.NewGrid(gridW, gridH)
	if err != nil {
		return nil, err
	}
	cb, err := som.NewCodebook(grid, dim)
	if err != nil {
		return nil, err
	}
	if err := cb.InitLinear(data, nVectors); err != nil {
		return nil, err
	}
	if err := som.TrainBatch(cb, data, nVectors, som.TrainParams{Epochs: epochs}); err != nil {
		return nil, err
	}
	res := &SOMFigResult{Codebook: cb}
	res.QuantErr, res.TopoErr = som.Quality(cb, data, nVectors, 1)
	if outDir != "" {
		um := filepath.Join(outDir, fmt.Sprintf("fig8_umatrix_%dd.pgm", dim))
		if err := som.WritePGM(um, som.UMatrix(cb)); err != nil {
			return nil, err
		}
		res.Files = []string{um}
	}
	return res, nil
}
