package som

import (
	"fmt"
	"math"
	"math/rand"
)

func sqrt(x float64) float64 { return math.Sqrt(x) }

// Codebook is the complete description of a SOM: the grid plus one
// Dim-dimensional weight vector ("code vector") per neuron, stored
// row-major in a single flat slice.
type Codebook struct {
	Grid Grid
	Dim  int
	// Weights holds Grid.Cells()×Dim values; neuron k's vector is
	// Weights[k*Dim : (k+1)*Dim].
	Weights []float64
}

// NewCodebook allocates a zeroed codebook.
func NewCodebook(g Grid, dim int) (*Codebook, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("som: dimension must be positive, got %d", dim)
	}
	return &Codebook{Grid: g, Dim: dim, Weights: make([]float64, g.Cells()*dim)}, nil
}

// Vector returns neuron k's weight vector (shared storage).
func (cb *Codebook) Vector(k int) []float64 {
	return cb.Weights[k*cb.Dim : (k+1)*cb.Dim]
}

// Clone deep-copies the codebook.
func (cb *Codebook) Clone() *Codebook {
	w := make([]float64, len(cb.Weights))
	copy(w, cb.Weights)
	return &Codebook{Grid: cb.Grid, Dim: cb.Dim, Weights: w}
}

// InitRandom fills the codebook with uniform random values in [0,1),
// deterministically from seed (the paper's "assigned random values"
// initialization).
func (cb *Codebook) InitRandom(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range cb.Weights {
		cb.Weights[i] = rng.Float64()
	}
}

// InitLinear initializes the codebook on the plane spanned by the first two
// principal components of the data, the paper's alternative "linearly
// generated from the first two PCA eigen-vectors" initialization. data is a
// flat n×Dim matrix.
func (cb *Codebook) InitLinear(data []float64, n int) error {
	if n*cb.Dim != len(data) {
		return fmt.Errorf("som: data shape %d doesn't match n=%d dim=%d", len(data), n, cb.Dim)
	}
	if n < 2 {
		return fmt.Errorf("som: linear init needs at least 2 vectors, got %d", n)
	}
	mean, pc1, pc2, s1, s2 := pca2(data, n, cb.Dim)
	for k := 0; k < cb.Grid.Cells(); k++ {
		x, y := cb.Grid.Coords(k)
		// Map grid coordinates to [-1, 1] along each component.
		var cx, cy float64
		if cb.Grid.W > 1 {
			cx = 2*float64(x)/float64(cb.Grid.W-1) - 1
		}
		if cb.Grid.H > 1 {
			cy = 2*float64(y)/float64(cb.Grid.H-1) - 1
		}
		w := cb.Vector(k)
		for d := 0; d < cb.Dim; d++ {
			w[d] = mean[d] + cx*s1*pc1[d] + cy*s2*pc2[d]
		}
	}
	return nil
}

// BMU returns the Best Matching Unit for vector x: the neuron whose weight
// vector is nearest in Euclidean distance (the paper's Eq. 1–2), together
// with the squared distance. Ties break toward the lowest index, which
// keeps serial and parallel training bit-identical.
//
// Neurons are scanned four at a time, each with its own running sum in
// index order, so the four dependent add chains overlap. The early exit is
// hoisted to four-element block boundaries and taken only once all four
// partial sums have reached the best distance of the neurons before the
// group; a partial sum only grows, so no neuron that could win is dropped.
// Survivors are then finished and resolved in ascending index with strict
// <, exactly as a one-neuron-at-a-time scan would: the winner and its
// distance (the full sequential sum) are bit-identical to the plain
// per-element scan.
func (cb *Codebook) BMU(x []float64) (int, float64) {
	dim := cb.Dim
	ws := cb.Weights
	x = x[:dim]
	best := 0
	bestD := distSq(ws[:dim], x)
	k, off := 1, dim
	for ; off+4*dim <= len(ws); k, off = k+4, off+4*dim {
		w0 := ws[off : off+dim : off+dim]
		w1 := ws[off+dim : off+2*dim : off+2*dim]
		w2 := ws[off+2*dim : off+3*dim : off+3*dim]
		w3 := ws[off+3*dim : off+4*dim : off+4*dim]
		var s0, s1, s2, s3 float64
		i := 0
		for ; i+4 <= dim && (s0 < bestD || s1 < bestD || s2 < bestD || s3 < bestD); i += 4 {
			x4 := x[i : i+4 : i+4]
			s0 = addSq4(s0, w0[i:i+4:i+4], x4)
			s1 = addSq4(s1, w1[i:i+4:i+4], x4)
			s2 = addSq4(s2, w2[i:i+4:i+4], x4)
			s3 = addSq4(s3, w3[i:i+4:i+4], x4)
		}
		if i+4 <= dim {
			continue // all four reached the bound
		}
		if s0 < bestD {
			if s0 = distSqFrom(w0, x, i, s0); s0 < bestD {
				best, bestD = k, s0
			}
		}
		if s1 < bestD {
			if s1 = distSqFrom(w1, x, i, s1); s1 < bestD {
				best, bestD = k+1, s1
			}
		}
		if s2 < bestD {
			if s2 = distSqFrom(w2, x, i, s2); s2 < bestD {
				best, bestD = k+2, s2
			}
		}
		if s3 < bestD {
			if s3 = distSqFrom(w3, x, i, s3); s3 < bestD {
				best, bestD = k+3, s3
			}
		}
	}
	for ; off < len(ws); k, off = k+1, off+dim {
		w := ws[off : off+dim : off+dim]
		s, i := blockedDistSq(w, x, bestD)
		if s < bestD {
			if s = distSqFrom(w, x, i, s); s < bestD {
				best, bestD = k, s
			}
		}
	}
	return best, bestD
}

// blockedDistSq sums (w[i]−x[i])² in index order over whole four-element
// blocks while the partial sum stays below bound, and returns it with the
// index it stopped at.
func blockedDistSq(w, x []float64, bound float64) (float64, int) {
	s := 0.0
	i := 0
	for ; i+4 <= len(w) && s < bound; i += 4 {
		s = addSq4(s, w[i:i+4:i+4], x[i:i+4:i+4])
	}
	return s, i
}

// addSq4 adds (w[j]−x[j])² for j = 0..3 to s, one element at a time in
// index order.
func addSq4(s float64, w, x []float64) float64 {
	w, x = w[:4], x[:4]
	d0 := w[0] - x[0]
	s += d0 * d0
	d1 := w[1] - x[1]
	s += d1 * d1
	d2 := w[2] - x[2]
	s += d2 * d2
	d3 := w[3] - x[3]
	s += d3 * d3
	return s
}

// distSqFrom continues the partial sum s of (w[j]−x[j])² from index i to
// the end.
func distSqFrom(w, x []float64, i int, s float64) float64 {
	x = x[:len(w)]
	for ; i < len(w); i++ {
		d := w[i] - x[i]
		s += d * d
	}
	return s
}

// SecondBMU returns the indexes of the two nearest neurons (for the
// topographic error metric); b2 is −1 on a one-neuron map.
func (cb *Codebook) SecondBMU(x []float64) (int, int) {
	b1, b2, _ := cb.nearestTwo(x)
	return b1, b2
}

// nearestTwo finds the two nearest neurons in one pass, abandoning a
// neuron's distance at a block boundary once it reaches the second-best
// distance (it can then be neither first nor second). Ties break toward the
// lower index and a NaN distance never places, as in a full scan. bmuD is
// the squared distance BMU reports for x: the nearest distance, except that
// BMU never moves off a first neuron whose distance is NaN.
func (cb *Codebook) nearestTwo(x []float64) (b1, b2 int, bmuD float64) {
	dim := cb.Dim
	ws := cb.Weights
	x = x[:dim]
	b1, b2 = -1, -1
	d1, d2 := math.Inf(1), math.Inf(1)
	d0 := distSq(ws[:dim], x)
	if d0 < d1 {
		b1, d1 = 0, d0
	}
	for k, off := 1, dim; off < len(ws); k, off = k+1, off+dim {
		w := ws[off : off+dim : off+dim]
		s, i := blockedDistSq(w, x, d2)
		if !(s < d2) {
			continue
		}
		s = distSqFrom(w, x, i, s)
		switch {
		case s < d1:
			b2, d2 = b1, d1
			b1, d1 = k, s
		case s < d2:
			b2, d2 = k, s
		}
	}
	if d0 != d0 {
		return b1, b2, d0
	}
	return b1, b2, d1
}

func distSq(a, b []float64) float64 { return distSqFrom(a, b, 0, 0) }
