package som

import (
	"math"
	"sync"
)

// UMatrix computes the unified distance matrix of a trained map: cell k
// holds the average Euclidean distance between neuron k's weight vector and
// its 4-connected grid neighbors'. High values trace cluster boundaries —
// the visualization of the paper's Figs. 7 and 8. The result is in grid
// layout, indexed [y][x].
func UMatrix(cb *Codebook) [][]float64 {
	g := cb.Grid
	out := make([][]float64, g.H)
	for y := range out {
		out[y] = make([]float64, g.W)
	}
	for k := 0; k < g.Cells(); k++ {
		x, y := g.Coords(k)
		sum, cnt := 0.0, 0
		for _, nb := range g.Neighbors(k) {
			sum += math.Sqrt(distSq(cb.Vector(k), cb.Vector(nb)))
			cnt++
		}
		if cnt > 0 {
			out[y][x] = sum / float64(cnt)
		}
	}
	return out
}

// QuantizationError is the mean distance between the input vectors and
// their BMUs — the standard SOM fit metric.
func QuantizationError(cb *Codebook, data []float64, n int) float64 {
	qe, _ := Quality(cb, data, n, 1)
	return qe
}

// TopographicError is the fraction of input vectors whose first and second
// BMUs are not adjacent on the grid — a measure of how well the map
// preserves topology.
func TopographicError(cb *Codebook, data []float64, n int) float64 {
	_, te := Quality(cb, data, n, 1)
	return te
}

// Quality computes the quantization error and the topographic error in one
// nearest-two pass per vector, spread over `workers` goroutines. Each vector
// writes its BMU distance and its adjacency flag to its own slot, and the
// slots are summed in input order, so both values are bit-identical at any
// worker count.
func Quality(cb *Codebook, data []float64, n, workers int) (qe, te float64) {
	if n <= 0 {
		return 0, 0
	}
	dim := cb.Dim
	dist := make([]float64, n)
	far := make([]bool, n)
	scan := func(lo, hi int) {
		for v := lo; v < hi; v++ {
			b1, b2, d := cb.nearestTwo(data[v*dim : (v+1)*dim])
			dist[v] = math.Sqrt(d)
			far[v] = b2 < 0 || !cb.Grid.Adjacent(b1, b2)
		}
	}
	if workers <= 1 {
		scan(0, n)
	} else {
		var wg sync.WaitGroup
		chunk := (n + workers - 1) / workers
		for lo := 0; lo < n; lo += chunk {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				scan(lo, hi)
			}(lo, min(lo+chunk, n))
		}
		wg.Wait()
	}
	sum, bad := 0.0, 0
	for v := range dist {
		sum += dist[v]
		if far[v] {
			bad++
		}
	}
	return sum / float64(n), float64(bad) / float64(n)
}

// ComponentPlane extracts dimension d of every neuron in grid layout —
// together with the U-matrix this reproduces the paper's Fig. 7 views.
func ComponentPlane(cb *Codebook, d int) [][]float64 {
	g := cb.Grid
	out := make([][]float64, g.H)
	for y := range out {
		out[y] = make([]float64, g.W)
		for x := range out[y] {
			out[y][x] = cb.Vector(g.Index(x, y))[d]
		}
	}
	return out
}
