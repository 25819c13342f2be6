package som

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// batchAccumulateRef is the pre-optimization accumulation kernel — a full
// scan of every grid cell per vector — retained as the bit-exactness
// reference for the box-bounded rewrite.
func batchAccumulateRef(cb *Codebook, data []float64, n int, sigma float64, kern Kernel, num, den []float64) {
	cutoff2 := kernelCutoff2(kern, sigma)
	for v := 0; v < n; v++ {
		x := data[v*cb.Dim : (v+1)*cb.Dim]
		bmu, _ := cb.BMU(x)
		for k := 0; k < cb.Grid.Cells(); k++ {
			d2 := cb.Grid.Dist2(bmu, k)
			if d2 > cutoff2 {
				continue
			}
			h := kern.Eval(d2, sigma)
			if h == 0 {
				continue
			}
			nk := num[k*cb.Dim : (k+1)*cb.Dim]
			for d := range nk {
				nk[d] += h * x[d]
			}
			den[k] += h
		}
	}
}

// bmuRef is the plain per-element early-exit BMU scan the blocked rewrite
// replaced.
func bmuRef(cb *Codebook, x []float64) (int, float64) {
	best := 0
	bestD := distSq(cb.Vector(0), x)
	for k := 1; k < cb.Grid.Cells(); k++ {
		if d := distSqBounded(cb.Vector(k), x, bestD); d < bestD {
			best, bestD = k, d
		}
	}
	return best, bestD
}

// distSqBounded is distSq with early termination once the partial sum
// exceeds bound — the standard BMU-search optimization the paper alludes to
// ("stopping the distance comparisons earlier").
func distSqBounded(a, b []float64, bound float64) float64 {
	s := 0.0
	for i, x := range a {
		d := x - b[i]
		s += d * d
		if s >= bound {
			return s
		}
	}
	return s
}

// secondBMURef is the full-scan nearest-two search the one-pass quality
// metric replaced.
func secondBMURef(cb *Codebook, x []float64) (int, int) {
	b1, b2 := -1, -1
	d1, d2 := math.Inf(1), math.Inf(1)
	for k := 0; k < cb.Grid.Cells(); k++ {
		d := distSq(cb.Vector(k), x)
		switch {
		case d < d1:
			b2, d2 = b1, d1
			b1, d1 = k, d
		case d < d2:
			b2, d2 = k, d
		}
	}
	return b1, b2
}

// qualityRef computes QE from BMU and TE from secondBMURef in two separate
// passes, as the metrics did before Quality.
func qualityRef(cb *Codebook, data []float64, n int) (qe, te float64) {
	if n == 0 {
		return 0, 0
	}
	sum, bad := 0.0, 0
	for v := 0; v < n; v++ {
		x := data[v*cb.Dim : (v+1)*cb.Dim]
		_, d2 := bmuRef(cb, x)
		sum += math.Sqrt(d2)
		if b1, b2 := secondBMURef(cb, x); b2 < 0 || !cb.Grid.Adjacent(b1, b2) {
			bad++
		}
	}
	return sum / float64(n), float64(bad) / float64(n)
}

// sameBits reports whether a and b are the same float64 bit pattern (any two
// NaNs count as equal).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// checkAccum compares accumulators bit for bit.
func checkAccum(t *testing.T, label string, num, den, refNum, refDen []float64) {
	t.Helper()
	for i := range num {
		if !sameBits(num[i], refNum[i]) {
			t.Fatalf("%s: num[%d] = %v, reference %v", label, i, num[i], refNum[i])
		}
	}
	for i := range den {
		if !sameBits(den[i], refDen[i]) {
			t.Fatalf("%s: den[%d] = %v, reference %v", label, i, den[i], refDen[i])
		}
	}
}

func kernelFixture(t testing.TB, topo Topology, w, h, dim, n int, seed int64) (*Codebook, []float64) {
	t.Helper()
	g, err := NewGridTopo(w, h, topo)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := NewCodebook(g, dim)
	if err != nil {
		t.Fatal(err)
	}
	cb.InitRandom(seed)
	rng := rand.New(rand.NewSource(seed + 1))
	data := make([]float64, n*dim)
	for i := range data {
		data[i] = rng.Float64()
	}
	return cb, data
}

func TestBMUMatchesReference(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 4, 5, 7, 8, 16, 19} {
		cb, data := kernelFixture(t, Rect, 9, 7, dim, 64, int64(100+dim))
		// Duplicate a weight vector to exercise the low-index tie break.
		copy(cb.Vector(40), cb.Vector(7))
		for v := 0; v < 64; v++ {
			x := data[v*dim : (v+1)*dim]
			wantK, wantD := bmuRef(cb, x)
			gotK, gotD := cb.BMU(x)
			if gotK != wantK || gotD != wantD {
				t.Fatalf("dim %d vec %d: BMU = (%d, %v), reference (%d, %v)",
					dim, v, gotK, gotD, wantK, wantD)
			}
		}
	}
}

// TestBMUFourNeuronScanMatchesReference drives the four-neuron scan across
// every dimension remainder, cell counts that leave 0–3 neurons after the
// groups of four, and duplicated weight vectors inside one group (neurons
// 5–8 form a group after neuron 0) and across groups, with inputs placed
// exactly on the duplicates so the tie break decides.
func TestBMUFourNeuronScanMatchesReference(t *testing.T) {
	dims := []int{64}
	for d := 1; d <= 19; d++ {
		dims = append(dims, d)
	}
	grids := [][2]int{{1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}, {3, 3}, {5, 5}, {7, 2}, {9, 7}, {40, 4}}
	for _, dim := range dims {
		for _, wh := range grids {
			cb, data := kernelFixture(t, Rect, wh[0], wh[1], dim, 48, int64(7*dim+wh[0]))
			cells := cb.Grid.Cells()
			var ties []int
			if cells > 8 {
				copy(cb.Vector(6), cb.Vector(5)) // inside one group
				copy(cb.Vector(cells-1), cb.Vector(2))
				ties = append(ties, 5, 2)
			}
			if cells > 1 {
				copy(cb.Vector(1), cb.Vector(0)) // neuron 0 against the first group
				ties = append(ties, 0)
			}
			for i, k := range ties {
				copy(data[i*dim:(i+1)*dim], cb.Vector(k))
			}
			for v := 0; v < 48; v++ {
				x := data[v*dim : (v+1)*dim]
				wantK, wantD := bmuRef(cb, x)
				gotK, gotD := cb.BMU(x)
				if gotK != wantK || !sameBits(gotD, wantD) {
					t.Fatalf("dim %d grid %v vec %d: BMU = (%d, %v), reference (%d, %v)",
						dim, wh, v, gotK, gotD, wantK, wantD)
				}
			}
		}
	}
}

// TestBatchAccumulateKernelBitIdentical checks the box-bounded kernel
// against the full-grid reference bit for bit, across topologies, kernels,
// and radii from grid-spanning down to sub-cell.
func TestBatchAccumulateKernelBitIdentical(t *testing.T) {
	for _, topo := range []Topology{Rect, Hex} {
		for _, kern := range []Kernel{Gaussian, Bubble} {
			for _, sigma := range []float64{0.4, 1, 2.5, 7, 20, 4e18, 1e19, math.Inf(1)} {
				cb, data := kernelFixture(t, topo, 11, 8, 5, 40, 42)
				cells := cb.Grid.Cells()
				num := make([]float64, cells*cb.Dim)
				den := make([]float64, cells)
				refNum := make([]float64, cells*cb.Dim)
				refDen := make([]float64, cells)
				BatchAccumulateKernel(cb, data, 40, sigma, kern, num, den)
				batchAccumulateRef(cb, data, 40, sigma, kern, refNum, refDen)
				checkAccum(t, fmt.Sprintf("%v/%v σ=%g", topo, kern, sigma), num, den, refNum, refDen)
			}
		}
	}
}

// TestNeighborhoodTableMatchesReference checks the tabulated (Rect) and
// per-row (Hex) weights against the full-grid reference at the edges of the
// cutoff test: σ whose cutoff² equals an integer d² exactly (Gaussian σ=1
// and 2: cutoff² 9 and 36; Bubble σ=1, 2 and 5: 1, 4 and 25), NaN and
// negative σ, and grids narrower than the cutoff. Each case runs serially
// with a fresh and a reused scratch (so a stale table would show) and on the
// row-band path.
func TestNeighborhoodTableMatchesReference(t *testing.T) {
	sigmas := map[Kernel][]float64{
		Gaussian: {1, 2, 0.5, 1.7, 9, math.NaN(), -1.5},
		Bubble:   {1, 2, 5, 0.5, 2.9, math.NaN(), -2},
	}
	grids := [][2]int{{11, 8}, {3, 12}, {12, 2}, {1, 6}, {1, 1}}
	for _, topo := range []Topology{Rect, Hex} {
		for _, kern := range []Kernel{Gaussian, Bubble} {
			for _, wh := range grids {
				sc := new(AccumScratch)
				for _, sigma := range sigmas[kern] {
					label := fmt.Sprintf("%v/%v %dx%d σ=%g", topo, kern, wh[0], wh[1], sigma)
					cb, data := kernelFixture(t, topo, wh[0], wh[1], 5, 30, 9)
					cells := cb.Grid.Cells()
					refNum := make([]float64, cells*cb.Dim)
					refDen := make([]float64, cells)
					batchAccumulateRef(cb, data, 30, sigma, kern, refNum, refDen)
					for _, workers := range []int{1, 1, 3} {
						num := make([]float64, cells*cb.Dim)
						den := make([]float64, cells)
						BatchAccumulateWorkers(cb, data, 30, sigma, kern, num, den, workers, sc)
						checkAccum(t, fmt.Sprintf("%s workers=%d", label, workers), num, den, refNum, refDen)
					}
				}
			}
		}
	}
	// The integer-cutoff cases must really put a cell on the boundary.
	g, _ := NewGrid(11, 8)
	for kern, sig := range map[Kernel][]float64{Gaussian: {1, 2}, Bubble: {1, 2, 5}} {
		for _, sigma := range sig {
			c2 := kernelCutoff2(kern, sigma)
			onEdge := false
			for k := 0; k < g.Cells(); k++ {
				onEdge = onEdge || g.Dist2(0, k) == c2
			}
			if !onEdge {
				t.Errorf("%v σ=%g: no cell at d² = cutoff² = %v", kern, sigma, c2)
			}
		}
	}
}

// TestBatchAccumulateWorkersBitIdentical checks that the parallel
// accumulation matches the serial kernel bit for bit at several worker
// counts, including counts exceeding the row count.
func TestBatchAccumulateWorkersBitIdentical(t *testing.T) {
	for _, topo := range []Topology{Rect, Hex} {
		for _, workers := range []int{1, 2, 3, 5, 16} {
			cb, data := kernelFixture(t, topo, 10, 6, 4, 50, 77)
			cells := cb.Grid.Cells()
			num := make([]float64, cells*cb.Dim)
			den := make([]float64, cells)
			refNum := make([]float64, cells*cb.Dim)
			refDen := make([]float64, cells)
			sc := new(AccumScratch)
			BatchAccumulateWorkers(cb, data, 50, 2.5, Gaussian, num, den, workers, sc)
			BatchAccumulateKernel(cb, data, 50, 2.5, Gaussian, refNum, refDen)
			for i := range num {
				if num[i] != refNum[i] {
					t.Fatalf("%v workers=%d: num[%d] = %v, serial %v",
						topo, workers, i, num[i], refNum[i])
				}
			}
			for i := range den {
				if den[i] != refDen[i] {
					t.Fatalf("%v workers=%d: den[%d] = %v, serial %v",
						topo, workers, i, den[i], refDen[i])
				}
			}
			// Scratch reuse across epochs must stay correct.
			BatchAccumulateWorkers(cb, data, 50, 1.2, Gaussian, num, den, workers, sc)
		}
	}
}

// TestQualityMatchesReference checks the one-pass parallel quality metric
// against the separate BMU and full-scan nearest-two passes, bit for bit, at
// several worker counts (including more workers than vectors), on Rect and
// Hex maps, a one-neuron map (no second BMU) and a map whose first neuron
// has a NaN distance (BMU stays on it; the nearest-two scan skips it).
func TestQualityMatchesReference(t *testing.T) {
	type fixture struct {
		label string
		topo  Topology
		w, h  int
		n     int
		nan   bool
	}
	for _, f := range []fixture{
		{"rect", Rect, 9, 7, 200, false},
		{"hex", Hex, 6, 5, 200, false},
		{"n<workers", Rect, 4, 4, 2, false},
		{"one cell", Rect, 1, 1, 20, false},
		{"nan neuron 0", Rect, 5, 3, 40, true},
	} {
		for _, dim := range []int{1, 3, 5, 64} {
			cb, data := kernelFixture(t, f.topo, f.w, f.h, dim, f.n, int64(dim+f.n))
			if cells := cb.Grid.Cells(); cells > 6 {
				copy(cb.Vector(cells-2), cb.Vector(3)) // tie on the nearest two
				copy(data[:dim], cb.Vector(3))
			}
			if f.nan {
				cb.Vector(0)[0] = math.NaN()
			}
			wantQE, wantTE := qualityRef(cb, data, f.n)
			if qe, te := QuantizationError(cb, data, f.n), TopographicError(cb, data, f.n); !sameBits(qe, wantQE) || te != wantTE {
				t.Fatalf("%s dim %d: wrappers = (%v, %v), reference (%v, %v)", f.label, dim, qe, te, wantQE, wantTE)
			}
			for _, workers := range []int{1, 2, 3, 7} {
				qe, te := Quality(cb, data, f.n, workers)
				if !sameBits(qe, wantQE) || te != wantTE {
					t.Fatalf("%s dim %d workers %d: Quality = (%v, %v), reference (%v, %v)",
						f.label, dim, workers, qe, te, wantQE, wantTE)
				}
			}
			for v := 0; v < f.n; v++ {
				x := data[v*dim : (v+1)*dim]
				w1, w2 := secondBMURef(cb, x)
				if b1, b2 := cb.SecondBMU(x); b1 != w1 || b2 != w2 {
					t.Fatalf("%s dim %d vec %d: SecondBMU = (%d, %d), reference (%d, %d)", f.label, dim, v, b1, b2, w1, w2)
				}
			}
		}
	}
	// The true second-nearest neuron (5) comes after the nearest (3) and
	// its first block alone already exceeds the nearest distance: the scan
	// must abandon sums against the second-best distance, not the best.
	g, _ := NewGrid(3, 3)
	cb, _ := NewCodebook(g, 8)
	for i := range cb.Weights {
		cb.Weights[i] = 5
	}
	copy(cb.Vector(3), []float64{0, 0, 0, 0, 0, 0, 0, 1})
	copy(cb.Vector(5), []float64{0.6, 0.6, 0.6, 0.6, 0, 0, 0, 0})
	x := make([]float64, 8)
	if b1, b2 := cb.SecondBMU(x); b1 != 3 || b2 != 5 {
		t.Errorf("SecondBMU = (%d, %d), want (3, 5)", b1, b2)
	}
	if qe, te := Quality(cb, x, 1, 1); qe != 1 || te != 1 {
		t.Errorf("Quality = (%v, %v), want (1, 1): neurons 3 and 5 are not adjacent", qe, te)
	}
	if qe, te := Quality(nil, nil, 0, 4); qe != 0 || te != 0 {
		t.Errorf("Quality with no vectors = (%v, %v), want (0, 0)", qe, te)
	}
}

// BenchmarkBatchAccumulateKernel is the CI-gated allocation benchmark: the
// serial accumulation kernel must not allocate at all.
func BenchmarkBatchAccumulateKernel(b *testing.B) {
	cb, data := kernelFixture(b, Rect, 32, 32, 16, 64, 5)
	cells := cb.Grid.Cells()
	num := make([]float64, cells*cb.Dim)
	den := make([]float64, cells)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BatchAccumulateKernel(cb, data, 64, 4, Gaussian, num, den)
	}
}

// BenchmarkBatchAccumulateWorkers measures the intra-rank parallel variant
// at 4 workers on the same fixture.
func BenchmarkBatchAccumulateWorkers(b *testing.B) {
	cb, data := kernelFixture(b, Rect, 32, 32, 16, 64, 5)
	cells := cb.Grid.Cells()
	num := make([]float64, cells*cb.Dim)
	den := make([]float64, cells)
	sc := new(AccumScratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BatchAccumulateWorkers(cb, data, 64, 4, Gaussian, num, den, 4, sc)
	}
}

// BenchmarkBatchAccumulateScratch is mrsom's per-task call: one 40-vector
// block on a 40×40×64 map, serial, with the rank's reused AccumScratch. It
// is CI-gated at 0 allocs/op (the weight table is built once per σ).
func BenchmarkBatchAccumulateScratch(b *testing.B) {
	cb, data := kernelFixture(b, Rect, 40, 40, 64, 40, 5)
	cells := cb.Grid.Cells()
	num := make([]float64, cells*cb.Dim)
	den := make([]float64, cells)
	sc := new(AccumScratch)
	BatchAccumulateWorkers(cb, data, 40, 4, Gaussian, num, den, 1, sc) // builds the table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BatchAccumulateWorkers(cb, data, 40, 4, Gaussian, num, den, 1, sc)
	}
}

// qualitySink keeps BenchmarkQuality's results live.
var qualitySink float64

// BenchmarkQuality measures the one-pass quality metric on a 40×40×64 map,
// serial and at 2 workers.
func BenchmarkQuality(b *testing.B) {
	cb, data := kernelFixture(b, Rect, 40, 40, 64, 500, 5)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				qe, te := Quality(cb, data, 500, workers)
				qualitySink += qe + te
			}
		})
	}
}

// BenchmarkBMU isolates the blocked best-matching-unit search.
func BenchmarkBMU(b *testing.B) {
	cb, data := kernelFixture(b, Rect, 32, 32, 16, 64, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := data[(i%64)*cb.Dim:]
		cb.BMU(x[:cb.Dim])
	}
}
