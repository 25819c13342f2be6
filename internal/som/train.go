package som

import (
	"fmt"
	"math"
)

// Kernel selects the neighborhood function h(d², σ).
type Kernel int

const (
	// Gaussian is the paper's Eq. 4 kernel: exp(−d²/σ²).
	Gaussian Kernel = iota
	// Bubble is the classic cut-off kernel: 1 within radius σ, 0 outside.
	Bubble
)

func (k Kernel) String() string {
	switch k {
	case Gaussian:
		return "gaussian"
	case Bubble:
		return "bubble"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// Eval computes h(d², σ).
func (k Kernel) Eval(dist2, sigma float64) float64 {
	switch k {
	case Bubble:
		if dist2 <= sigma*sigma {
			return 1
		}
		return 0
	default:
		return gaussian(dist2, sigma)
	}
}

// TrainParams controls SOM training.
type TrainParams struct {
	// Epochs is the number of passes over the data (the paper's L).
	Epochs int
	// Radius0 is the initial neighborhood width σ(0); 0 means half the grid
	// diagonal (the paper's prescription).
	Radius0 float64
	// RadiusEnd is the final width; 0 means 1 (the width of a single cell).
	RadiusEnd float64
	// LearnRate0 is the initial online learning rate α(0) (online training
	// only); 0 means 0.5.
	LearnRate0 float64
	// Kern is the neighborhood function (default Gaussian, the paper's
	// choice).
	Kern Kernel
}

// withDefaults fills zero fields from the paper's prescriptions.
func (p TrainParams) withDefaults(g Grid) (TrainParams, error) {
	if p.Epochs <= 0 {
		return p, fmt.Errorf("som: Epochs must be positive, got %d", p.Epochs)
	}
	if p.Radius0 == 0 {
		p.Radius0 = g.Diagonal() / 2
	}
	if p.Radius0 < 1 {
		p.Radius0 = 1
	}
	if p.RadiusEnd == 0 {
		p.RadiusEnd = 1
	}
	if p.RadiusEnd > p.Radius0 {
		return p, fmt.Errorf("som: RadiusEnd %g exceeds Radius0 %g", p.RadiusEnd, p.Radius0)
	}
	if p.LearnRate0 == 0 {
		p.LearnRate0 = 0.5
	}
	return p, nil
}

// Radius returns σ(t) for epoch t of total epochs: linear decay from
// Radius0 to RadiusEnd, matching the paper's monotonically decreasing
// neighborhood width.
func (p TrainParams) Radius(epoch, epochs int) float64 {
	if epochs <= 1 {
		return p.RadiusEnd
	}
	f := float64(epoch) / float64(epochs-1)
	return p.Radius0 + (p.RadiusEnd-p.Radius0)*f
}

// neighborhoodCutoff bounds the grid distance beyond which the Gaussian
// kernel is negligible and skipped (exp(-9) < 2e-4).
func neighborhoodCutoff(sigma float64) float64 { return 3 * sigma }

// kernelCutoff is the map-space distance beyond which kernel k contributes
// nothing worth accumulating (σ for Bubble, 3σ for Gaussian); it bounds the
// lattice box the accumulation kernel iterates.
func kernelCutoff(k Kernel, sigma float64) float64 {
	if k == Bubble {
		return sigma
	}
	return neighborhoodCutoff(sigma)
}

// kernelCutoff2 is the squared distance beyond which a kernel contributes
// nothing worth accumulating.
func kernelCutoff2(k Kernel, sigma float64) float64 {
	c := kernelCutoff(k, sigma)
	return c * c
}

// gaussian is the paper's Eq. 4 kernel: exp(-d²/σ²).
func gaussian(dist2, sigma float64) float64 {
	return math.Exp(-dist2 / (sigma * sigma))
}

// TrainOnline runs the original sequential ("online") SOM: each input
// vector immediately updates the BMU and its neighbors (the paper's
// Eq. 1–4). data is a flat n×Dim matrix. This is the serial baseline the
// batch formulation is validated against.
func TrainOnline(cb *Codebook, data []float64, n int, p TrainParams) error {
	p, err := p.withDefaults(cb.Grid)
	if err != nil {
		return err
	}
	if err := checkData(cb, data, n); err != nil {
		return err
	}
	steps := p.Epochs * n
	step := 0
	for epoch := 0; epoch < p.Epochs; epoch++ {
		for v := 0; v < n; v++ {
			x := data[v*cb.Dim : (v+1)*cb.Dim]
			// Time-decaying rate and radius per presentation.
			f := float64(step) / float64(steps)
			alpha := p.LearnRate0 * (1 - f)
			sigma := p.Radius0 + (p.RadiusEnd-p.Radius0)*f
			if sigma < p.RadiusEnd {
				sigma = p.RadiusEnd
			}
			bmu, _ := cb.BMU(x)
			cutoff2 := kernelCutoff2(p.Kern, sigma)
			for k := 0; k < cb.Grid.Cells(); k++ {
				d2 := cb.Grid.Dist2(bmu, k)
				if d2 > cutoff2 {
					continue
				}
				h := alpha * p.Kern.Eval(d2, sigma)
				if h == 0 {
					continue
				}
				w := cb.Vector(k)
				for d := range w {
					w[d] += h * (x[d] - w[d])
				}
			}
			step++
		}
	}
	return nil
}

// BatchAccumulate adds the contribution of a block of input vectors to the
// running numerator and denominator of the batch update (the paper's
// Eq. 5): num[k] += h_bk·x, den[k] += h_bk, with BMUs computed against the
// epoch-start codebook cb. It is the map() kernel of the parallel SOM; the
// serial batch trainer uses it too, which is what makes
// serial-versus-parallel equality exact.
//
// num has Cells×Dim values, den has Cells values.
func BatchAccumulate(cb *Codebook, data []float64, n int, sigma float64, num, den []float64) {
	BatchAccumulateKernel(cb, data, n, sigma, Gaussian, num, den)
}

// BatchAccumulateKernel is BatchAccumulate with an explicit neighborhood
// kernel. It visits only the BMU's neighborhood bounding box per vector
// (instead of the full grid) and allocates nothing in steady state: its
// scratch, including the tabulated neighborhood weights, comes from a pool.
// Results are bit-identical to the full-grid loop (see accumulateRows).
func BatchAccumulateKernel(cb *Codebook, data []float64, n int, sigma float64, kern Kernel, num, den []float64) {
	BatchAccumulateWorkers(cb, data, n, sigma, kern, num, den, 1, nil)
}

// neighborhood is the accumulation kernel's per-(grid, kernel, σ) state:
// the cutoff and, on Rect grids, the neighborhood weights h tabulated by
// lattice offset. On a Rect grid the offsets dx, dy between a cell and the
// BMU are exact small integers, so d² and h depend only on (|dx|, |dy|) and
// one table serves every BMU. Hex rows sit at non-integer positions, where
// (|dx|, |dy|) does not fix the bits of d², so Hex evaluates the kernel per
// row (hexRow).
type neighborhood struct {
	grid            Grid
	kern            Kernel
	sigma           float64
	cutoff, cutoff2 float64
	valid           bool
	// Rect only: w[|dy|·(2rx+1) + rx + dx] is h at lattice offset (dx, dy),
	// 0 wherever the full-grid loop skips the cell (d² > cutoff² or h == 0).
	rx int
	w  []float64
}

// set re-targets the neighborhood at (g, kern, σ), rebuilding the weight
// table only when one of them changed.
func (nb *neighborhood) set(g Grid, kern Kernel, sigma float64) {
	if nb.valid && nb.grid == g && nb.kern == kern && math.Float64bits(nb.sigma) == math.Float64bits(sigma) {
		return
	}
	nb.grid, nb.kern, nb.sigma, nb.valid = g, kern, sigma, true
	nb.cutoff = kernelCutoff(kern, sigma)
	nb.cutoff2 = nb.cutoff * nb.cutoff
	if g.Topo != Rect {
		return
	}
	// neighborBox never reaches past |dx| ≤ min(⌊cutoff⌋, W−1), likewise dy.
	r := int(g.clampCutoff(nb.cutoff))
	rx, ry := min(r, g.W-1), min(r, g.H-1)
	width := 2*rx + 1
	if cap(nb.w) < width*(ry+1) {
		nb.w = make([]float64, width*(ry+1))
	}
	nb.rx, nb.w = rx, nb.w[:width*(ry+1)]
	for dy := 0; dy <= ry; dy++ {
		fy := float64(dy)
		dy2 := fy * fy
		row := nb.w[dy*width : (dy+1)*width]
		for i := range row {
			fx := float64(i - rx)
			d2 := fx*fx + dy2
			h := 0.0
			if !(d2 > nb.cutoff2) {
				h = kern.Eval(d2, sigma)
			}
			row[i] = h
		}
	}
}

// hexRow evaluates the weights of lattice row y, cells x0..x1, into buf with
// arithmetic identical to Grid.Dist2, and returns nil when the whole row
// lies beyond the cutoff.
func (nb *neighborhood) hexRow(buf []float64, y, x0, x1 int, bpx, bpy float64) []float64 {
	dy := float64(y)*hexRowSpacing - bpy
	dy2 := dy * dy
	if dy2 > nb.cutoff2 {
		return nil
	}
	rowOff := 0.0
	if y&1 == 1 {
		rowOff = 0.5
	}
	hs := buf[:x1-x0+1]
	for i := range hs {
		dx := float64(x0+i) + rowOff - bpx
		d2 := dx*dx + dy2
		h := 0.0
		if !(d2 > nb.cutoff2) {
			h = nb.kern.Eval(d2, nb.sigma)
		}
		hs[i] = h
	}
	return hs
}

// accumulateRows adds vector x's batch-update contribution for the lattice
// rows [yLo, yHi), given its precomputed BMU. It iterates only the BMU's
// neighborhood bounding box in ascending neuron order, reading each row's
// weights from the table (Rect) or from hexRow (Hex, into buf, which holds
// at least Grid.W values). A weight is 0 exactly where the full-grid loop
// fails its d² ≤ cutoff² or h ≠ 0 test, so the float additions into num and
// den happen for exactly the same cells, in exactly the same order, as the
// full-grid loop — results are bit-identical. The row-range restriction is
// what makes the parallel variant deterministic: workers own disjoint row
// bands of the same accumulators.
func (nb *neighborhood) accumulateRows(cb *Codebook, x []float64, bmu int, num, den []float64, yLo, yHi int, buf []float64) {
	g := cb.Grid
	x0, y0, x1, y1 := g.neighborBox(bmu, nb.cutoff)
	y0, y1 = max(y0, yLo), min(y1, yHi-1)
	bx, by := g.Coords(bmu)
	bpx, bpy := g.Position(bmu)
	width := 2*nb.rx + 1
	for y := y0; y <= y1; y++ {
		var hs []float64
		if g.Topo == Rect {
			dy := y - by
			if dy < 0 {
				dy = -dy
			}
			base := dy*width + nb.rx - bx
			hs = nb.w[base+x0 : base+x1+1]
		} else {
			hs = nb.hexRow(buf, y, x0, x1, bpx, bpy)
		}
		addRow(num, den, x, cb.Dim, y*g.W+x0, hs)
	}
}

// addRow adds hs[i]·x to neuron k0+i's numerator and hs[i] to its
// denominator, skipping zero weights. The numerator loop is unrolled by
// four; every element is an independent add, so this is bit-identical to
// the plain loop.
func addRow(num, den, x []float64, dim, k0 int, hs []float64) {
	x = x[:dim]
	for i, h := range hs {
		if h == 0 {
			continue
		}
		k := k0 + i
		nk := num[k*dim : (k+1)*dim : (k+1)*dim]
		d := 0
		for ; d+4 <= len(nk); d += 4 {
			n4 := nk[d : d+4 : d+4]
			x4 := x[d : d+4 : d+4]
			n4[0] += h * x4[0]
			n4[1] += h * x4[1]
			n4[2] += h * x4[2]
			n4[3] += h * x4[3]
		}
		for ; d < len(nk); d++ {
			nk[d] += h * x[d]
		}
		den[k] += h
	}
}

// BatchApply recomputes the codebook from accumulated numerators and
// denominators; neurons that received no contribution keep their previous
// weights.
func BatchApply(cb *Codebook, num, den []float64) {
	for k := 0; k < cb.Grid.Cells(); k++ {
		if den[k] == 0 {
			continue
		}
		w := cb.Vector(k)
		nk := num[k*cb.Dim : (k+1)*cb.Dim]
		inv := 1 / den[k]
		for d := range w {
			w[d] = nk[d] * inv
		}
	}
}

// TrainBatch runs the serial batch SOM: per epoch, all updates are
// accumulated against the epoch-start codebook and applied at once (the
// paper's Eq. 5). Unlike online training, the result is independent of the
// order of the input vectors.
func TrainBatch(cb *Codebook, data []float64, n int, p TrainParams) error {
	p, err := p.withDefaults(cb.Grid)
	if err != nil {
		return err
	}
	if err := checkData(cb, data, n); err != nil {
		return err
	}
	cells := cb.Grid.Cells()
	num := make([]float64, cells*cb.Dim)
	den := make([]float64, cells)
	var sc AccumScratch
	for epoch := 0; epoch < p.Epochs; epoch++ {
		sigma := p.Radius(epoch, p.Epochs)
		for i := range num {
			num[i] = 0
		}
		for i := range den {
			den[i] = 0
		}
		sc.accumulate(cb, data, n, sigma, p.Kern, num, den)
		BatchApply(cb, num, den)
	}
	return nil
}

func checkData(cb *Codebook, data []float64, n int) error {
	if n <= 0 {
		return fmt.Errorf("som: need at least one input vector")
	}
	if len(data) != n*cb.Dim {
		return fmt.Errorf("som: data length %d != n(%d)×dim(%d)", len(data), n, cb.Dim)
	}
	return nil
}
