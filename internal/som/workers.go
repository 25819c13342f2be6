package som

import "sync"

// AccumScratch holds the reusable state of the accumulation kernel — the
// tabulated neighborhood weights, the BMU buffer and the Hex row buffers —
// so the per-epoch accumulation allocates nothing in steady state. The
// weight table is rebuilt only when σ, the kernel or the grid changes, so a
// caller that accumulates many blocks per epoch (mrsom, one scratch per
// rank) builds it once per epoch. One scratch per concurrent caller.
type AccumScratch struct {
	nb   neighborhood
	bmus []int32
	rows [][]float64
}

// scratchPool backs callers that pass no scratch, such as
// BatchAccumulateKernel, whose signature has none.
var scratchPool = sync.Pool{New: func() any { return new(AccumScratch) }}

// rowBufs returns k row buffers of at least w values each.
func (sc *AccumScratch) rowBufs(k, w int) [][]float64 {
	for len(sc.rows) < k {
		sc.rows = append(sc.rows, nil)
	}
	for i := 0; i < k; i++ {
		if cap(sc.rows[i]) < w {
			sc.rows[i] = make([]float64, w)
		}
	}
	return sc.rows[:k]
}

// accumulate is the serial kernel: BMU then neighborhood accumulation, one
// vector at a time in input order.
func (sc *AccumScratch) accumulate(cb *Codebook, data []float64, n int, sigma float64, kern Kernel, num, den []float64) {
	sc.nb.set(cb.Grid, kern, sigma)
	buf := sc.rowBufs(1, cb.Grid.W)[0]
	dim := cb.Dim
	for v := 0; v < n; v++ {
		x := data[v*dim : (v+1)*dim]
		bmu, _ := cb.BMU(x)
		sc.nb.accumulateRows(cb, x, bmu, num, den, 0, cb.Grid.H, buf)
	}
}

// BatchAccumulateWorkers is BatchAccumulateKernel parallelized across
// `workers` goroutines while staying bit-identical to the serial kernel at
// every worker count:
//
//  1. BMUs are computed in parallel over contiguous vector chunks — each
//     vector's BMU depends only on the epoch-start codebook, so partitioning
//     cannot change it.
//  2. Accumulation is parallelized over disjoint lattice row bands. Every
//     worker scans all vectors in input order and adds only the cells of its
//     own rows, so each num/den cell receives exactly the serial sequence of
//     float additions regardless of the worker count. The bands share one
//     read-only weight table.
//
// workers ≤ 1 runs the serial kernel on sc (nil sc: a pooled scratch).
func BatchAccumulateWorkers(cb *Codebook, data []float64, n int, sigma float64, kern Kernel, num, den []float64, workers int, sc *AccumScratch) {
	if sc == nil {
		sc = scratchPool.Get().(*AccumScratch)
		defer scratchPool.Put(sc)
	}
	if workers <= 1 || n == 0 {
		sc.accumulate(cb, data, n, sigma, kern, num, den)
		return
	}
	if cap(sc.bmus) < n {
		sc.bmus = make([]int32, n)
	}
	bmus := sc.bmus[:n]
	dim := cb.Dim

	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for v := lo; v < hi; v++ {
				b, _ := cb.BMU(data[v*dim : (v+1)*dim])
				bmus[v] = int32(b)
			}
		}(lo, hi)
	}
	wg.Wait()

	rows := cb.Grid.H
	bands := min(workers, rows)
	per := (rows + bands - 1) / bands
	sc.nb.set(cb.Grid, kern, sigma)
	nb := &sc.nb
	bufs := sc.rowBufs(bands, cb.Grid.W)
	for b, yLo := 0, 0; yLo < rows; b, yLo = b+1, yLo+per {
		yHi := min(yLo+per, rows)
		wg.Add(1)
		go func(yLo, yHi int, buf []float64) {
			defer wg.Done()
			for v := 0; v < n; v++ {
				x := data[v*dim : (v+1)*dim]
				nb.accumulateRows(cb, x, int(bmus[v]), num, den, yLo, yHi, buf)
			}
		}(yLo, yHi, bufs[b])
	}
	wg.Wait()
}
