// Package mrsom is the paper's second contribution: the parallel batch SOM
// built from MapReduce-MPI plus direct MPI calls (the paper's Fig. 2).
//
// Per epoch:
//
//  1. the master broadcasts the codebook to all ranks (MPI_Bcast),
//  2. a MapReduce map() over blocks of input vectors accumulates each
//     block's contribution to the numerator and denominator of the batch
//     update rule (Eq. 5) into rank-local arrays — no key-value pairs are
//     emitted and no reduce() stage is used,
//  3. a direct MPI_Reduce sums the numerators and denominators at the
//     master, which recomputes the codebook and starts the next epoch.
//
// Input vectors come from a dense binary matrix on a shared file system,
// each work unit being a pair of offsets into it (som.VectorFile), so
// datasets larger than RAM stream from disk exactly as in the paper.
package mrsom

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/mpi"
	"repro/internal/mrmpi"
	"repro/internal/obs"
	"repro/internal/som"
)

// ErrCanceled reports that a training run was aborted through
// Config.Cancel.
var ErrCanceled = errors.New("mrsom: training canceled")

// Config controls a parallel batch SOM training run.
type Config struct {
	// Grid is the map lattice (the paper benchmarks 50×50).
	Grid som.Grid
	// Epochs is the number of training epochs.
	Epochs int
	// Radius0/RadiusEnd follow som.TrainParams (0 = paper defaults).
	Radius0, RadiusEnd float64
	// BlockSize is the number of vectors per map work unit (the paper uses
	// 40; it reports 80 produced identical timings).
	BlockSize int
	// MapStyle is the MapReduce task-distribution policy. The paper uses
	// master–worker, "although in the case of SOM this is not as critical
	// as it is for BLAST".
	MapStyle mrmpi.MapStyle
	// MapWorkers, when > 1, parallelizes the accumulation kernel across
	// that many goroutines per rank. Accumulation for a block is
	// rank-serialized (num/den are shared), so the parallelism lives inside
	// the kernel (som.BatchAccumulateWorkers), which is bit-identical to
	// the serial kernel at any worker count — for a fixed block→rank
	// assignment the codebooks do not change. Under MapStyleMaster the
	// assignment itself is timing-dependent, so the floating-point reduce
	// may differ in low-order bits between runs whose timing differs (true
	// of any perf change, not specific to MapWorkers); MapStyleChunk pins
	// the assignment and hence the exact bits.
	MapWorkers int
	// Kernel is the neighborhood function (default Gaussian, the paper's
	// choice).
	Kernel som.Kernel
	// Seed initializes the codebook (random init) when InitialCodebook is
	// nil.
	Seed int64
	// InitialCodebook, when set, is the starting codebook (must match Grid
	// and the data dimension).
	InitialCodebook *som.Codebook
	// CheckpointPath, when set, makes the master write a codebook
	// checkpoint (som.WriteCodebook) every CheckpointEvery epochs and at
	// completion.
	CheckpointPath string
	// CheckpointEvery is the checkpoint interval in epochs (default 5).
	CheckpointEvery int
	// Resume restarts training from CheckpointPath when a valid checkpoint
	// exists there, skipping the epochs it already covers.
	Resume bool
	// Cancel, when non-nil and closed, aborts training at the next epoch
	// boundary with ErrCanceled. All ranks must receive the same channel.
	Cancel <-chan struct{}
	// StopAfterEpochs ends the run after that many epochs of this
	// invocation even though the schedule targets Epochs total — a
	// controlled interruption for checkpoint/resume workflows (0 = run to
	// completion). The radius schedule always spans the full Epochs, so an
	// interrupted-and-resumed run retraces an uninterrupted one exactly.
	StopAfterEpochs int
}

// Result reports the trained map and run statistics.
type Result struct {
	// Codebook is the trained map (identical on every rank).
	Codebook *som.Codebook
	// EpochTimes are per-epoch wall-clock durations (rank 0's view).
	EpochTimes []time.Duration
	// BlocksProcessed is the number of map work units this rank executed.
	BlocksProcessed int
	// VectorsProcessed is the number of input vectors this rank consumed.
	VectorsProcessed int
	// StartEpoch is the epoch training began at (non-zero after a resume).
	StartEpoch int
}

// Train runs the parallel batch SOM collectively: every rank of comm must
// call it with the same arguments. path names a som vector file reachable
// from all ranks (the shared-file-system assumption of the paper).
func Train(comm *mpi.Comm, path string, cfg Config) (*Result, error) {
	vf, err := som.OpenVectorFile(path)
	if err != nil {
		return nil, err
	}
	defer vf.Close()
	return TrainFile(comm, vf, cfg)
}

// TrainFile is Train over an already-open vector file (each rank passes its
// own handle).
func TrainFile(comm *mpi.Comm, vf *som.VectorFile, cfg Config) (*Result, error) {
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("mrsom: Epochs must be positive, got %d", cfg.Epochs)
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 40 // the paper's work-unit size
	}
	if vf.N == 0 {
		return nil, fmt.Errorf("mrsom: input file holds no vectors")
	}
	tp := som.TrainParams{
		Epochs:    cfg.Epochs,
		Radius0:   cfg.Radius0,
		RadiusEnd: cfg.RadiusEnd,
	}

	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 5
	}

	// The master owns the codebook; workers hold per-epoch copies.
	var cb *som.Codebook
	var err error
	startEpoch := 0
	if comm.Rank() == 0 {
		if cfg.Resume && cfg.CheckpointPath != "" {
			if loaded, epoch, err := som.ReadCodebook(cfg.CheckpointPath); err == nil {
				if loaded.Grid == cfg.Grid && loaded.Dim == vf.Dim {
					cb = loaded
					startEpoch = epoch
				}
			}
		}
		if cb == nil && cfg.InitialCodebook != nil {
			cb = cfg.InitialCodebook.Clone()
			if cb.Grid != cfg.Grid || cb.Dim != vf.Dim {
				return nil, fmt.Errorf("mrsom: initial codebook %dx%d/%d doesn't match grid %dx%d dim %d",
					cb.Grid.W, cb.Grid.H, cb.Dim, cfg.Grid.W, cfg.Grid.H, vf.Dim)
			}
		} else if cb == nil {
			cb, err = som.NewCodebook(cfg.Grid, vf.Dim)
			if err != nil {
				return nil, err
			}
			cb.InitRandom(cfg.Seed)
		}
	} else {
		cb, err = som.NewCodebook(cfg.Grid, vf.Dim)
		if err != nil {
			return nil, err
		}
	}
	// Resolve schedule defaults identically on all ranks.
	tpResolved, err := resolveSchedule(tp, cfg.Grid)
	if err != nil {
		return nil, err
	}

	nblocks := (vf.N + cfg.BlockSize - 1) / cfg.BlockSize
	cells := cfg.Grid.Cells()
	num := make([]float64, cells*vf.Dim)
	den := make([]float64, cells)

	res := &Result{}
	var mu sync.Mutex
	// The rank's kernel scratch: its neighborhood weight table depends only
	// on σ, so the epoch's first block builds it and later blocks reuse it.
	var accSc som.AccumScratch
	tr := comm.Tracer()
	mr := mrmpi.NewWith(comm, mrmpi.Options{MapStyle: cfg.MapStyle})
	defer mr.Close()

	// All ranks must agree where training starts (resume is decided by the
	// master, which holds the checkpoint).
	startEpoch = mpi.Bcast(comm, 0, startEpoch)
	res.StartEpoch = startEpoch

	board := comm.Board()
	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		board.SetEpoch(int64(epoch))
		comm.Profiler().Transition(comm.Rank(), fmt.Sprintf("epoch%d", epoch))
		if cfg.Cancel != nil {
			select {
			case <-cfg.Cancel:
				return nil, ErrCanceled
			default:
			}
		}
		start := time.Now()
		sigma := tpResolved.Radius(epoch, cfg.Epochs)
		// Epoch span: ended explicitly at the bottom of the loop body (a
		// deferred End would leak until Train returns).
		var esp obs.Span
		if tr != nil {
			esp = tr.Begin("mrsom", "epoch", obs.Arg{Key: "epoch", Val: epoch})
		}

		// (1) Broadcast the epoch-start codebook.
		var bsp obs.Span
		if tr != nil {
			bsp = tr.Begin("mrsom", "bcast.codebook")
		}
		weights := mpi.BcastFloat64s(comm, 0, cb.Weights)
		bsp.End()
		if comm.Rank() != 0 {
			copy(cb.Weights, weights)
		}

		// (2) Map over vector blocks, accumulating Eq. 5 terms locally.
		for i := range num {
			num[i] = 0
		}
		for i := range den {
			den[i] = 0
		}
		_, err := mr.Map(nblocks, func(itask int, kv *mrmpi.KeyValue) error {
			lo := itask * cfg.BlockSize
			hi := min(lo+cfg.BlockSize, vf.N)
			block, err := vf.ReadBlock(lo, hi)
			if err != nil {
				return err
			}
			// num/den and the result counters are shared across callback
			// invocations on this rank, and the mapper may run callbacks
			// concurrently under the master styles — serialize the
			// accumulation.
			mu.Lock()
			var ksp obs.Span
			if tr != nil {
				ksp = tr.Begin("mrsom", "kernel",
					obs.Arg{Key: "block", Val: itask}, obs.Arg{Key: "vectors", Val: hi - lo})
			}
			som.BatchAccumulateWorkers(cb, block, hi-lo, sigma, cfg.Kernel, num, den,
				cfg.MapWorkers, &accSc)
			ksp.End()
			res.BlocksProcessed++
			res.VectorsProcessed += hi - lo
			mu.Unlock()
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("mrsom: epoch %d: %w", epoch, err)
		}

		// (3) Direct MPI reduce of numerators and denominators; the master
		// recomputes the codebook (Eq. 5).
		var rsp obs.Span
		if tr != nil {
			rsp = tr.Begin("mrsom", "reduce.updates")
		}
		numSum := mpi.ReduceSumFloat64s(comm, 0, num)
		denSum := mpi.ReduceSumFloat64s(comm, 0, den)
		rsp.End()
		stopping := cfg.StopAfterEpochs > 0 && epoch+1-startEpoch >= cfg.StopAfterEpochs
		if comm.Rank() == 0 {
			var asp obs.Span
			if tr != nil {
				asp = tr.Begin("mrsom", "apply")
			}
			som.BatchApply(cb, numSum, denSum)
			asp.End()
			res.EpochTimes = append(res.EpochTimes, time.Since(start))
			if cfg.CheckpointPath != "" &&
				((epoch+1)%cfg.CheckpointEvery == 0 || epoch == cfg.Epochs-1 || stopping) {
				if err := som.WriteCodebook(cfg.CheckpointPath, cb, epoch+1); err != nil {
					esp.End()
					return nil, fmt.Errorf("mrsom: checkpoint at epoch %d: %w", epoch+1, err)
				}
			}
		}
		esp.End()
		if stopping {
			break
		}
	}
	if reg := comm.Metrics(); reg != nil {
		reg.Counter("mrsom.epochs").Add(int64(len(res.EpochTimes)))
		reg.Counter("mrsom.blocks").Add(int64(res.BlocksProcessed))
		reg.Counter("mrsom.vectors").Add(int64(res.VectorsProcessed))
	}

	// Leave every rank with the final map.
	final := mpi.BcastFloat64s(comm, 0, cb.Weights)
	if comm.Rank() != 0 {
		copy(cb.Weights, final)
	}
	res.Codebook = cb
	return res, nil
}

// resolveSchedule applies som's defaulting rules without exporting them.
func resolveSchedule(p som.TrainParams, g som.Grid) (som.TrainParams, error) {
	if p.Epochs <= 0 {
		return p, fmt.Errorf("mrsom: epochs must be positive")
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
		return p, fmt.Errorf("mrsom: RadiusEnd %g exceeds Radius0 %g", p.RadiusEnd, p.Radius0)
	}
	return p, nil
}
