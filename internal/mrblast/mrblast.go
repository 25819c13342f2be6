// Package mrblast is the paper's first contribution: matrix-split parallel
// BLAST over MapReduce-MPI (the paper's Fig. 1).
//
// The work unit is a (query block, database partition) pair. MapReduce runs
// in master–worker mode so the highly non-uniform per-unit BLAST cost is
// load-balanced: rank 0 hands the next unit to whichever worker asks first.
// Each map() call builds (or reuses) the search engine for its query block,
// loads (or reuses from the per-rank cache) its DB partition, overrides the
// database length with the whole-database totals so E-values match a
// monolithic search, and emits one (query key, serialized HSP) pair per
// hit. collate() groups hits per query across partitions; reduce() sorts
// each query's hits by E-value, applies the top-K cutoff, and appends them
// to one output file per rank. Queries can be streamed through multiple
// MapReduce iterations to bound the in-memory key-value working set.
package mrblast

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/bio"
	"repro/internal/blast"
	"repro/internal/blastdb"
	"repro/internal/mpi"
	"repro/internal/mrmpi"
	"repro/internal/obs"
)

// Config controls a parallel BLAST run.
type Config struct {
	// Params configure the underlying search engine. DBLength/DBNumSeqs
	// are filled from the manifest automatically (the whole-DB override);
	// explicit values win.
	Params blast.Params
	// QueryBlocks are the pre-split query blocks (the paper pre-splits the
	// query set into FASTA files of a target size; bio.SplitFasta and
	// bio.SplitFastaBySize produce these).
	QueryBlocks [][]*bio.Sequence
	// Manifest describes the partitioned database.
	Manifest *blastdb.Manifest
	// TopK caps reported hits per query after collation (0 = all hits
	// passing the E-value cutoff).
	TopK int
	// MapStyle is the work distribution policy (default master–worker).
	MapStyle mrmpi.MapStyle
	// LocalityAware switches the master to the paper's proposed
	// location-aware scheduler: workers preferentially receive work units
	// whose DB partition they processed before, reducing partition
	// reloads. Overrides MapStyle.
	LocalityAware bool
	// CacheCapacity is the number of DB volumes each rank keeps resident
	// (default 1, the paper's configuration: the DB object is cached
	// between map() invocations and re-initialized only when a different
	// partition is required).
	CacheCapacity int
	// OutDir receives one output file per rank (hits.rankNNNN.tsv). Empty
	// disables file output; hits are still counted.
	OutDir string
	// ExcludeSelfHits drops hits whose query fragment derives from the
	// subject sequence (bio.FragmentParent(queryID) == subjectID) — the
	// paper's modification that excludes RefSeq fragments hitting
	// themselves.
	ExcludeSelfHits bool
	// BlocksPerIteration bounds how many query blocks enter one MapReduce
	// cycle, implementing the paper's multi-iteration protocol that
	// controls the intermediate key-value working set (0 = all blocks in
	// one iteration).
	BlocksPerIteration int
	// MapWorkers is the number of map tasks each rank runs concurrently
	// (≤ 1: serial). Each worker owns a private engine, DB-volume cache,
	// and subject scratch; emitted pairs are merged in task order by the
	// MapReduce layer, so output is identical to a serial run. Memory cost
	// scales with workers (one cached engine + CacheCapacity volumes each).
	MapWorkers int
	// MRMemSize is the MapReduce out-of-core memory budget per object.
	MRMemSize int64
	// OutFormat selects the output encoding: "tsv" (default, outfmt-6-like
	// with a strand column) or "jsonl" (one JSON object per hit).
	OutFormat string
	// Cancel, when non-nil and closed, aborts the run at the next work-item
	// boundary with ErrCanceled. All ranks must receive the same channel.
	Cancel <-chan struct{}
}

// ErrCanceled reports that a run was aborted through Config.Cancel.
var ErrCanceled = errors.New("mrblast: run canceled")

func canceled(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// Result summarizes a run (per-rank fields are local to the calling rank).
type Result struct {
	// TotalHits is the global number of reported hits.
	TotalHits int64
	// OutFile is this rank's output file ("" when OutDir is unset).
	OutFile string
	// WorkItems is the number of (block, partition) units this rank
	// processed.
	WorkItems int
	// CacheStats reports this rank's DB volume cache activity.
	CacheStats blastdb.CacheStats
	// EngineStats aggregates the scan-stage counters across this rank's
	// map calls.
	EngineStats blast.EngineStats
	// Iterations is the number of MapReduce cycles executed.
	Iterations int
	// EngineTime is this rank's time spent inside BLAST engine calls — the
	// "user CPU time within the BLAST call" of the paper's Fig. 5
	// utilization metric.
	EngineTime time.Duration
	// WallTime is this rank's total time inside Run.
	WallTime time.Duration
}

// Utilization is the paper's "useful CPU utilization" for a completed run:
// the engine time summed over ranks divided by ranks × wall clock.
func Utilization(results []*Result) float64 {
	var busy time.Duration
	var wall time.Duration
	for _, r := range results {
		busy += r.EngineTime
		if r.WallTime > wall {
			wall = r.WallTime
		}
	}
	if wall == 0 || len(results) == 0 {
		return 0
	}
	return float64(busy) / (float64(wall) * float64(len(results)))
}

// queryKey builds the collation key for global query index qi: a big-endian
// 8-byte integer, so lexicographic key order equals the original query
// order and the per-rank output preserves it (as the paper's does).
func queryKey(qi uint64) []byte {
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], qi)
	return k[:]
}

// Run executes the parallel search collectively: every rank of comm must
// call it with identical configuration. It returns this rank's view of the
// result.
func Run(comm *mpi.Comm, cfg Config) (*Result, error) {
	if len(cfg.QueryBlocks) == 0 {
		return nil, fmt.Errorf("mrblast: no query blocks")
	}
	if cfg.Manifest == nil || cfg.Manifest.NumPartitions() == 0 {
		return nil, fmt.Errorf("mrblast: no database partitions")
	}
	alpha, err := cfg.Manifest.Alpha()
	if err != nil {
		return nil, err
	}
	if err := cfg.Manifest.Validate(); err != nil {
		return nil, err
	}
	if alpha != cfg.Params.Alpha {
		return nil, fmt.Errorf("mrblast: database alphabet %v != params alphabet %v",
			alpha, cfg.Params.Alpha)
	}
	// Whole-database statistics override.
	if cfg.Params.DBLength == 0 {
		cfg.Params.DBLength = cfg.Manifest.TotalResidues
		cfg.Params.DBNumSeqs = cfg.Manifest.NumSeqs
	}
	if cfg.CacheCapacity == 0 {
		cfg.CacheCapacity = 1
	}
	switch cfg.OutFormat {
	case "", "tsv", "jsonl":
	default:
		return nil, fmt.Errorf("mrblast: unknown output format %q", cfg.OutFormat)
	}

	// Global query index base per block, so keys order by original query
	// position.
	blockBase := make([]uint64, len(cfg.QueryBlocks)+1)
	for i, blk := range cfg.QueryBlocks {
		blockBase[i+1] = blockBase[i] + uint64(len(blk))
	}

	res := &Result{}
	runStart := time.Now()
	defer func() { res.WallTime = time.Since(runStart) }()
	var out *bufio.Writer
	var outFile *os.File
	if cfg.OutDir != "" {
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			return nil, err
		}
		res.OutFile = filepath.Join(cfg.OutDir, fmt.Sprintf("hits.rank%04d.tsv", comm.Rank()))
		outFile, err = os.Create(res.OutFile)
		if err != nil {
			return nil, err
		}
		out = bufio.NewWriterSize(outFile, 1<<16)
		defer outFile.Close()
	}

	tr := comm.Tracer()
	board := comm.Board()
	// Engine reuse: rebuilding the lookup table is wasted work when the
	// master hands consecutive units of the same query block to a rank.
	// Each worker index gets a private slot — engine, DB-volume cache, and
	// subject decode scratch — so concurrent map tasks (Config.MapWorkers
	// > 1) never share mutable search state; worker −1 (serial execution)
	// uses slot 0. A worker runs at most one task at a time, so slot
	// access needs no lock; only the shared result counters are
	// mutex-guarded.
	type workerSlot struct {
		cache       *blastdb.Cache
		engine      *blast.Engine
		cachedBlock int
		subjBuf     []byte
	}
	nslots := max(1, cfg.MapWorkers)
	slots := make([]*workerSlot, nslots)
	for i := range slots {
		slots[i] = &workerSlot{cache: blastdb.NewCache(cfg.CacheCapacity), cachedBlock: -1}
	}
	var mu sync.Mutex

	nparts := cfg.Manifest.NumPartitions()
	step := cfg.BlocksPerIteration
	if step <= 0 {
		step = len(cfg.QueryBlocks)
	}

	var localHits int64
	for iterStart := 0; iterStart < len(cfg.QueryBlocks); iterStart += step {
		iterEnd := min(iterStart+step, len(cfg.QueryBlocks))
		iterBlocks := cfg.QueryBlocks[iterStart:iterEnd]
		nmap := len(iterBlocks) * nparts

		opts := mrmpi.Options{
			MapStyle:   cfg.MapStyle,
			MemSize:    cfg.MRMemSize,
			MapWorkers: cfg.MapWorkers,
		}
		if cfg.LocalityAware {
			opts.MapStyle = mrmpi.MapStyleMasterAffinity
			opts.Affinity = func(itask int) int { return itask % nparts }
		}
		mr := mrmpi.NewWith(comm, opts)

		_, err := mr.MapWorker(nmap, func(itask, worker int, kv *mrmpi.KeyValue) error {
			if canceled(cfg.Cancel) {
				return ErrCanceled
			}
			bi := iterStart + itask/nparts
			pi := itask % nparts
			// Pool workers trace onto their own track and search with their
			// own slot; serial execution (worker −1) uses the rank track and
			// slot 0.
			wtr, slot := tr, slots[0]
			if worker >= 0 {
				wtr, slot = tr.Worker(worker), slots[worker]
			}
			var usp obs.Span
			if wtr != nil {
				usp = wtr.Begin("mrblast", "unit",
					obs.Arg{Key: "block", Val: bi}, obs.Arg{Key: "partition", Val: pi})
			}
			defer usp.End()

			mu.Lock()
			res.WorkItems++
			mu.Unlock()
			if slot.cachedBlock != bi {
				var bsp obs.Span
				if wtr != nil {
					bsp = wtr.Begin("mrblast", "engine.build", obs.Arg{Key: "block", Val: bi})
				}
				// A slot's first block builds its engine; later blocks
				// rebuild into the same engine's storage.
				var err error
				if slot.engine == nil {
					slot.engine, err = blast.NewEngine(cfg.QueryBlocks[bi], cfg.Params)
				} else {
					mu.Lock()
					res.EngineStats = addStats(res.EngineStats, slot.engine.Stats)
					mu.Unlock()
					err = slot.engine.Reset(cfg.QueryBlocks[bi])
				}
				bsp.End()
				if err != nil {
					slot.engine, slot.cachedBlock = nil, -1
					return fmt.Errorf("block %d: %w", bi, err)
				}
				slot.cachedBlock = bi
			}
			eng := slot.engine
			eng.SetDatabaseDims(cfg.Manifest.TotalResidues, cfg.Manifest.NumSeqs)

			vol, err := slot.cache.Get(cfg.Manifest.VolumePath(pi))
			if err != nil {
				return fmt.Errorf("partition %d: %w", pi, err)
			}
			var ssp obs.Span
			if wtr != nil {
				ssp = wtr.Begin("mrblast", "engine.search",
					obs.Arg{Key: "partition", Val: pi}, obs.Arg{Key: "subjects", Val: vol.NumSeqs()})
			}
			defer ssp.End()
			searchStart := time.Now()
			for si := 0; si < vol.NumSeqs(); si++ {
				var subj blast.Subject
				subj, slot.subjBuf = vol.SubjectAppend(si, slot.subjBuf)
				hsps, err := eng.SearchSubject(subj)
				if err != nil {
					return err
				}
				for _, h := range hsps {
					if cfg.ExcludeSelfHits && bio.FragmentParent(h.QueryID) == h.SubjectID {
						continue
					}
					qi := blockBase[bi] + uint64(queryIndexInBlock(cfg.QueryBlocks[bi], h.QueryID))
					kv.Add(queryKey(qi), h.Marshal())
				}
			}
			mu.Lock()
			res.EngineTime += time.Since(searchStart)
			mu.Unlock()
			return nil
		})
		if err != nil {
			mr.Close()
			return nil, err
		}

		if _, err := mr.Collate(nil); err != nil {
			mr.Close()
			return nil, err
		}
		// Keep queries in original order within each rank's output.
		if err := mr.SortKeys(bytes.Compare); err != nil {
			mr.Close()
			return nil, err
		}

		_, err = mr.Reduce(func(key []byte, values [][]byte, _ *mrmpi.KeyValue) error {
			hsps := make([]*blast.HSP, 0, len(values))
			for _, v := range values {
				h, err := blast.UnmarshalHSP(v)
				if err != nil {
					return err
				}
				hsps = append(hsps, h)
			}
			blast.SortHSPs(hsps)
			if cfg.TopK > 0 && len(hsps) > cfg.TopK {
				hsps = hsps[:cfg.TopK]
			}
			mu.Lock()
			localHits += int64(len(hsps))
			mu.Unlock()
			if out != nil {
				for _, h := range hsps {
					if cfg.OutFormat == "jsonl" {
						data, err := json.Marshal(h)
						if err != nil {
							return err
						}
						if _, err := out.Write(append(data, '\n')); err != nil {
							return err
						}
					} else if _, err := fmt.Fprintln(out, h.String()); err != nil {
						return err
					}
				}
			}
			return nil
		})
		mr.Close()
		if err != nil {
			return nil, err
		}
		res.Iterations++
		board.SetEpoch(int64(res.Iterations))
	}

	for _, slot := range slots {
		if slot.engine != nil {
			res.EngineStats = addStats(res.EngineStats, slot.engine.Stats)
		}
		res.CacheStats = addCacheStats(res.CacheStats, slot.cache.Stats())
	}
	// Publish this rank's engine and cache counters into the run's registry
	// (additive across ranks; no-op when metrics are disabled).
	if reg := comm.Metrics(); reg != nil {
		res.EngineStats.Publish(reg)
		res.CacheStats.Publish(reg)
		reg.Counter("mrblast.work.items").Add(int64(res.WorkItems))
		reg.Counter("mrblast.hits").Add(localHits)
		reg.Counter("mrblast.engine.time.ns").Add(int64(res.EngineTime))
	}
	if out != nil {
		if err := out.Flush(); err != nil {
			return nil, err
		}
		if err := outFile.Sync(); err != nil {
			return nil, err
		}
	}
	res.TotalHits = mpi.AllreduceSumInt64(comm, localHits)
	return res, nil
}

func addCacheStats(a, b blastdb.CacheStats) blastdb.CacheStats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Evictions += b.Evictions
	a.BytesLoaded += b.BytesLoaded
	return a
}

func addStats(a, b blast.EngineStats) blast.EngineStats {
	a.Subjects += b.Subjects
	a.WordHits += b.WordHits
	a.UngappedExts += b.UngappedExts
	a.GappedExts += b.GappedExts
	a.HSPsReported += b.HSPsReported
	a.ResiduesScanned += b.ResiduesScanned
	return a
}

// queryIndexInBlock locates a query ID inside its block. Blocks are small
// (hundreds to thousands of sequences), and hits cluster by query, so a
// linear scan with a memo would be overkill; IDs within a block are unique
// by construction.
func queryIndexInBlock(block []*bio.Sequence, id string) int {
	for i, s := range block {
		if s.ID == id {
			return i
		}
	}
	panic(fmt.Sprintf("mrblast: query %q not in its block", id))
}

// SerialSearch runs the same search on one core without MapReduce: the
// baseline the parallel result is validated against and the reference for
// speedup measurements. It returns all hits in global report order.
func SerialSearch(queries []*bio.Sequence, manifest *blastdb.Manifest, params blast.Params, topK int, excludeSelf bool) ([]*blast.HSP, error) {
	if params.DBLength == 0 {
		params.DBLength = manifest.TotalResidues
		params.DBNumSeqs = manifest.NumSeqs
	}
	eng, err := blast.NewEngine(queries, params)
	if err != nil {
		return nil, err
	}
	eng.SetDatabaseDims(manifest.TotalResidues, manifest.NumSeqs)
	var all []*blast.HSP
	for pi := 0; pi < manifest.NumPartitions(); pi++ {
		vol, err := blastdb.LoadVolume(manifest.VolumePath(pi))
		if err != nil {
			return nil, err
		}
		for si := 0; si < vol.NumSeqs(); si++ {
			hsps, err := eng.SearchSubject(vol.Subject(si))
			if err != nil {
				return nil, err
			}
			for _, h := range hsps {
				if excludeSelf && bio.FragmentParent(h.QueryID) == h.SubjectID {
					continue
				}
				all = append(all, h)
			}
		}
	}
	all = blast.TopK(all, topK)
	blast.SortHSPs(all)
	return all, nil
}

// ReadHitsFile parses one rank output file back into HSP-like records for
// verification and downstream analysis. Only the fields present in the TSV
// are recovered.
func ReadHitsFile(path string) ([]*blast.HSP, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*blast.HSP
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		h := &blast.HSP{}
		var pid, bits float64
		var strand string
		_, err := fmt.Sscanf(sc.Text(), "%s\t%s\t%f\t%d\t%d\t%d\t%d\t%d\t%d\t%g\t%f\t%s",
			&h.QueryID, &h.SubjectID, &pid, &h.AlignLen, &h.Gaps,
			&h.QStart, &h.QEnd, &h.SStart, &h.SEnd, &h.EValue, &bits, &strand)
		if err != nil {
			return nil, fmt.Errorf("mrblast: parsing %s: %w", path, err)
		}
		h.BitScore = bits
		h.Identities = int(pid*float64(h.AlignLen)/100 + 0.5)
		h.Strand = 1
		if strand == "-" {
			h.Strand = -1
		}
		out = append(out, h)
	}
	return out, sc.Err()
}
