package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/bio"
	"repro/internal/blast"
	"repro/internal/blastdb"
	"repro/internal/core"
	"repro/internal/mrblast"
	"repro/internal/obs"
	"repro/internal/som"
)

// instance is one workload's generated inputs plus what a run needs to drive
// and check jobs over them.
type instance interface {
	// reference computes, once per run, the serial result every job's
	// output is checked against.
	reference() error
	// run executes one job through the core API; tr and reg may be nil.
	run(tr *obs.Tracer, reg *obs.Registry) error
	// check compares the last job's output with the reference.
	check() error
	// probe times, on this workload's own inputs, the layers no program
	// span isolates.
	probe(put putFunc, led *ledger)
}

type putFunc func(name, unit string, v float64)

// setupFunc synthesizes a workload's inputs from a seed into dir; the
// returned duration is the part of it spent in blastdb.Format.
type setupFunc func(dir string, seed int64) (instance, time.Duration, error)

var workloads = map[string]setupFunc{
	"blast-reads": blastReads,
	"som-map":     somMap,
	"som-rgb":     somRGB,
}

// blast-reads: shredded reads of diverged strains against a partitioned
// reference DB, master–worker with a one-volume cache per rank.
const (
	blastTaxa        = 12
	blastGenomeLen   = 14250 // fixed, so every seed formats the same DB size
	blastStrains     = 2     // strains per genome, shredded into the reads
	blastIdentity    = 0.90
	blastVolumeBases = 2 * blastGenomeLen // two genomes per volume: six volumes
	blastBlockSize   = 100                // reads per work unit
	blastEValue      = 1e-6
	blastTopK        = 10
	// blastProbeBlocks is how many query blocks (first, middle, last) the
	// kernel probe searches against the whole DB.
	blastProbeBlocks = 3
	// blastLoadPasses is how many times the load probe reads every volume.
	blastLoadPasses = 3
)

type blastInstance struct {
	queryPath, manifestPath, outDir string
	want                            []string // reference hit lines, sorted
}

func blastReads(dir string, seed int64) (instance, time.Duration, error) {
	g := bio.NewGenerator(bio.SynthParams{Seed: seed})
	set := g.GenerateGenomeSet(bio.GenomeSetParams{
		NTaxa: blastTaxa, MinLen: blastGenomeLen, MaxLen: blastGenomeLen,
		StrainsPerGenome: blastStrains, StrainIdentity: blastIdentity,
	})
	var strains []*bio.Sequence
	for _, ss := range set.Strains {
		strains = append(strains, ss...)
	}
	reads, err := bio.ShredAll(strains, bio.ShredParams{FragLen: 400, Overlap: 200, MinLen: 150})
	if err != nil {
		return nil, 0, err
	}
	inst := &blastInstance{
		queryPath: filepath.Join(dir, "reads.fa"),
		outDir:    filepath.Join(dir, "hits"),
	}
	if err := bio.WriteFastaFile(inst.queryPath, reads); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if _, err := blastdb.Format(set.Genomes, bio.DNA, dir, "refdb",
		blastdb.FormatOptions{TargetResidues: blastVolumeBases}); err != nil {
		return nil, 0, err
	}
	inst.manifestPath = filepath.Join(dir, "refdb.json")
	return inst, time.Since(start), nil
}

// params mirrors the engine settings core.RunBlast derives from the job.
func (b *blastInstance) params() blast.Params {
	p := blast.DefaultNucleotideParams()
	p.EValueCutoff = blastEValue
	p.Filter = false
	return p
}

func (b *blastInstance) run(tr *obs.Tracer, reg *obs.Registry) error {
	_, err := core.RunBlast(ranks, core.BlastJob{
		QueryPath:     b.queryPath,
		ManifestPath:  b.manifestPath,
		BlockSize:     blastBlockSize,
		TopK:          blastTopK,
		EValueCutoff:  blastEValue,
		OutDir:        b.outDir,
		CacheCapacity: 1,
		MapWorkers:    mapWorkers,
		Trace:         tr,
		Metrics:       reg,
	})
	return err
}

// reference is mrblast.SerialSearch over the same query file, manifest and
// cutoffs, rendered as hits-file lines.
func (b *blastInstance) reference() error {
	queries, err := bio.ReadFastaFile(b.queryPath)
	if err != nil {
		return err
	}
	m, err := blastdb.OpenManifest(b.manifestPath)
	if err != nil {
		return err
	}
	hsps, err := mrblast.SerialSearch(queries, m, b.params(), blastTopK, false)
	if err != nil {
		return err
	}
	if len(hsps) == 0 {
		return fmt.Errorf("serial search found no hits")
	}
	b.want = b.want[:0]
	for _, h := range hsps {
		b.want = append(b.want, h.String())
	}
	slices.Sort(b.want)
	return nil
}

// check requires the union of the per-rank hits files to equal the serial
// reference as a multiset of lines.
func (b *blastInstance) check() error {
	var got []string
	for r := 0; r < ranks; r++ {
		lines, err := readLines(filepath.Join(b.outDir, fmt.Sprintf("hits.rank%04d.tsv", r)))
		if err != nil {
			return err
		}
		got = append(got, lines...)
	}
	slices.Sort(got)
	if !slices.Equal(got, b.want) {
		return fmt.Errorf("hits differ from the serial reference: %d lines, want %d", len(got), len(b.want))
	}
	return nil
}

func readLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines, sc.Err()
}

// probe times the scan kernel per residue on a few of the job's own query
// blocks against every volume, and the cost of loading and decoding every
// volume, scaled by the traced job's cache misses.
func (b *blastInstance) probe(put putFunc, led *ledger) {
	queries, err := bio.ReadFastaFile(b.queryPath)
	if err != nil {
		led.breach("blast probe: %v", err)
		return
	}
	m, err := blastdb.OpenManifest(b.manifestPath)
	if err != nil {
		led.breach("blast probe: %v", err)
		return
	}
	var vols []*blastdb.Volume
	var loads []float64
	var buf []byte
	for pass := 0; pass < blastLoadPasses; pass++ {
		vols = vols[:0]
		start := time.Now()
		for pi := 0; pi < m.NumPartitions(); pi++ {
			v, err := blastdb.LoadVolume(m.VolumePath(pi))
			if err != nil {
				led.breach("blast probe: %v", err)
				return
			}
			for si := 0; si < v.NumSeqs(); si++ {
				_, buf = v.SubjectAppend(si, buf)
			}
			vols = append(vols, v)
		}
		loads = append(loads, time.Since(start).Seconds()/float64(m.NumPartitions()))
	}
	put("blastdb.load_s", "s", median(loads)*float64(led.count("blastdb.cache.misses")))

	blocks := bio.SplitFasta(queries, blastBlockSize)
	var searchTime time.Duration
	var residues int64
	for i := 0; i < blastProbeBlocks; i++ {
		eng, err := blast.NewEngine(blocks[i*(len(blocks)-1)/(blastProbeBlocks-1)], b.params())
		if err != nil {
			led.breach("blast probe: %v", err)
			return
		}
		eng.SetDatabaseDims(m.TotalResidues, m.NumSeqs)
		start := time.Now()
		for _, v := range vols {
			for si := 0; si < v.NumSeqs(); si++ {
				var subj blast.Subject
				subj, buf = v.SubjectAppend(si, buf)
				if _, err := eng.SearchSubject(subj); err != nil {
					led.breach("blast probe: %v", err)
					return
				}
			}
		}
		searchTime += time.Since(start)
		residues += eng.Stats.ResiduesScanned
	}
	put("blast.ns_per_residue", "ns", float64(searchTime.Nanoseconds())/float64(residues))
}

// somConfig shapes one SOM workload.
type somConfig struct {
	n, dim, width, height, epochs, block int
	// qeTol is the largest relative quantization-error difference from the
	// serial reference a job may show; teTol the largest absolute
	// topographic-error difference. Under master dispatch the block→rank
	// assignment follows timing, so the reduce sums in a different order on
	// every run and the map drifts by rounding, not by a bug.
	qeTol, teTol float64
}

// som-map: clustered 64-d vectors on a 40×40 Gaussian map, the paper's block
// of 40 vectors per work unit. The clusters overlap (64 of them, σ 0.25):
// with a few tight clusters the map sits on near-ties between nodes, and
// rounding alone moved the topographic error by 0.05 between jobs.
var somMapConfig = somConfig{
	n: 3000, dim: 64, width: 40, height: 40, epochs: 6, block: 40,
	qeTol: 0.02, teTol: 0.03,
}

const (
	somMapClusters     = 64
	somMapClusterSigma = 0.25
)

// som-rgb: the paper's Fig. 7 RGB colour map with small work units.
var somRGBConfig = somConfig{
	n: 24000, dim: 3, width: 10, height: 10, epochs: 14, block: 8,
	qeTol: 0.02, teTol: 0.03,
}

// somProbeVectors bounds how many vectors the kernel probe accumulates per
// epoch.
const somProbeVectors = 1000

type somInstance struct {
	cfg      somConfig
	seed     int64
	dataPath string
	data     []float64
	refQE    float64
	refTE    float64
	got      *core.SOMSummary
}

func somMap(dir string, seed int64) (instance, time.Duration, error) {
	data, _ := bio.ClusteredVectors(seed, somMapConfig.n, somMapConfig.dim, somMapClusters, somMapClusterSigma)
	return newSOM(dir, seed, somMapConfig, data)
}

func somRGB(dir string, seed int64) (instance, time.Duration, error) {
	return newSOM(dir, seed, somRGBConfig, bio.RandomRGB(seed, somRGBConfig.n))
}

func newSOM(dir string, seed int64, cfg somConfig, data []float64) (instance, time.Duration, error) {
	s := &somInstance{cfg: cfg, seed: seed, data: data, dataPath: filepath.Join(dir, "vectors.bin")}
	if err := som.WriteVectorFile(s.dataPath, data, cfg.n, cfg.dim); err != nil {
		return nil, 0, err
	}
	return s, 0, nil
}

func (s *somInstance) grid() som.Grid {
	g, err := som.NewGrid(s.cfg.width, s.cfg.height)
	if err != nil {
		panic(err) // the configs above are valid
	}
	return g
}

// initial is the codebook core.RunSOM starts from.
func (s *somInstance) initial() *som.Codebook {
	cb, err := som.NewCodebook(s.grid(), s.cfg.dim)
	if err != nil {
		panic(err) // the configs above are valid
	}
	cb.InitRandom(s.seed)
	return cb
}

func (s *somInstance) run(tr *obs.Tracer, reg *obs.Registry) error {
	sum, err := core.RunSOM(ranks, core.SOMJob{
		DataPath:   s.dataPath,
		Width:      s.cfg.width,
		Height:     s.cfg.height,
		Epochs:     s.cfg.epochs,
		BlockSize:  s.cfg.block,
		Seed:       s.seed,
		MapWorkers: mapWorkers,
		Trace:      tr,
		Metrics:    reg,
	})
	s.got = sum
	return err
}

// reference trains the same map serially with som.TrainBatch.
func (s *somInstance) reference() error {
	cb := s.initial()
	if err := som.TrainBatch(cb, s.data, s.cfg.n, som.TrainParams{Epochs: s.cfg.epochs}); err != nil {
		return err
	}
	s.refQE = som.QuantizationError(cb, s.data, s.cfg.n)
	s.refTE = som.TopographicError(cb, s.data, s.cfg.n)
	return nil
}

func (s *somInstance) check() error {
	if s.got == nil {
		return fmt.Errorf("no SOM summary")
	}
	qe, te := s.got.QuantErr, s.got.TopoErr
	if math.Abs(qe-s.refQE) > s.cfg.qeTol*s.refQE || math.Abs(te-s.refTE) > s.cfg.teTol {
		return fmt.Errorf("map quality off the serial reference: QE %.5f (ref %.5f, tol %g rel), TE %.5f (ref %.5f, tol %g abs)",
			qe, s.refQE, s.cfg.qeTol, te, s.refTE, s.cfg.teTol)
	}
	return nil
}

// probe times the accumulation kernel per vector and map node, on the
// workload's own data at every epoch's neighbourhood width.
func (s *somInstance) probe(put putFunc, led *ledger) {
	cb := s.initial()
	m := min(s.cfg.n, somProbeVectors)
	cells := cb.Grid.Cells()
	num := make([]float64, cells*s.cfg.dim)
	den := make([]float64, cells)
	sched := som.TrainParams{Radius0: max(1, cb.Grid.Diagonal()/2), RadiusEnd: 1}
	start := time.Now()
	for e := 0; e < s.cfg.epochs; e++ {
		som.BatchAccumulateKernel(cb, s.data[:m*s.cfg.dim], m, sched.Radius(e, s.cfg.epochs), som.Gaussian, num, den)
	}
	el := time.Since(start)
	put("som.ns_per_vector_node", "ns", float64(el.Nanoseconds())/float64(m*cells*s.cfg.epochs))
}
