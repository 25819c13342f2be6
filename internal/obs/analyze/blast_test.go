package analyze

import (
	"fmt"
	"testing"

	"repro/internal/bio"
	"repro/internal/blast"
	"repro/internal/blastdb"
	"repro/internal/mpi"
	"repro/internal/mrblast"
	"repro/internal/mrmpi"
	"repro/internal/obs"
)

// TestStragglerDetectionMrblast is the analyzer acceptance test: a traced
// master-mapstyle mrblast run where one DB partition is artificially slow
// (a single sequence an order of magnitude larger than the rest, so the
// formatter cannot split it). The analyzer must report the rank that drew
// that partition as the top straggler, a map-phase load-imbalance factor
// above 1, and a critical-path total equal to the trace wall clock.
func TestStragglerDetectionMrblast(t *testing.T) {
	g := bio.NewGenerator(bio.SynthParams{Seed: 4242})
	small := g.GenerateGenomeSet(bio.GenomeSetParams{
		NTaxa: 3, MinLen: 1500, MaxLen: 2500,
		StrainsPerGenome: 1, StrainIdentity: 0.93,
	})
	// One giant genome dwarfing the others: it lands alone in one
	// partition whose search time dominates the run. Its search must also
	// outlast the other workers' engine builds (about a megabyte of lookup
	// table each), which a GC cycle can stretch to ~10 ms of wall time; at
	// 400 kbp it takes 20–30 ms.
	huge := g.GenerateGenomeSet(bio.GenomeSetParams{
		NTaxa: 1, MinLen: 400000, MaxLen: 405000,
		StrainsPerGenome: 1, StrainIdentity: 0.93,
	})
	for i, s := range huge.Genomes {
		s.ID = fmt.Sprintf("huge%04d", i)
	}
	genomes := append(append([]*bio.Sequence{}, small.Genomes...), huge.Genomes...)

	var strains []*bio.Sequence
	for _, ss := range small.Strains {
		strains = append(strains, ss...)
	}
	frags, err := bio.ShredAll(strains, bio.ShredParams{FragLen: 400, Overlap: 200, MinLen: 150})
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) > 16 {
		frags = frags[:16]
	}

	m, err := blastdb.Format(genomes, bio.DNA, t.TempDir(), "db",
		blastdb.FormatOptions{TargetResidues: 3000})
	if err != nil {
		t.Fatal(err)
	}
	nparts := m.NumPartitions()
	if nparts < 3 {
		t.Fatalf("need >= 3 partitions for a meaningful straggler run, got %d", nparts)
	}

	params := blast.DefaultNucleotideParams()
	params.EValueCutoff = 1e-5
	tracer := obs.NewTracer()
	err = mpi.RunWith(4, mpi.RunOptions{Trace: tracer}, func(c *mpi.Comm) error {
		_, err := mrblast.Run(c, mrblast.Config{
			Params:      params,
			QueryBlocks: [][]*bio.Sequence{frags},
			Manifest:    m,
			MapStyle:    mrmpi.MapStyleMaster,
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	events := tracer.Events()
	// The trace tells us which rank drew the huge partition: the one with
	// the most mrblast:engine.search self time.
	var searchTime [4]int64
	obs.PairSpans(events, func(sp obs.SpanInstance) {
		if sp.Cat == "mrblast" && sp.Name == "engine.search" {
			searchTime[sp.Rank] += int64(sp.Dur)
		}
	})
	slowRank, best := -1, int64(0)
	for r, d := range searchTime {
		if d > best {
			slowRank, best = r, d
		}
	}
	if slowRank <= 0 {
		t.Fatalf("no worker did search work (search times %v)", searchTime)
	}

	rep := Analyze(events)
	if len(rep.Stragglers) == 0 {
		t.Fatal("no stragglers reported")
	}
	if got := rep.Stragglers[0].Rank; got != slowRank {
		t.Errorf("top straggler = rank %d, want rank %d (search times %v)", got, slowRank, searchTime)
	}
	if len(rep.Stragglers[0].TopSpans) == 0 {
		t.Error("top straggler has no contributing spans")
	}

	var mapPhase *PhaseStat
	for i := range rep.Phases {
		if rep.Phases[i].Name == "map" {
			mapPhase = &rep.Phases[i]
		}
	}
	if mapPhase == nil {
		t.Fatal("no map phase in report")
	}
	if mapPhase.Imbalance <= 1 {
		t.Errorf("map imbalance = %g, want > 1 (busy by rank %v)", mapPhase.Imbalance, mapPhase.BusyByRank)
	}
	if mapPhase.MaxRank != slowRank {
		t.Errorf("map phase slowest rank = %d, want %d", mapPhase.MaxRank, slowRank)
	}

	if rep.CriticalPath.Total != rep.WallClock {
		t.Errorf("critical path total %v != wall clock %v", rep.CriticalPath.Total, rep.WallClock)
	}

	// Master-style run: dispatch latency must be measured.
	if rep.Dispatch == nil || rep.Dispatch.Count == 0 {
		t.Error("no dispatch latency measured on a master-style run")
	}
}
