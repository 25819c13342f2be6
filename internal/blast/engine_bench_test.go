package blast

import (
	"runtime"
	"testing"

	"repro/internal/bio"
)

// benchEngine builds the scan benchmark fixture: a shredded-fragment query
// block against synthetic genomes, the same shape as the mrperf
// engine-scan workload.
func benchEngine(b *testing.B, related bool) (*Engine, []Subject) {
	b.Helper()
	g := bio.NewGenerator(bio.SynthParams{Seed: 6001})
	set := g.GenerateGenomeSet(bio.GenomeSetParams{
		NTaxa: 2, MinLen: 6000, MaxLen: 8000,
		StrainsPerGenome: 1, StrainIdentity: 0.95,
	})
	var strains []*bio.Sequence
	for _, ss := range set.Strains {
		strains = append(strains, ss...)
	}
	frags, err := bio.ShredAll(strains, bio.ShredParams{FragLen: 400, Overlap: 200, MinLen: 150})
	if err != nil {
		b.Fatal(err)
	}
	if len(frags) > 8 {
		frags = frags[:8]
	}
	params := DefaultNucleotideParams()
	params.EValueCutoff = 1e-5
	eng, err := NewEngine(frags, params)
	if err != nil {
		b.Fatal(err)
	}
	var subjects []Subject
	var residues int64
	if related {
		for _, s := range set.Genomes {
			subj := EncodeSubject(s, bio.DNA)
			subjects = append(subjects, subj)
			residues += int64(len(subj.Codes))
		}
	} else {
		// Unrelated sequence from an independent generator: word hits occur
		// at background rate, extensions die before the gap trigger, and no
		// HSP is ever reported — the steady-state scan.
		g2 := bio.NewGenerator(bio.SynthParams{Seed: 9102})
		for i := 0; i < 2; i++ {
			subj := EncodeSubject(g2.RandomDNA("bg", 8000), bio.DNA)
			subjects = append(subjects, subj)
			residues += int64(len(subj.Codes))
		}
	}
	eng.SetDatabaseDims(residues, int64(len(subjects)))
	return eng, subjects
}

// BenchmarkSearchSubjectSteadyState is the CI-gated allocation benchmark:
// scanning a subject that produces no reportable HSP must not allocate at
// all in steady state (scanner, seed list, diagonal arrays, culling scratch
// all reused). The gate greps for a nonzero allocs/op column.
func BenchmarkSearchSubjectSteadyState(b *testing.B) {
	eng, subjects := benchEngine(b, false)
	// Warm the scratch so growth allocations land outside the measurement.
	for _, s := range subjects {
		if _, err := eng.SearchSubject(s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hsps, err := eng.SearchSubject(subjects[i%len(subjects)])
		if err != nil {
			b.Fatal(err)
		}
		if len(hsps) != 0 {
			b.Fatalf("steady-state subject reported %d HSPs; fixture broken", len(hsps))
		}
	}
}

// BenchmarkSearchSubjectHomologous measures the full pipeline (scan,
// two-hit bookkeeping, ungapped + gapped extension, culling, statistics)
// on genuinely homologous subjects. After a warm-up pass has grown the
// engine's scratch, the only allocations are the reported *HSP values and
// the one slice holding them: the benchmark fails when allocs/op exceed
// HSPs/op + 1.
func BenchmarkSearchSubjectHomologous(b *testing.B) {
	eng, subjects := benchEngine(b, true)
	for _, s := range subjects {
		if _, err := eng.SearchSubject(s); err != nil {
			b.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		hsps, err := eng.SearchSubject(subjects[i%len(subjects)])
		if err != nil {
			b.Fatal(err)
		}
		hits += len(hsps)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if hits == 0 {
		b.Fatal("homologous benchmark produced no hits; fixture broken")
	}
	hspsPerOp := float64(hits) / float64(b.N)
	allocsPerOp := float64(after.Mallocs-before.Mallocs) / float64(b.N)
	b.ReportMetric(hspsPerOp, "hsps/op")
	if allocsPerOp > hspsPerOp+1 {
		b.Fatalf("%.2f allocs/op for %.2f HSPs/op: the search allocates beyond its results", allocsPerOp, hspsPerOp)
	}
}

// BenchmarkProteinScan covers the incremental base-24 scanner path with the
// blastp two-hit configuration.
func BenchmarkProteinScan(b *testing.B) {
	g := bio.NewGenerator(bio.SynthParams{Seed: 6003})
	var queries []*bio.Sequence
	for i := 0; i < 4; i++ {
		queries = append(queries, g.RandomProtein("q", 250))
	}
	eng, err := NewEngine(queries, DefaultProteinParams())
	if err != nil {
		b.Fatal(err)
	}
	subj := EncodeSubject(g.RandomProtein("s", 4000), bio.Protein)
	eng.SetDatabaseDims(int64(len(subj.Codes)), 1)
	if _, err := eng.SearchSubject(subj); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SearchSubject(subj); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBandedAlignStats measures the per-HSP statistics pass on a
// 400×400 read-vs-genome HSP: a 400 bp genome window against a read of it
// carrying ~5% substitutions and a few indels, in the engine's band (pad
// 64). It is CI-gated at 0 allocs/op: the rolling rows, backpointers and
// score profile all live in the reused alignScratch.
func BenchmarkBandedAlignStats(b *testing.B) {
	g := bio.NewGenerator(bio.SynthParams{Seed: 6007})
	genome := g.RandomDNA("genome", 400)
	read := g.Mutate(genome, "read", 0.05, 0.005, bio.DNA)
	q, s := bio.EncodeDNA(read.Letters), bio.EncodeDNA(genome.Letters)
	m, gaps := DefaultDNAMatrix(), DefaultDNAGaps()
	var sc alignScratch
	if _, _, err := sc.align(q, s, m, gaps, 64, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sc.align(q, s, m, gaps, 64, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(q)*(2*(abs(len(q)-len(s))+64)+1)), "ns/cell")
}

// BenchmarkXdropHalf measures one gapped X-drop half-extension the way the
// engine runs it: a 400-base read carrying ~5% substitutions and a few
// indels, seeded at its middle into the 14 kbp genome it was read from, so
// the extension runs to the read's end while the subject stretches far
// past it. The scratch is reused and warmed up; it is CI-gated at 0
// allocs/op.
func BenchmarkXdropHalf(b *testing.B) {
	g := bio.NewGenerator(bio.SynthParams{Seed: 6011})
	genome := g.RandomDNA("genome", 14000)
	const at, seedOff = 6000, 200
	win := &bio.Sequence{ID: "w", Letters: genome.Letters[at : at+400]}
	read := g.Mutate(win, "read", 0.05, 0.005, bio.DNA)
	q, s := bio.EncodeDNA(read.Letters)[seedOff:], bio.EncodeDNA(genome.Letters)[at+seedOff:]
	m, gaps := DefaultDNAMatrix(), DefaultDNAGaps()
	var sc gapScratch
	sc.useMatrix(m)
	ungapped, err := ComputeUngappedKarlin(m, BackgroundFreqs(bio.DNA))
	if err != nil {
		b.Fatal(err)
	}
	xdrop := bitsToRaw(DefaultNucleotideParams().XDropGappedBits, GappedKarlin(m, gaps, ungapped).Lambda)
	if best, qext, _ := xdropHalfScratch(q, s, gaps, xdrop, &sc); best <= 0 || qext < len(q)/2 {
		b.Fatalf("extension stopped early (score %d, %d of %d residues); fixture broken", best, qext, len(q))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xdropSink, _, _ = xdropHalfScratch(q, s, gaps, xdrop, &sc)
	}
}

// xdropSink keeps BenchmarkXdropHalf's result live.
var xdropSink int
