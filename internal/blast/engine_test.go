package blast

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bio"
)

// plantedDNA builds a random subject with an exact copy of query[qfrom:qto]
// planted at position at.
func plantedDNA(t *testing.T, seed int64, subjLen int, query *bio.Sequence, qfrom, qto, at int) *bio.Sequence {
	t.Helper()
	g := bio.NewGenerator(bio.SynthParams{Seed: seed})
	subj := g.RandomDNA("subj", subjLen)
	copy(subj.Letters[at:], query.Letters[qfrom:qto])
	return subj
}

func newDNAEngine(t *testing.T, queries []*bio.Sequence, mod func(*Params)) *Engine {
	t.Helper()
	p := DefaultNucleotideParams()
	if mod != nil {
		mod(&p)
	}
	e, err := NewEngine(queries, p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBlastnFindsPlantedMatch(t *testing.T) {
	g := bio.NewGenerator(bio.SynthParams{Seed: 1})
	query := g.RandomDNA("q1", 200)
	subj := plantedDNA(t, 2, 1000, query, 0, 200, 300)

	e := newDNAEngine(t, []*bio.Sequence{query}, nil)
	e.SetDatabaseDims(1000, 1)
	hsps, err := e.SearchSubject(EncodeSubject(subj, bio.DNA))
	if err != nil {
		t.Fatal(err)
	}
	if len(hsps) == 0 {
		t.Fatal("planted match not found")
	}
	h := hsps[0]
	if h.QueryID != "q1" || h.SubjectID != "subj" || h.Strand != 1 {
		t.Errorf("identity fields wrong: %+v", h)
	}
	if h.QStart > 2 || h.QEnd < 198 {
		t.Errorf("query span [%d,%d) misses the planted region", h.QStart, h.QEnd)
	}
	if h.SStart < 290 || h.SEnd > 510 {
		t.Errorf("subject span [%d,%d) far from planted position", h.SStart, h.SEnd)
	}
	if h.PercentIdentity() < 95 {
		t.Errorf("identity = %.1f%%, want ~100%%", h.PercentIdentity())
	}
	if h.EValue > 1e-20 {
		t.Errorf("EValue = %g, want tiny", h.EValue)
	}
	if h.BitScore <= 0 {
		t.Errorf("BitScore = %f", h.BitScore)
	}
}

func TestBlastnFindsMinusStrandMatch(t *testing.T) {
	g := bio.NewGenerator(bio.SynthParams{Seed: 3})
	query := g.RandomDNA("q1", 150)
	rc := bio.ReverseComplement(query.Letters)
	subj := g.RandomDNA("subj", 600)
	copy(subj.Letters[100:], rc)

	e := newDNAEngine(t, []*bio.Sequence{query}, nil)
	e.SetDatabaseDims(600, 1)
	hsps, err := e.SearchSubject(EncodeSubject(subj, bio.DNA))
	if err != nil {
		t.Fatal(err)
	}
	if len(hsps) == 0 {
		t.Fatal("minus-strand match not found")
	}
	h := hsps[0]
	if h.Strand != -1 {
		t.Errorf("strand = %d, want -1", h.Strand)
	}
	if h.QStart > 2 || h.QEnd < 148 {
		t.Errorf("query span [%d,%d)", h.QStart, h.QEnd)
	}
	if h.SStart < 95 || h.SEnd > 255 {
		t.Errorf("subject span [%d,%d)", h.SStart, h.SEnd)
	}
}

func TestBlastnNoFalsePositivesOnRandom(t *testing.T) {
	g := bio.NewGenerator(bio.SynthParams{Seed: 4})
	query := g.RandomDNA("q1", 300)
	subj := g.RandomDNA("unrelated", 5000)
	e := newDNAEngine(t, []*bio.Sequence{query}, func(p *Params) {
		p.EValueCutoff = 1e-6
	})
	e.SetDatabaseDims(5000, 1)
	hsps, err := e.SearchSubject(EncodeSubject(subj, bio.DNA))
	if err != nil {
		t.Fatal(err)
	}
	if len(hsps) != 0 {
		t.Errorf("found %d hits between unrelated random sequences", len(hsps))
	}
}

func TestBlastnDivergedHomolog(t *testing.T) {
	// A 10%-diverged copy must still be found, with identity ~90%.
	g := bio.NewGenerator(bio.SynthParams{Seed: 5})
	query := g.RandomDNA("q1", 400)
	hom := g.Mutate(query, "hom", 0.10, 0.005, bio.DNA)
	e := newDNAEngine(t, []*bio.Sequence{query}, nil)
	e.SetDatabaseDims(int64(hom.Len()), 1)
	hsps, err := e.SearchSubject(EncodeSubject(hom, bio.DNA))
	if err != nil {
		t.Fatal(err)
	}
	if len(hsps) == 0 {
		t.Fatal("diverged homolog not found")
	}
	h := hsps[0]
	cov := float64(h.QEnd-h.QStart) / 400
	if cov < 0.5 {
		t.Errorf("coverage = %.2f, want >= 0.5", cov)
	}
	if h.PercentIdentity() < 80 || h.PercentIdentity() > 99 {
		t.Errorf("identity = %.1f%%, want ~90%%", h.PercentIdentity())
	}
}

func TestBlastnMultipleQueries(t *testing.T) {
	g := bio.NewGenerator(bio.SynthParams{Seed: 6})
	q1 := g.RandomDNA("q1", 150)
	q2 := g.RandomDNA("q2", 150)
	q3 := g.RandomDNA("q3", 150)
	subj := g.RandomDNA("subj", 1000)
	copy(subj.Letters[50:], q1.Letters)
	copy(subj.Letters[400:], q3.Letters)

	e := newDNAEngine(t, []*bio.Sequence{q1, q2, q3}, nil)
	e.SetDatabaseDims(1000, 1)
	hsps, err := e.SearchSubject(EncodeSubject(subj, bio.DNA))
	if err != nil {
		t.Fatal(err)
	}
	byQuery := map[string]int{}
	for _, h := range hsps {
		byQuery[h.QueryID]++
	}
	if byQuery["q1"] == 0 || byQuery["q3"] == 0 {
		t.Errorf("planted queries not all found: %v", byQuery)
	}
	if byQuery["q2"] != 0 {
		t.Errorf("q2 should have no hits: %v", byQuery)
	}
}

func TestBlastnEValueUsesDBOverride(t *testing.T) {
	// Same search with a 100x larger declared database must scale E-values
	// up ~100x: the matrix-split correctness requirement.
	g := bio.NewGenerator(bio.SynthParams{Seed: 7})
	query := g.RandomDNA("q1", 100)
	subj := plantedDNA(t, 8, 500, query, 0, 40, 100)

	run := func(dbLen int64, dbSeqs int64) float64 {
		e := newDNAEngine(t, []*bio.Sequence{query}, func(p *Params) {
			p.DBLength = dbLen
			p.DBNumSeqs = dbSeqs
		})
		e.SetDatabaseDims(500, 1) // partition dims; override should win
		hsps, err := e.SearchSubject(EncodeSubject(subj, bio.DNA))
		if err != nil {
			t.Fatal(err)
		}
		if len(hsps) == 0 {
			t.Fatal("no hit")
		}
		return hsps[0].EValue
	}
	small := run(500, 1)
	large := run(50000, 100)
	ratio := large / small
	if ratio < 50 || ratio > 200 {
		t.Errorf("E-value ratio = %.1f, want ~100", ratio)
	}
}

func TestBlastpFindsPlantedMatch(t *testing.T) {
	g := bio.NewGenerator(bio.SynthParams{Seed: 9})
	query := g.RandomProtein("p1", 120)
	subj := g.RandomProtein("subj", 500)
	copy(subj.Letters[200:], query.Letters)

	p := DefaultProteinParams()
	e, err := NewEngine([]*bio.Sequence{query}, p)
	if err != nil {
		t.Fatal(err)
	}
	e.SetDatabaseDims(500, 1)
	hsps, err := e.SearchSubject(EncodeSubject(subj, bio.Protein))
	if err != nil {
		t.Fatal(err)
	}
	if len(hsps) == 0 {
		t.Fatal("planted protein match not found")
	}
	h := hsps[0]
	if h.Strand != 1 {
		t.Errorf("protein strand = %d", h.Strand)
	}
	if h.QStart > 5 || h.QEnd < 115 {
		t.Errorf("query span [%d,%d)", h.QStart, h.QEnd)
	}
	if h.SStart < 195 || h.SEnd > 325 {
		t.Errorf("subject span [%d,%d)", h.SStart, h.SEnd)
	}
	if h.PercentIdentity() < 90 {
		t.Errorf("identity = %.1f%%", h.PercentIdentity())
	}
}

func TestBlastpRemoteHomolog(t *testing.T) {
	// 30% substitutions: detectable via BLOSUM62 but not near-identical —
	// the "more remote homologies in protein space" behavior the paper
	// cites as the reason protein search is more CPU-bound.
	g := bio.NewGenerator(bio.SynthParams{Seed: 10})
	query := g.RandomProtein("p1", 200)
	hom := g.Mutate(query, "hom", 0.30, 0, bio.Protein)
	p := DefaultProteinParams()
	e, err := NewEngine([]*bio.Sequence{query}, p)
	if err != nil {
		t.Fatal(err)
	}
	e.SetDatabaseDims(int64(hom.Len()), 1)
	hsps, err := e.SearchSubject(EncodeSubject(hom, bio.Protein))
	if err != nil {
		t.Fatal(err)
	}
	if len(hsps) == 0 {
		t.Fatal("remote homolog not found")
	}
	if id := hsps[0].PercentIdentity(); id < 55 || id > 85 {
		t.Errorf("identity = %.1f%%, want ~70%%", id)
	}
}

func TestEngineRejectsBadParams(t *testing.T) {
	g := bio.NewGenerator(bio.SynthParams{Seed: 1})
	q := []*bio.Sequence{g.RandomDNA("q", 50)}
	bad := DefaultNucleotideParams()
	bad.EValueCutoff = -1
	if _, err := NewEngine(q, bad); err == nil {
		t.Error("negative cutoff accepted")
	}
	bad = DefaultNucleotideParams()
	bad.DBLength = 100 // without DBNumSeqs
	if _, err := NewEngine(q, bad); err == nil {
		t.Error("lone DBLength accepted")
	}
	bad = DefaultNucleotideParams()
	bad.ScoreMatrix = Blosum62() // alphabet mismatch
	if _, err := NewEngine(q, bad); err == nil {
		t.Error("alphabet mismatch accepted")
	}
	if _, err := NewEngine(nil, DefaultNucleotideParams()); err == nil {
		t.Error("empty query block accepted")
	}
}

func TestEngineRequiresDatabaseDims(t *testing.T) {
	g := bio.NewGenerator(bio.SynthParams{Seed: 1})
	e := newDNAEngine(t, []*bio.Sequence{g.RandomDNA("q", 50)}, nil)
	if _, err := e.SearchSubject(Subject{ID: "s", Codes: dnaCodes("ACGTACGTACGTACGT")}); err == nil {
		t.Error("search without dims should fail")
	}
}

func TestSearchSubjectsSortsOutput(t *testing.T) {
	g := bio.NewGenerator(bio.SynthParams{Seed: 11})
	query := g.RandomDNA("q1", 300)
	// Full copy and a partial copy: full must sort first.
	full := plantedDNA(t, 12, 400, query, 0, 300, 50)
	full.ID = "full"
	part := plantedDNA(t, 13, 400, query, 0, 60, 50)
	part.ID = "part"
	e := newDNAEngine(t, []*bio.Sequence{query}, nil)
	e.SetDatabaseDims(800, 2)
	hsps, err := e.SearchSubjects([]Subject{
		EncodeSubject(part, bio.DNA),
		EncodeSubject(full, bio.DNA),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hsps) < 2 {
		t.Fatalf("want hits on both subjects, got %d", len(hsps))
	}
	if hsps[0].SubjectID != "full" {
		t.Errorf("first hit is %s, want full", hsps[0].SubjectID)
	}
	for i := 1; i < len(hsps); i++ {
		if hsps[i].EValue < hsps[i-1].EValue {
			t.Errorf("not sorted by E-value at %d", i)
		}
	}
}

func TestEngineFilterMasksLowComplexity(t *testing.T) {
	// A poly-A query must produce no seeds when filtering is on.
	polyA := &bio.Sequence{ID: "polyA", Letters: []byte(strings.Repeat("A", 200))}
	subj := &bio.Sequence{ID: "subjA", Letters: []byte(strings.Repeat("A", 500))}
	e := newDNAEngine(t, []*bio.Sequence{polyA}, func(p *Params) { p.Filter = true })
	e.SetDatabaseDims(500, 1)
	hsps, err := e.SearchSubject(EncodeSubject(subj, bio.DNA))
	if err != nil {
		t.Fatal(err)
	}
	if len(hsps) != 0 {
		t.Errorf("low-complexity match not masked: %d hits", len(hsps))
	}

	// Without the filter the same search must hit.
	e2 := newDNAEngine(t, []*bio.Sequence{polyA}, nil)
	e2.SetDatabaseDims(500, 1)
	hsps2, err := e2.SearchSubject(EncodeSubject(subj, bio.DNA))
	if err != nil {
		t.Fatal(err)
	}
	if len(hsps2) == 0 {
		t.Errorf("unfiltered poly-A search should hit")
	}
}

func TestEngineStatsAccumulate(t *testing.T) {
	g := bio.NewGenerator(bio.SynthParams{Seed: 14})
	query := g.RandomDNA("q1", 100)
	subj := plantedDNA(t, 15, 300, query, 0, 100, 100)
	e := newDNAEngine(t, []*bio.Sequence{query}, nil)
	e.SetDatabaseDims(300, 1)
	if _, err := e.SearchSubject(EncodeSubject(subj, bio.DNA)); err != nil {
		t.Fatal(err)
	}
	s := e.Stats
	if s.Subjects != 1 || s.WordHits == 0 || s.UngappedExts == 0 ||
		s.GappedExts == 0 || s.HSPsReported == 0 || s.ResiduesScanned != 300 {
		t.Errorf("stats = %+v", s)
	}
}

func TestHSPMarshalRoundTrip(t *testing.T) {
	f := func(qid, sid string, strandBit bool, qs, qe, ss, se uint16, score int16, id, gp, al uint8) bool {
		h := &HSP{
			QueryID: qid, SubjectID: sid,
			Strand: 1, QStart: int(qs), QEnd: int(qe),
			SStart: int(ss), SEnd: int(se), Score: int(abs(int(score))),
			BitScore: float64(score) / 3, EValue: math.Abs(float64(score)) / 1e10,
			Identities: int(id), Gaps: int(gp), AlignLen: int(al),
		}
		if !strandBit {
			h.Strand = -1
		}
		back, err := UnmarshalHSP(h.Marshal())
		if err != nil {
			return false
		}
		return *back == *h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalHSPTruncated(t *testing.T) {
	h := &HSP{QueryID: "q", SubjectID: "s", Strand: 1, AlignLen: 5}
	data := h.Marshal()
	for cut := 0; cut < len(data); cut++ {
		if _, err := UnmarshalHSP(data[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestTopK(t *testing.T) {
	mk := func(q string, ev float64) *HSP {
		return &HSP{QueryID: q, SubjectID: "s", EValue: ev}
	}
	hsps := []*HSP{
		mk("a", 1e-5), mk("a", 1e-3), mk("a", 1e-8),
		mk("b", 1e-2), mk("b", 1e-4),
	}
	out := TopK(hsps, 2)
	counts := map[string]int{}
	for _, h := range out {
		counts[h.QueryID]++
	}
	if counts["a"] != 2 || counts["b"] != 2 {
		t.Errorf("counts = %v", counts)
	}
	// Best hit per query must be kept.
	foundBest := false
	for _, h := range out {
		if h.QueryID == "a" && h.EValue == 1e-8 {
			foundBest = true
		}
	}
	if !foundBest {
		t.Error("best hit of a dropped")
	}
	if got := TopK(hsps, 0); len(got) != len(hsps) {
		t.Errorf("k=0 should keep all")
	}
}

func TestQueryCoordsMinusStrand(t *testing.T) {
	g := bio.NewGenerator(bio.SynthParams{Seed: 16})
	q := g.RandomDNA("q", 100)
	qs, err := NewQuerySet([]*bio.Sequence{q}, bio.DNA)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs.Contexts) != 2 {
		t.Fatalf("contexts = %d, want 2", len(qs.Contexts))
	}
	minus := qs.Contexts[1]
	if minus.Strand != -1 {
		t.Fatalf("context 1 strand = %d", minus.Strand)
	}
	// Concat range covering the first 10 bases of the minus context maps to
	// the last 10 bases of the plus query.
	lo, hi := minus.Start, minus.Start+10
	qstart, qend := qs.QueryCoords(1, lo, hi)
	if qstart != 90 || qend != 100 {
		t.Errorf("minus coords = [%d,%d), want [90,100)", qstart, qend)
	}
}

func TestContextAt(t *testing.T) {
	g := bio.NewGenerator(bio.SynthParams{Seed: 17})
	a := g.RandomDNA("a", 30)
	b := g.RandomDNA("b", 40)
	qs, err := NewQuerySet([]*bio.Sequence{a, b}, bio.DNA)
	if err != nil {
		t.Fatal(err)
	}
	// Contexts: a+, a-, b+, b- with starts 0, 30, 60, 100.
	cases := map[int]int{0: 0, 29: 0, 30: 1, 59: 1, 60: 2, 99: 2, 100: 3, 139: 3}
	for pos, want := range cases {
		if got := qs.ContextAt(pos); got != want {
			t.Errorf("ContextAt(%d) = %d, want %d", pos, got, want)
		}
	}
}

func TestDNALookupBasics(t *testing.T) {
	q := &bio.Sequence{ID: "q", Letters: []byte("ACGTACGTACGT")}
	qs, err := NewQuerySet([]*bio.Sequence{q}, bio.DNA)
	if err != nil {
		t.Fatal(err)
	}
	lk, err := NewDNALookup(qs, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Subject sharing the ACGT repeat: word at pos 0 must hit.
	subj := dnaCodes("ACGTACGT")
	pos, ok := lk.Positions(subj, 0)
	if !ok || len(pos) == 0 {
		t.Fatalf("no positions for ACGT word")
	}
	if lk.NumWords() == 0 {
		t.Error("no words registered")
	}
	if _, err := NewDNALookup(qs, 1); err == nil {
		t.Error("word size 1 accepted")
	}
}

func TestProteinLookupNeighborhood(t *testing.T) {
	q := &bio.Sequence{ID: "q", Letters: []byte("MKVLATREWQ")}
	qs, err := NewQuerySet([]*bio.Sequence{q}, bio.Protein)
	if err != nil {
		t.Fatal(err)
	}
	lk, err := NewProteinLookup(qs, 3, Blosum62(), DefaultNeighborThreshold)
	if err != nil {
		t.Fatal(err)
	}
	// The exact query word must be found (self-score of typical 3-mers
	// exceeds T=11).
	subj := bio.EncodeProtein([]byte("MKV"))
	pos, ok := lk.Positions(subj, 0)
	if !ok || len(pos) == 0 {
		t.Error("exact query word not in neighborhood")
	}
	// Neighborhood must include non-identical words: total entries exceed
	// the number of query positions.
	if lk.NumEntries() <= 8 {
		t.Errorf("entries = %d, expected neighborhood expansion", lk.NumEntries())
	}
}

func TestDustMaskPolyA(t *testing.T) {
	codes := dnaCodes(strings.Repeat("A", 200))
	ivs := DustMask(codes)
	if len(ivs) == 0 {
		t.Fatal("poly-A not masked")
	}
	covered := 0
	for _, iv := range ivs {
		covered += iv.End - iv.Start
	}
	if covered < 150 {
		t.Errorf("only %d bases masked", covered)
	}
}

func TestDustMaskRandomClean(t *testing.T) {
	g := bio.NewGenerator(bio.SynthParams{Seed: 18})
	codes := bio.EncodeDNA(g.RandomDNA("r", 2000).Letters)
	ivs := DustMask(codes)
	covered := 0
	for _, iv := range ivs {
		covered += iv.End - iv.Start
	}
	if covered > 200 {
		t.Errorf("random sequence over-masked: %d bases", covered)
	}
}

func TestSegMaskPolyQ(t *testing.T) {
	codes := bio.EncodeProtein([]byte(strings.Repeat("Q", 50)))
	ivs := SegMask(codes)
	if len(ivs) == 0 {
		t.Fatal("poly-Q not masked")
	}
}

func TestSegMaskRandomClean(t *testing.T) {
	g := bio.NewGenerator(bio.SynthParams{Seed: 19})
	codes := bio.EncodeProtein(g.RandomProtein("r", 2000).Letters)
	ivs := SegMask(codes)
	covered := 0
	for _, iv := range ivs {
		covered += iv.End - iv.Start
	}
	if covered > 200 {
		t.Errorf("random protein over-masked: %d residues", covered)
	}
}

func TestMergeIntervals(t *testing.T) {
	got := mergeIntervals([]Interval{{0, 10}, {5, 15}, {20, 30}, {30, 40}})
	if len(got) != 2 || got[0] != (Interval{0, 15}) || got[1] != (Interval{20, 40}) {
		t.Errorf("got %v", got)
	}
	if mergeIntervals(nil) != nil {
		t.Error("nil should stay nil")
	}
}

func TestEValueMonotonicity(t *testing.T) {
	kp := KarlinParams{Lambda: 1.33, K: 0.62, H: 1.12}
	ss := NewSearchSpace(kp, 400, 1e6, 100)
	prev := math.Inf(1)
	for s := 20; s <= 200; s += 20 {
		e := EValue(kp, s, ss)
		if e >= prev {
			t.Errorf("EValue not decreasing at score %d", s)
		}
		prev = e
	}
}

func TestLengthAdjustmentReasonable(t *testing.T) {
	kp := KarlinParams{Lambda: 0.267, K: 0.041, H: 0.14}
	l := LengthAdjustment(kp, 300, 1e8, 1e5)
	if l <= 0 || l >= 300 {
		t.Errorf("length adjustment = %d for a 300-residue query", l)
	}
	// Longer database -> larger adjustment.
	l2 := LengthAdjustment(kp, 300, 1e10, 1e7)
	if l2 < l {
		t.Errorf("adjustment shrank with bigger DB: %d < %d", l2, l)
	}
	if LengthAdjustment(kp, 0, 100, 1) != 0 {
		t.Error("zero-length query should give 0")
	}
}

func TestBitScoreRawScoreInverse(t *testing.T) {
	kp := KarlinParams{Lambda: 0.3176, K: 0.134, H: 0.4012}
	for raw := 20; raw < 500; raw += 37 {
		bits := kp.BitScore(raw)
		back := kp.RawScore(bits)
		if back != raw {
			t.Errorf("RawScore(BitScore(%d)) = %d", raw, back)
		}
	}
}

func TestStrandSelection(t *testing.T) {
	g := bio.NewGenerator(bio.SynthParams{Seed: 80})
	query := g.RandomDNA("q1", 120)
	subjPlus := plantedDNA(t, 81, 400, query, 0, 120, 100)
	subjPlus.ID = "plus"
	subjMinus := g.RandomDNA("minus", 400)
	copy(subjMinus.Letters[100:], bio.ReverseComplement(query.Letters))

	search := func(strand int8, subj *bio.Sequence) int {
		e := newDNAEngine(t, []*bio.Sequence{query}, func(p *Params) { p.Strand = strand })
		e.SetDatabaseDims(400, 1)
		hsps, err := e.SearchSubject(EncodeSubject(subj, bio.DNA))
		if err != nil {
			t.Fatal(err)
		}
		return len(hsps)
	}
	if search(+1, subjPlus) == 0 {
		t.Error("plus-only search missed plus-strand hit")
	}
	if search(+1, subjMinus) != 0 {
		t.Error("plus-only search found minus-strand hit")
	}
	if search(-1, subjMinus) == 0 {
		t.Error("minus-only search missed minus-strand hit")
	}
	if search(-1, subjPlus) != 0 {
		t.Error("minus-only search found plus-strand hit")
	}
	if search(0, subjPlus) == 0 || search(0, subjMinus) == 0 {
		t.Error("both-strand search missed a hit")
	}
}

func TestStrandValidation(t *testing.T) {
	p := DefaultNucleotideParams()
	p.Strand = 3
	if err := p.Validate(); err == nil {
		t.Error("strand 3 accepted")
	}
	pp := DefaultProteinParams()
	pp.Strand = 1
	if err := pp.Validate(); err == nil {
		t.Error("protein strand selection accepted")
	}
}

func TestUngappedOnlyMode(t *testing.T) {
	g := bio.NewGenerator(bio.SynthParams{Seed: 82})
	query := g.RandomDNA("q1", 150)
	subj := plantedDNA(t, 83, 500, query, 0, 150, 200)

	e := newDNAEngine(t, []*bio.Sequence{query}, func(p *Params) { p.UngappedOnly = true })
	e.SetDatabaseDims(500, 1)
	hsps, err := e.SearchSubject(EncodeSubject(subj, bio.DNA))
	if err != nil {
		t.Fatal(err)
	}
	if len(hsps) == 0 {
		t.Fatal("ungapped-only search found nothing")
	}
	h := hsps[0]
	// Ungapped HSPs span equal query and subject lengths.
	if (h.QEnd - h.QStart) != (h.SEnd - h.SStart) {
		t.Errorf("ungapped HSP has unequal spans: %+v", h)
	}
	if h.Gaps != 0 {
		t.Errorf("ungapped HSP reports %d gaps", h.Gaps)
	}
	if e.Stats.GappedExts != 0 {
		t.Errorf("gapped extensions ran in ungapped-only mode: %d", e.Stats.GappedExts)
	}
	// An exact 150-base match at +1/-2 scores 150.
	if h.Score != 150 {
		t.Errorf("score = %d, want 150", h.Score)
	}
}

func TestUngappedOnlySuppressesWeakHits(t *testing.T) {
	g := bio.NewGenerator(bio.SynthParams{Seed: 84})
	query := g.RandomDNA("q1", 300)
	subj := g.RandomDNA("unrelated", 3000)
	e := newDNAEngine(t, []*bio.Sequence{query}, func(p *Params) {
		p.UngappedOnly = true
		p.EValueCutoff = 1e-6
	})
	e.SetDatabaseDims(3000, 1)
	hsps, err := e.SearchSubject(EncodeSubject(subj, bio.DNA))
	if err != nil {
		t.Fatal(err)
	}
	if len(hsps) != 0 {
		t.Errorf("random sequences produced %d ungapped hits", len(hsps))
	}
}

// --- Two-hit seeding golden tests -------------------------------------------
//
// These pin the exact scan semantics — the window check, the overlapping-hit
// non-update rule, and the diagonal-coverage skip — with hand-constructed
// inputs whose word hits are fully enumerable, so any scan rewrite that
// changes seeding behavior fails loudly on counters, not just on end-to-end
// hit lists.

// plantSameDiagonal copies query[qfrom:qto] into subj at pad+qfrom, keeping
// every planted word on the single diagonal spos-qpos = pad.
func plantSameDiagonal(subj, query *bio.Sequence, pad, qfrom, qto int) {
	copy(subj.Letters[pad+qfrom:], query.Letters[qfrom:qto])
}

// breakMatchAfter forces subj[i] to differ from query[qi], terminating any
// accidental word-window extension across a planting boundary.
func breakMatchAfter(subj, query *bio.Sequence, i, qi int) {
	for _, b := range []byte("ACGT") {
		if b != query.Letters[qi] && b != subj.Letters[i] {
			subj.Letters[i] = b
			return
		}
	}
}

func twoHitEngine(t *testing.T, query *bio.Sequence, window int) *Engine {
	t.Helper()
	return newDNAEngine(t, []*bio.Sequence{query}, func(p *Params) {
		p.WordSize = 8
		p.TwoHitWindow = window
		p.Strand = 1 // plus only: keep the word-hit census enumerable
	})
}

func TestTwoHitExactlyAtWindowTriggersExtension(t *testing.T) {
	const w, window, pad = 8, 12, 30
	g := bio.NewGenerator(bio.SynthParams{Seed: 901})
	qb := w + window // second word at distance spos-lastEnd == window exactly
	query := g.RandomDNA("q", qb+w)
	subj := g.RandomDNA("s", 120)
	plantSameDiagonal(subj, query, pad, 0, w)
	plantSameDiagonal(subj, query, pad, qb, qb+w)
	breakMatchAfter(subj, query, pad+w, w)

	e := twoHitEngine(t, query, window)
	e.SetDatabaseDims(120, 1)
	if _, err := e.SearchSubject(EncodeSubject(subj, bio.DNA)); err != nil {
		t.Fatal(err)
	}
	if e.Stats.WordHits != 2 {
		t.Fatalf("WordHits = %d, want exactly the 2 planted hits", e.Stats.WordHits)
	}
	// The boundary case: spos-lastEnd == TwoHitWindow is IN the window.
	if e.Stats.UngappedExts != 1 {
		t.Errorf("UngappedExts = %d, want 1 (second hit exactly at window distance)", e.Stats.UngappedExts)
	}
}

func TestTwoHitOneBeyondWindowDoesNotTrigger(t *testing.T) {
	const w, window, pad = 8, 12, 30
	g := bio.NewGenerator(bio.SynthParams{Seed: 907})
	qb := w + window + 1 // one residue beyond the window
	query := g.RandomDNA("q", qb+w)
	subj := g.RandomDNA("s", 120)
	plantSameDiagonal(subj, query, pad, 0, w)
	plantSameDiagonal(subj, query, pad, qb, qb+w)
	breakMatchAfter(subj, query, pad+w, w)

	e := twoHitEngine(t, query, window)
	e.SetDatabaseDims(120, 1)
	if _, err := e.SearchSubject(EncodeSubject(subj, bio.DNA)); err != nil {
		t.Fatal(err)
	}
	if e.Stats.WordHits != 2 {
		t.Fatalf("WordHits = %d, want exactly the 2 planted hits", e.Stats.WordHits)
	}
	// Too far: the second hit becomes the new stored hit, no extension.
	if e.Stats.UngappedExts != 0 {
		t.Errorf("UngappedExts = %d, want 0 (hit one beyond the window)", e.Stats.UngappedExts)
	}
}

func TestTwoHitOverlappingHitDoesNotUpdateStoredEnd(t *testing.T) {
	// A 12-base planted segment produces 5 overlapping word hits on one
	// diagonal. The first stores end = pad+8; hits 2..5 overlap it and must
	// be ignored WITHOUT advancing the stored end. A later hit at distance
	// window+2 from the ORIGINAL end must then be out of window (no
	// extension). An implementation that wrongly advances the stored end on
	// overlaps would see distance window-2 and extend.
	const w, window, pad, seg = 8, 12, 30, 12
	g := bio.NewGenerator(bio.SynthParams{Seed: 903})
	qb := w + window + 2 // distance (qb-w) == window+2 from the original end
	query := g.RandomDNA("q", qb+w)
	subj := g.RandomDNA("s", 120)
	plantSameDiagonal(subj, query, pad, 0, seg)
	plantSameDiagonal(subj, query, pad, qb, qb+w)
	breakMatchAfter(subj, query, pad+seg, seg)

	e := twoHitEngine(t, query, window)
	e.SetDatabaseDims(120, 1)
	if _, err := e.SearchSubject(EncodeSubject(subj, bio.DNA)); err != nil {
		t.Fatal(err)
	}
	if e.Stats.WordHits != 6 {
		t.Fatalf("WordHits = %d, want 6 (5 overlapping + 1 distant)", e.Stats.WordHits)
	}
	if e.Stats.UngappedExts != 0 {
		t.Errorf("UngappedExts = %d, want 0 (overlaps must not advance the stored hit end)",
			e.Stats.UngappedExts)
	}
}

func TestDiagonalCoverageSkipsHitsAfterExtension(t *testing.T) {
	// One-hit mode: a 60-base planted match yields 53 word hits on one
	// diagonal. The first triggers the only ungapped extension; its coverage
	// mark (through the extension end) must swallow the remaining 52.
	const w, pad = 8, 25
	g := bio.NewGenerator(bio.SynthParams{Seed: 905})
	query := g.RandomDNA("q", 80)
	subj := g.RandomDNA("s", 160)
	plantSameDiagonal(subj, query, pad, 10, 70)
	breakMatchAfter(subj, query, pad+70, 70)

	e := newDNAEngine(t, []*bio.Sequence{query}, func(p *Params) {
		p.WordSize = w
		p.Strand = 1
	})
	e.SetDatabaseDims(160, 1)
	hsps, err := e.SearchSubject(EncodeSubject(subj, bio.DNA))
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats.WordHits != 53 {
		t.Fatalf("WordHits = %d, want 53 (60-base match, word size 8)", e.Stats.WordHits)
	}
	if e.Stats.UngappedExts != 1 {
		t.Errorf("UngappedExts = %d, want 1 (coverage must skip the trailing hits)", e.Stats.UngappedExts)
	}
	if e.Stats.GappedExts != 1 {
		t.Errorf("GappedExts = %d, want 1", e.Stats.GappedExts)
	}
	if len(hsps) != 1 {
		t.Errorf("got %d HSPs, want 1", len(hsps))
	}
}

// TestEngineResetMatchesFresh: an engine re-targeted with Reset must search
// every block exactly as a freshly built engine does — same HSPs, same
// stats — while it grows and shrinks through blocks of different sizes, for
// blastn with and without the DUST filter and for blastp.
func TestEngineResetMatchesFresh(t *testing.T) {
	g := bio.NewGenerator(bio.SynthParams{Seed: 7311})
	type fixture struct {
		name     string
		params   Params
		blocks   [][]*bio.Sequence
		subjects []Subject
	}
	var fixtures []fixture
	for _, filter := range []bool{false, true} {
		genome := g.RandomDNA("genome", 6000)
		strain := g.Mutate(genome, "strain", 0.05, 0.005, bio.DNA)
		reads, err := bio.Shred(strain, bio.ShredParams{FragLen: 300, Overlap: 100, MinLen: 100})
		if err != nil {
			t.Fatal(err)
		}
		p := DefaultNucleotideParams()
		p.Filter = filter
		fixtures = append(fixtures, fixture{
			name:     fmt.Sprintf("blastn filter=%v", filter),
			params:   p,
			blocks:   [][]*bio.Sequence{reads[:12], reads[12:14], reads[14:], reads[:5]},
			subjects: []Subject{EncodeSubject(genome, bio.DNA), EncodeSubject(g.RandomDNA("bg", 3000), bio.DNA)},
		})
	}
	var prots []*bio.Sequence
	for i := 0; i < 6; i++ {
		prots = append(prots, g.RandomProtein(fmt.Sprintf("p%d", i), 120+40*i))
	}
	fixtures = append(fixtures, fixture{
		name:   "blastp",
		params: DefaultProteinParams(),
		blocks: [][]*bio.Sequence{prots[:4], prots[4:], prots[1:3]},
		subjects: []Subject{
			EncodeSubject(g.Mutate(prots[1], "s1", 0.3, 0.02, bio.Protein), bio.Protein),
			EncodeSubject(g.Mutate(prots[4], "s4", 0.3, 0.02, bio.Protein), bio.Protein),
		},
	})
	for _, fx := range fixtures {
		search := func(e *Engine) ([]string, EngineStats) {
			t.Helper()
			e.SetDatabaseDims(100000, 10)
			hsps, err := e.SearchSubjects(fx.subjects)
			if err != nil {
				t.Fatal(err)
			}
			var lines []string
			for _, h := range hsps {
				lines = append(lines, h.String())
			}
			return lines, e.Stats
		}
		var reused *Engine
		hits := 0
		for bi, block := range fx.blocks {
			fresh, err := NewEngine(block, fx.params)
			if err != nil {
				t.Fatal(err)
			}
			if reused == nil {
				reused, err = NewEngine(block, fx.params)
			} else {
				err = reused.Reset(block)
			}
			if err != nil {
				t.Fatal(err)
			}
			want, wantStats := search(fresh)
			got, gotStats := search(reused)
			if strings.Join(got, "\n") != strings.Join(want, "\n") || gotStats != wantStats {
				t.Fatalf("%s block %d: reset engine found %d HSPs %+v, fresh %d HSPs %+v",
					fx.name, bi, len(got), gotStats, len(want), wantStats)
			}
			hits += len(want)
		}
		if hits == 0 {
			t.Fatalf("%s: no HSPs in any block; fixture broken", fx.name)
		}
	}
}
