package blast

import (
	"testing"

	"repro/internal/bio"
)

func dnaCodes(s string) []byte { return bio.EncodeDNA([]byte(s)) }

// alignOps runs the banded aligner and returns its score and edit path.
func alignOps(q, s []byte, m Matrix, g GapCosts, pad int) (int, []EditOp, error) {
	var sc alignScratch
	score, _, err := sc.align(q, s, m, g, pad, true)
	return score, sc.ops, err
}

func TestExtendUngappedExact(t *testing.T) {
	m := DefaultDNAMatrix()
	q := dnaCodes("ACGTACGTACGT")
	s := dnaCodes("ACGTACGTACGT")
	// Seed at word [2,6).
	u := extendUngapped(q, 0, len(q), s, 2, 2, 4, m, 20)
	if u.score != 12 {
		t.Errorf("score = %d, want 12", u.score)
	}
	if u.qlo != 0 || u.qhi != 12 || u.slo != 0 || u.shi != 12 {
		t.Errorf("bounds = %+v, want full", u)
	}
}

func TestExtendUngappedStopsAtMismatchRun(t *testing.T) {
	m := DefaultDNAMatrix()
	// Identical core flanked by noise that scores badly.
	q := dnaCodes("TTTTT" + "ACGTACGTAC" + "GGGGG")
	s := dnaCodes("AAAAA" + "ACGTACGTAC" + "CCCCC")
	u := extendUngapped(q, 0, len(q), s, 5, 5, 4, m, 6)
	if u.qlo != 5 || u.qhi != 15 {
		t.Errorf("bounds = %+v, want core [5,15)", u)
	}
	if u.score != 10 {
		t.Errorf("score = %d, want 10", u.score)
	}
}

func TestExtendUngappedRespectsContextBounds(t *testing.T) {
	m := DefaultDNAMatrix()
	q := dnaCodes("ACGTACGTACGT")
	s := dnaCodes("ACGTACGTACGT")
	u := extendUngapped(q, 4, 8, s, 4, 4, 4, m, 20)
	if u.qlo < 4 || u.qhi > 8 {
		t.Errorf("extension escaped context: %+v", u)
	}
}

func TestXdropHalfExactMatch(t *testing.T) {
	m := DefaultDNAMatrix()
	g := DefaultDNAGaps()
	q := dnaCodes("ACGTACGT")
	s := dnaCodes("ACGTACGT")
	best, qe, se := xdropHalf(q, s, m, g, 20)
	if best != 8 || qe != 8 || se != 8 {
		t.Errorf("got best=%d qe=%d se=%d, want 8/8/8", best, qe, se)
	}
}

func TestXdropHalfWithGap(t *testing.T) {
	m := DefaultDNAMatrix()
	g := GapCosts{Open: 2, Extend: 1}
	// Subject has one extra base: ACGT ACGT vs ACGTA ACGT -> gap of 1.
	q := dnaCodes("ACGTACGT")
	s := dnaCodes("ACGTAACGT")
	best, qe, se := xdropHalf(q, s, m, g, 20)
	// Either the 5-base exact prefix (5) or the full gapped span
	// (8 matches − gap cost 3 = 5) achieves the optimum.
	if best != 5 {
		t.Errorf("best = %d, want 5", best)
	}
	okExtents := (qe == 5 && se == 5) || (qe == 8 && se == 9)
	if !okExtents {
		t.Errorf("extents = %d/%d, want 5/5 or 8/9", qe, se)
	}
}

func TestXdropHalfEmptySequences(t *testing.T) {
	m := DefaultDNAMatrix()
	g := DefaultDNAGaps()
	best, qe, se := xdropHalf(nil, nil, m, g, 20)
	if best != 0 || qe != 0 || se != 0 {
		t.Errorf("empty: %d/%d/%d", best, qe, se)
	}
	best, qe, se = xdropHalf(dnaCodes("ACGT"), nil, m, g, 20)
	if best != 0 {
		t.Errorf("vs empty subject: best = %d", best)
	}
	_ = qe
	_ = se
}

func TestXdropHalfPrunes(t *testing.T) {
	m := DefaultDNAMatrix()
	g := DefaultDNAGaps()
	// Match then pure mismatch tail: extension must stop at the match.
	q := dnaCodes("ACGTGGGGGGGGGG")
	s := dnaCodes("ACGTCCCCCCCCCC")
	best, qe, se := xdropHalf(q, s, m, g, 5)
	if best != 4 || qe != 4 || se != 4 {
		t.Errorf("got %d/%d/%d, want 4/4/4", best, qe, se)
	}
}

func TestExtendGappedSpansIndel(t *testing.T) {
	m := DefaultDNAMatrix()
	g := GapCosts{Open: 2, Extend: 1}
	// Two identical 12-base arms with a single insertion in the subject.
	qStr := "ACGTACGTACGA" + "TTGCATGCATGC"
	sStr := "ACGTACGTACGA" + "G" + "TTGCATGCATGC"
	q := dnaCodes(qStr)
	s := dnaCodes(sStr)
	var sc gapScratch
	sc.useMatrix(m)
	r := extendGapped(q, 0, len(q), s, 4, 4, g, 15, &sc)
	if r.qlo != 0 || r.qhi != len(q) || r.slo != 0 || r.shi != len(s) {
		t.Errorf("bounds = %+v, want full span", r)
	}
	// 24 matches (+24) minus gap (open 2 + extend 1 = 3) = 21.
	if r.score != 21 {
		t.Errorf("score = %d, want 21", r.score)
	}
}

func TestBandedGlobalAlignExact(t *testing.T) {
	m := DefaultDNAMatrix()
	g := DefaultDNAGaps()
	q := dnaCodes("ACGTACGT")
	score, ops, err := alignOps(q, q, m, g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if score != 8 {
		t.Errorf("score = %d", score)
	}
	st := alignmentStats(q, q, ops)
	if st.Identities != 8 || st.Mismatches != 0 || st.Gaps != 0 || st.AlignLen != 8 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBandedGlobalAlignWithGap(t *testing.T) {
	m := DefaultDNAMatrix()
	g := GapCosts{Open: 2, Extend: 1}
	q := dnaCodes("ACGTACGT")
	s := dnaCodes("ACGTAACGT") // one insertion in subject
	score, ops, err := alignOps(q, s, m, g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if score != 5 {
		t.Errorf("score = %d, want 5", score)
	}
	st := alignmentStats(q, s, ops)
	if st.Identities != 8 || st.Gaps != 1 || st.AlignLen != 9 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBandedGlobalAlignDegenerate(t *testing.T) {
	m := DefaultDNAMatrix()
	g := GapCosts{Open: 2, Extend: 1}
	score, ops, err := alignOps(dnaCodes("ACG"), nil, m, g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if score != -(2 + 3) {
		t.Errorf("score = %d, want -5", score)
	}
	if len(ops) != 3 || ops[0] != OpInsQ {
		t.Errorf("ops = %v", ops)
	}
}

func TestBandedGlobalAlignMismatchOnly(t *testing.T) {
	m := DefaultDNAMatrix()
	g := DefaultDNAGaps()
	q := dnaCodes("AAAA")
	s := dnaCodes("TTTT")
	_, ops, err := alignOps(q, s, m, g, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := alignmentStats(q, s, ops)
	if st.Mismatches == 0 {
		t.Errorf("expected mismatches, got %+v", st)
	}
}

func TestBandedGlobalAlignProtein(t *testing.T) {
	m := Blosum62()
	g := DefaultProteinGaps()
	q := bio.EncodeProtein([]byte("MKVLATRE"))
	score, ops, err := alignOps(q, q, m, g, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, c := range q {
		want += m.Score(c, c)
	}
	if score != want {
		t.Errorf("score = %d, want %d", score, want)
	}
	st := alignmentStats(q, q, ops)
	if st.Identities != 8 {
		t.Errorf("identities = %d", st.Identities)
	}
}
