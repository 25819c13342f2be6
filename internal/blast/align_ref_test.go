package blast

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bio"
)

// bandedGlobalAlignRef is the full-matrix banded aligner, the reference the
// rolling-row aligner must reproduce: it materializes all (nq+1) × width
// cells of the three DP layers and their backpointers, then returns the
// edit path.
func bandedGlobalAlignRef(q, s []byte, m Matrix, gaps GapCosts, pad int) (int, []EditOp, error) {
	nq, ns := len(q), len(s)
	if nq == 0 || ns == 0 {
		// Degenerate: pure gap alignment.
		ops := make([]EditOp, 0, nq+ns)
		score := 0
		if nq > 0 {
			score = -(gaps.Open + gaps.Extend*nq)
			for i := 0; i < nq; i++ {
				ops = append(ops, OpInsQ)
			}
		} else if ns > 0 {
			score = -(gaps.Open + gaps.Extend*ns)
			for i := 0; i < ns; i++ {
				ops = append(ops, OpInsS)
			}
		}
		return score, ops, nil
	}
	half := abs(nq-ns) + pad
	// Band: for row i, columns in [i-half, i+half] intersected with [0, ns].
	width := 2*half + 1
	idx := func(i, j int) (int, bool) {
		off := j - (i - half)
		if off < 0 || off >= width {
			return 0, false
		}
		return i*width + off, true
	}
	size := (nq + 1) * width
	mS := make([]int, size)
	eS := make([]int, size)
	fS := make([]int, size)
	for i := range mS {
		mS[i], eS[i], fS[i] = negInf, negInf, negInf
	}
	// Layer encoding of the backpointers: 0=M, 1=E, 2=F.
	backM := make([]byte, size)
	backE := make([]byte, size)
	backF := make([]byte, size)

	openExt := gaps.Open + gaps.Extend
	if k, ok := idx(0, 0); ok {
		mS[k] = 0
	}
	for j := 1; j <= min(ns, half); j++ {
		if k, ok := idx(0, j); ok {
			fS[k] = -(gaps.Open + gaps.Extend*j)
			if j > 1 {
				backF[k] = 2 // extend F
			} else {
				backF[k] = 0 // open from M at (0,0)
			}
		}
	}
	for i := 1; i <= nq; i++ {
		lo := max(0, i-half)
		hi := min(ns, i+half)
		for j := lo; j <= hi; j++ {
			k, ok := idx(i, j)
			if !ok {
				continue
			}
			// E: gap consuming q (from row i-1, same column).
			if kp, okp := idx(i-1, j); okp {
				open := mS[kp] - openExt
				ext := eS[kp] - gaps.Extend
				if open >= ext {
					eS[k] = open
					backE[k] = 0
				} else {
					eS[k] = ext
					backE[k] = 1
				}
			}
			// F: gap consuming s (from column j-1, same row).
			if j > lo || j > 0 {
				if kp, okp := idx(i, j-1); okp {
					open := mS[kp] - openExt
					ext := fS[kp] - gaps.Extend
					if open >= ext {
						fS[k] = open
						backF[k] = 0
					} else {
						fS[k] = ext
						backF[k] = 2
					}
				}
			}
			// M: diagonal.
			if i >= 1 && j >= 1 {
				if kp, okp := idx(i-1, j-1); okp {
					d := max(mS[kp], max(eS[kp], fS[kp]))
					if d > negInf/2 {
						sc := d + m.Score(q[i-1], s[j-1])
						mS[k] = sc
						switch {
						case d == mS[kp]:
							backM[k] = 0
						case d == eS[kp]:
							backM[k] = 1
						default:
							backM[k] = 2
						}
					}
				}
			}
		}
	}
	kEnd, ok := idx(nq, ns)
	if !ok {
		return 0, nil, fmt.Errorf("blast: band too narrow for %dx%d alignment", nq, ns)
	}
	layer := 0
	best := mS[kEnd]
	if eS[kEnd] > best {
		best, layer = eS[kEnd], 1
	}
	if fS[kEnd] > best {
		best, layer = fS[kEnd], 2
	}
	if best <= negInf/2 {
		return 0, nil, fmt.Errorf("blast: no path within band for %dx%d alignment", nq, ns)
	}

	var rev []EditOp
	i, j := nq, ns
	for i > 0 || j > 0 {
		k, okk := idx(i, j)
		if !okk {
			return 0, nil, fmt.Errorf("blast: traceback left the band at (%d,%d)", i, j)
		}
		switch layer {
		case 0:
			rev = append(rev, OpMatch)
			layer = int(backM[k])
			i--
			j--
		case 1:
			rev = append(rev, OpInsQ)
			layer = int(backE[k])
			i--
		case 2:
			rev = append(rev, OpInsS)
			layer = int(backF[k])
			j--
		}
	}
	ops := make([]EditOp, len(rev))
	for x := range rev {
		ops[x] = rev[len(rev)-1-x]
	}
	return best, ops, nil
}

// alignmentStats walks an edit path and counts identities, mismatches and
// gaps.
func alignmentStats(q, s []byte, ops []EditOp) AlignStats {
	var st AlignStats
	qi, si := 0, 0
	for _, op := range ops {
		st.AlignLen++
		switch op {
		case OpMatch:
			if q[qi] == s[si] {
				st.Identities++
			} else {
				st.Mismatches++
			}
			qi++
			si++
		case OpInsQ:
			st.Gaps++
			qi++
		case OpInsS:
			st.Gaps++
			si++
		}
	}
	return st
}

// randomAlignPair draws a (query, subject) pair: either a mutated copy
// (substitutions and indels, the shape of a real HSP) or two unrelated
// sequences, with lengths from 0 up to a few hundred.
func randomAlignPair(rng *rand.Rand, g *bio.Generator, alpha bio.Alphabet) (q, s []byte) {
	n := rng.Intn(40)
	if rng.Intn(4) == 0 {
		n = rng.Intn(400)
	}
	encode := bio.EncodeDNA
	base := func(l int) *bio.Sequence { return g.RandomDNA("s", l) }
	if alpha == bio.Protein {
		encode = bio.EncodeProtein
		base = func(l int) *bio.Sequence { return g.RandomProtein("s", l) }
	}
	seq := base(n)
	var other *bio.Sequence
	switch rng.Intn(3) {
	case 0:
		other = base(rng.Intn(40))
	default:
		other = g.Mutate(seq, "m", rng.Float64()*0.3, rng.Float64()*0.08, alpha)
	}
	q, s = encode(seq.Letters), encode(other.Letters)
	if rng.Intn(2) == 0 {
		q, s = s, q
	}
	return q, s
}

// TestBandedAlignMatchesReference: the rolling-row aligner with packed
// backpointers must return exactly the reference's score, path, statistics
// and errors, over DNA and BLOSUM62 inputs, assorted gap costs (including
// Open=0, where gap opening and extension tie), pads from below the
// minimum band to wide, and lengths including 0. One scratch serves every
// trial, so dirty reuse across band shapes is covered too.
func TestBandedAlignMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9071))
	g := bio.NewGenerator(bio.SynthParams{Seed: 9072})
	type scheme struct {
		alpha bio.Alphabet
		m     Matrix
		gaps  []GapCosts
	}
	schemes := []scheme{
		{bio.DNA, DefaultDNAMatrix(), []GapCosts{DefaultDNAGaps(), {Open: 0, Extend: 1}, {Open: 2, Extend: 1}, {Open: 0, Extend: 2}}},
		{bio.DNA, &DNAMatrix{Match: 2, Mismatch: -3}, []GapCosts{{Open: 5, Extend: 2}}},
		{bio.Protein, Blosum62(), []GapCosts{DefaultProteinGaps(), {Open: 0, Extend: 1}, {Open: 9, Extend: 2}}},
	}
	var sc alignScratch
	trials := 4000
	if testing.Short() {
		trials = 800
	}
	for trial := 0; trial < trials; trial++ {
		sch := schemes[trial%len(schemes)]
		gaps := sch.gaps[rng.Intn(len(sch.gaps))]
		q, s := randomAlignPair(rng, g, sch.alpha)
		pad := []int{0, 1, 3, 8, 64}[rng.Intn(5)]
		if d := abs(len(q) - len(s)); d > 0 && rng.Intn(10) == 0 {
			pad = -1 - rng.Intn(d) // band narrower than the length difference
		}
		wantScore, wantOps, wantErr := bandedGlobalAlignRef(q, s, sch.m, gaps, pad)
		withOps := trial%2 == 0
		score, st, err := sc.align(q, s, sch.m, gaps, pad, withOps)
		where := fmt.Sprintf("trial %d (%s, gaps %+v, pad %d, %dx%d)", trial, sch.m.Name(), gaps, pad, len(q), len(s))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%s: err = %v, reference %v", where, err, wantErr)
		}
		if err != nil {
			continue
		}
		if score != wantScore {
			t.Fatalf("%s: score = %d, reference %d", where, score, wantScore)
		}
		if want := alignmentStats(q, s, wantOps); st != want {
			t.Fatalf("%s: stats = %+v, reference %+v", where, st, want)
		}
		if withOps && string(sc.ops) != string(wantOps) {
			t.Fatalf("%s: ops = %s, reference %s", where, sc.ops, wantOps)
		}
	}
}

// extendGappedUnbounded is extendGapped with the whole subject prefix
// reversed for the left half-extension and the reference X-drop, the
// reference for the bounded reversal.
func extendGappedUnbounded(q []byte, qloBound, qhiBound int, s []byte, qseed, sseed int, m Matrix, gaps GapCosts, xdrop int) gappedResult {
	rScore, rq, rs := xdropHalfRef(q[qseed:qhiBound], s[sseed:], m, gaps, xdrop)
	lq := appendReversed(nil, q[qloBound:qseed])
	ls := appendReversed(nil, s[:sseed])
	lScore, lqe, lse := xdropHalfRef(lq, ls, m, gaps, xdrop)
	return gappedResult{
		score: rScore + lScore,
		qlo:   qseed - lqe,
		qhi:   qseed + rq,
		slo:   sseed - lse,
		shi:   sseed + rs,
	}
}

// TestExtendGappedBoundedReversalMatchesUnbounded: reversing only the
// reachable part of the subject prefix must not change any gapped
// extension. Queries are mutated windows of long subjects, seeded near
// both subject ends and in the middle, with X-drops from tight to loose
// (large enough that the window reaches the bounded copy's edge).
func TestExtendGappedBoundedReversalMatchesUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5521))
	g := bio.NewGenerator(bio.SynthParams{Seed: 5522})
	type scheme struct {
		alpha bio.Alphabet
		m     Matrix
		gaps  GapCosts
	}
	schemes := []scheme{
		{bio.DNA, DefaultDNAMatrix(), DefaultDNAGaps()},
		{bio.DNA, DefaultDNAMatrix(), GapCosts{Open: 0, Extend: 1}},
		{bio.Protein, Blosum62(), DefaultProteinGaps()},
	}
	var sc gapScratch
	for trial := 0; trial < 600; trial++ {
		sch := schemes[trial%len(schemes)]
		encode := bio.EncodeDNA
		subj := g.RandomDNA("s", 3000+rng.Intn(3000))
		if sch.alpha == bio.Protein {
			encode = bio.EncodeProtein
			subj = g.RandomProtein("s", 3000+rng.Intn(3000))
		}
		s := encode(subj.Letters)
		qlen := 50 + rng.Intn(400)
		var start int
		switch trial % 3 {
		case 0:
			start = rng.Intn(40) // near the subject's start
		case 1:
			start = len(s) - qlen - rng.Intn(40) // near its end
		default:
			start = rng.Intn(len(s) - qlen)
		}
		win := &bio.Sequence{ID: "w", Letters: subj.Letters[start : start+qlen]}
		q := encode(g.Mutate(win, "q", 0.1, 0.02, sch.alpha).Letters)
		qseed := rng.Intn(len(q))
		sseed := min(len(s)-1, max(0, start+qseed+rng.Intn(7)-3))
		xdrop := []int{5, 20, 60, 400}[rng.Intn(4)]
		want := extendGappedUnbounded(q, 0, len(q), s, qseed, sseed, sch.m, sch.gaps, xdrop)
		sc.useMatrix(sch.m)
		got := extendGapped(q, 0, len(q), s, qseed, sseed, sch.gaps, xdrop, &sc)
		if got != want {
			t.Fatalf("trial %d (%s, xdrop %d, qseed %d, sseed %d of %d): got %+v, unbounded %+v",
				trial, sch.m.Name(), xdrop, qseed, sseed, len(s), got, want)
		}
	}
}

// flatMatrix is a DNA scoring scheme whose best score is not positive, the
// case where the narrow-band bound must clamp MaxScore at 0.
type flatMatrix struct{ match, mismatch int }

func (m flatMatrix) Score(a, b byte) int {
	if a == b {
		return m.match
	}
	return m.mismatch
}
func (m flatMatrix) MaxScore() int          { return max(m.match, m.mismatch) }
func (m flatMatrix) MinScore() int          { return min(m.match, m.mismatch) }
func (m flatMatrix) Name() string           { return fmt.Sprintf("flat(%d/%d)", m.match, m.mismatch) }
func (m flatMatrix) Alphabet() bio.Alphabet { return bio.DNA }

// TestCertifiedBandMatchesReference: alignExact must return exactly the
// pad-64 answer — the reference aligner's score, path and statistics, and
// the rolling-row aligner's at pad 64 — whatever hint it is given: none
// (0), one far below the optimum, the optimum itself, and one above it
// (which makes the first narrow pass fail its certificate). Pairs are
// mutated copies at 60–100% identity with indels, unrelated pairs (whose
// low scores force the pad-64 fallback), pairs whose path strays far from
// the main diagonal, and lengths 0 and 1, over DNA, BLOSUM62 and matrices
// whose best score is 0 or negative, with and without ops.
func TestCertifiedBandMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4411))
	g := bio.NewGenerator(bio.SynthParams{Seed: 4412})
	type scheme struct {
		alpha bio.Alphabet
		m     Matrix
		gaps  []GapCosts
	}
	schemes := []scheme{
		{bio.DNA, DefaultDNAMatrix(), []GapCosts{DefaultDNAGaps(), {Open: 0, Extend: 1}, {Open: 2, Extend: 1}}},
		{bio.Protein, Blosum62(), []GapCosts{DefaultProteinGaps(), {Open: 0, Extend: 1}}},
		{bio.DNA, flatMatrix{0, -1}, []GapCosts{{Open: 1, Extend: 1}, {Open: 0, Extend: 1}}},
		{bio.DNA, flatMatrix{-1, -3}, []GapCosts{DefaultDNAGaps()}},
		// A pair scores below two gap residues, so the best paths avoid the
		// diagonal: only the clamp keeps the bound an upper bound here.
		{bio.DNA, flatMatrix{-5, -6}, []GapCosts{{Open: 0, Extend: 1}}},
	}
	var sc alignScratch
	trials := 2000
	if testing.Short() {
		trials = 400
	}
	narrow, fallback := 0, 0
	for trial := 0; trial < trials; trial++ {
		sch := schemes[trial%len(schemes)]
		gaps := sch.gaps[rng.Intn(len(sch.gaps))]
		encode := bio.EncodeDNA
		base := func(l int) *bio.Sequence { return g.RandomDNA("s", l) }
		if sch.alpha == bio.Protein {
			encode = bio.EncodeProtein
			base = func(l int) *bio.Sequence { return g.RandomProtein("s", l) }
		}
		var q, s []byte
		switch kind := rng.Intn(10); {
		case kind < 6: // a read of a reference window
			seq := base(1 + rng.Intn(450))
			mut := g.Mutate(seq, "m", rng.Float64()*0.4, rng.Float64()*0.04, sch.alpha)
			q, s = encode(seq.Letters), encode(mut.Letters)
		case kind < 7: // unrelated
			q, s = encode(base(rng.Intn(300)).Letters), encode(base(rng.Intn(300)).Letters)
		case kind < 8: // an insertion near one end, a deletion near the other
			seq := encode(base(100 + rng.Intn(300)).Letters)
			k := 1 + rng.Intn(40)
			q = seq[k:]
			s = append(append([]byte{}, seq[:len(seq)-k]...), encode(base(rng.Intn(3)).Letters)...)
		default: // lengths 0 and 1
			q = encode(base(rng.Intn(2)).Letters)
			s = encode(base(rng.Intn(3)).Letters)
		}
		if rng.Intn(2) == 0 {
			q, s = s, q
		}
		wantScore, wantOps, wantErr := bandedGlobalAlignRef(q, s, sch.m, gaps, alignPad)
		if wantErr != nil {
			t.Fatalf("trial %d: reference failed at pad %d: %v", trial, alignPad, wantErr)
		}
		hint := []int{0, wantScore / 3, wantScore, wantScore + 1 + rng.Intn(20)}[rng.Intn(4)]
		withOps := rng.Intn(2) == 0
		score, st, err := sc.alignExact(q, s, sch.m, gaps, hint, withOps)
		where := fmt.Sprintf("trial %d (%s, gaps %+v, hint %d, optimum %d, %dx%d)", trial, sch.m.Name(), gaps, hint, wantScore, len(q), len(s))
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if score != wantScore {
			t.Fatalf("%s: score = %d, reference %d", where, score, wantScore)
		}
		if want := alignmentStats(q, s, wantOps); st != want {
			t.Fatalf("%s: stats = %+v, reference %+v", where, st, want)
		}
		if withOps && string(sc.ops) != string(wantOps) {
			t.Fatalf("%s: ops = %s, reference %s", where, sc.ops, wantOps)
		}
		var full alignScratch
		if fs, fst, _ := full.align(q, s, sch.m, gaps, alignPad, false); fs != score || fst != st {
			t.Fatalf("%s: pad-%d aligner = (%d, %+v), certified (%d, %+v)", where, alignPad, fs, fst, score, st)
		}
		// Classify the trial: did the optimum certify a narrow band?
		if len(q) > 0 && len(s) > 0 {
			b := newBandBound(len(q), len(s), sch.m, gaps)
			if p := b.pad(wantScore); p < alignPad {
				narrow++
			} else {
				fallback++
			}
		}
	}
	t.Logf("%d trials certified a narrow band, %d fell back to pad %d", narrow, fallback, alignPad)
	// Pairs where the pad-p optimum equals U(p) and a path leaving the band
	// ties it, which the pad-64 traceback prefers: accepting a pass whose
	// score only reaches U(p) would change the path. Every hint from none
	// to well above the optimum steers some pass onto that boundary.
	ties := []struct {
		q, s []byte
		gaps GapCosts
	}{
		{[]byte{0, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0}, []byte{0, 0, 1, 1, 0, 1, 0, 1, 1, 1, 0}, GapCosts{Open: 0, Extend: 1}},
		{[]byte{0, 0, 0, 1, 0, 1, 1, 0, 0, 1}, []byte{1, 0, 0, 0, 0, 1, 0, 1, 0, 0}, GapCosts{Open: 0, Extend: 1}},
		{[]byte{1, 1, 1, 0, 1, 0, 1, 0}, []byte{1, 1, 0, 1, 0, 1, 1, 0, 1, 0, 0}, GapCosts{Open: 3, Extend: 1}},
		{[]byte{0, 0, 1, 1}, []byte{1, 1, 1, 0, 0}, GapCosts{Open: 1, Extend: 1}},
	}
	for _, tc := range ties {
		q, s, m, gaps := tc.q, tc.s, DefaultDNAMatrix(), tc.gaps
		wantScore, wantOps, _ := bandedGlobalAlignRef(q, s, m, gaps, alignPad)
		for hint := 0; hint <= max(wantScore, 0)+20; hint++ {
			score, _, err := sc.alignExact(q, s, m, gaps, hint, true)
			if err != nil || score != wantScore || string(sc.ops) != string(wantOps) {
				t.Fatalf("tie pair %v/%v (gaps %+v), hint %d: (%d, %s, %v), reference (%d, %s)", q, s, gaps, hint, score, sc.ops, err, wantScore, wantOps)
			}
		}
	}
	// Both paths must be exercised for the comparison to mean anything.
	if narrow < trials/4 || fallback < trials/50 {
		t.Fatalf("coverage: %d trials certified a narrow band, %d fell back to pad %d", narrow, fallback, alignPad)
	}
}
