package blast

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bio"
)

// xdropHalfRef is the gapped X-drop half-extension as first written, the
// reference the table-driven xdropHalfScratch must reproduce: it calls the
// Matrix once per cell and tests every diagonal read against the previous
// row's window.
func xdropHalfRef(q, s []byte, m Matrix, gaps GapCosts, xdrop int) (best, qext, sext int) {
	var sc gapScratch
	openExt := gaps.Open + gaps.Extend

	// score[j]: best alignment score ending at (i, j); eGap[j]: best ending
	// with a gap that consumes q (vertical). Window [jlo, jhi] holds the
	// live columns of the previous row.
	width := len(s) + 1
	score, eGap, prevScore := sc.rows(width)

	best = 0
	qext, sext = 0, 0
	score[0] = 0
	eGap[0] = negInf
	jhi := 0
	for j := 1; j < width; j++ {
		v := -(gaps.Open + gaps.Extend*j)
		if v < -xdrop {
			break
		}
		score[j] = v
		eGap[j] = negInf
		jhi = j
	}
	jlo := 0

	for i := 1; i <= len(q); i++ {
		// Double-buffer the score rows instead of copying: every cell the
		// recurrence reads from prevScore lies in [jlo-1, jhi], which the
		// previous iteration wrote (row i-1 writes [jlo, newHi] ⊇ the next
		// row's read window), so the swapped-in row's stale cells are never
		// observed. A copy here is O(len(s)) per row — the dominant cost on
		// long subjects with a narrow live band.
		score, prevScore = prevScore, score
		// Columns left of the live window are dead; kill the one cell the
		// diagonal recurrence can reach so stale values never leak in.
		if jlo >= 1 {
			prevScore[jlo-1] = negInf
		}
		// The window may grow one column to the right via the diagonal.
		newHi := min(jhi+1, width-1)
		fGap := negInf
		rowBestSet := false
		newLo := -1
		qc := q[i-1]

		// Column jlo-1 is dead in this row unless jlo == 0.
		if jlo == 0 {
			// Score of aligning q[0:i] against the empty subject prefix.
			v := -(gaps.Open + gaps.Extend*i)
			if v >= best-xdrop {
				score[0] = v
				eGap[0] = max(eGap[0]-gaps.Extend, prevScore[0]-openExt)
				newLo = 0
				rowBestSet = true
			} else {
				score[0] = negInf
				eGap[0] = negInf
			}
		}
		for j := max(jlo, 1); j <= newHi; j++ {
			diag := negInf
			if j-1 <= jhi && j-1 >= jlo-1 {
				if prevScore[j-1] > negInf/2 {
					diag = prevScore[j-1] + m.Score(qc, s[j-1])
				}
			}
			e := negInf
			if j <= jhi {
				e = max(eGap[j]-gaps.Extend, prevScore[j]-openExt)
			}
			f := fGap
			v := max(diag, max(e, f))
			if v < best-xdrop {
				score[j] = negInf
				eGap[j] = negInf
				fGap = max(fGap-gaps.Extend, negInf)
				continue
			}
			score[j] = v
			eGap[j] = e
			fGap = max(f-gaps.Extend, v-openExt)
			if v > best {
				best = v
				qext, sext = i, j
			}
			if newLo < 0 {
				newLo = j
			}
			rowBestSet = true
		}
		if !rowBestSet {
			break // every cell pruned: extension is finished
		}
		// Shrink the window to the live cells.
		if newLo < 0 {
			break
		}
		jlo = newLo
		jhi = newHi
		for jhi > jlo && score[jhi] <= negInf/2 {
			jhi--
		}
		for jlo < jhi && score[jlo] <= negInf/2 {
			jlo++
		}
		if jhi == width-1 && jlo == width-1 && score[jhi] <= negInf/2 {
			break
		}
	}
	return best, qext, sext
}

// TestXdropHalfMatchesReference: the table-driven X-drop must return the
// reference's best score and extension lengths over DNA and BLOSUM62
// inputs — related pairs (mutated copies with indels, the shape of a real
// extension), unrelated pairs and empty sides — with X-drops from 1 to
// beyond any score the inputs reach, and assorted gap costs including
// Open=0. One scratch serves every trial and is re-tabulated whenever the
// matrix changes, so dirty reuse is covered too.
func TestXdropHalfMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7141))
	g := bio.NewGenerator(bio.SynthParams{Seed: 7142})
	type scheme struct {
		alpha bio.Alphabet
		m     Matrix
		gaps  []GapCosts
	}
	schemes := []scheme{
		{bio.DNA, DefaultDNAMatrix(), []GapCosts{DefaultDNAGaps(), {Open: 0, Extend: 1}, {Open: 2, Extend: 1}}},
		{bio.DNA, &DNAMatrix{Match: 2, Mismatch: -3}, []GapCosts{{Open: 5, Extend: 2}}},
		{bio.Protein, Blosum62(), []GapCosts{DefaultProteinGaps(), {Open: 0, Extend: 1}, {Open: 9, Extend: 2}}},
	}
	var sc gapScratch
	trials := 3000
	if testing.Short() {
		trials = 600
	}
	for trial := 0; trial < trials; trial++ {
		sch := schemes[trial%len(schemes)]
		gaps := sch.gaps[rng.Intn(len(sch.gaps))]
		encode := bio.EncodeDNA
		base := func(l int) *bio.Sequence { return g.RandomDNA("s", l) }
		if sch.alpha == bio.Protein {
			encode = bio.EncodeProtein
			base = func(l int) *bio.Sequence { return g.RandomProtein("s", l) }
		}
		seq := base(rng.Intn(600))
		other := g.Mutate(seq, "m", rng.Float64()*0.3, rng.Float64()*0.05, sch.alpha)
		if rng.Intn(4) == 0 {
			other = base(rng.Intn(600))
		}
		q, s := encode(seq.Letters), encode(other.Letters)
		switch rng.Intn(10) {
		case 0:
			q = q[:0]
		case 1:
			s = s[:0]
		}
		xdrop := []int{1, 2, 5, 16, 40, 120, 1000, 1 << 20}[rng.Intn(8)]
		wb, wq, ws := xdropHalfRef(q, s, sch.m, gaps, xdrop)
		sc.useMatrix(sch.m)
		b, qe, se := xdropHalfScratch(q, s, gaps, xdrop, &sc)
		if b != wb || qe != wq || se != ws {
			where := fmt.Sprintf("trial %d (%s, gaps %+v, xdrop %d, %dx%d)", trial, sch.m.Name(), gaps, xdrop, len(q), len(s))
			t.Fatalf("%s: got (%d, %d, %d), reference (%d, %d, %d)", where, b, qe, se, wb, wq, ws)
		}
	}
}
