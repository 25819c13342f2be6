package blast

import "fmt"

// AlignStats summarizes a gapped alignment path.
type AlignStats struct {
	// Identities is the number of identical aligned residue pairs.
	Identities int
	// Mismatches is the number of differing aligned residue pairs.
	Mismatches int
	// Gaps is the total number of gap positions (residues opposite gaps).
	Gaps int
	// AlignLen is the alignment length including gap columns.
	AlignLen int
}

// EditOp is one traceback operation.
type EditOp byte

const (
	// OpMatch aligns one residue of each sequence (match or mismatch).
	OpMatch EditOp = 'M'
	// OpInsQ consumes a query residue opposite a gap.
	OpInsQ EditOp = 'Q'
	// OpInsS consumes a subject residue opposite a gap.
	OpInsS EditOp = 'S'
)

// Packed backpointer layout: one byte per band cell records, for each of
// the three layers, the layer the cell's best value came from (0=M, 1=E,
// 2=F) — M in bits 0-1, E in bits 2-3, F in bits 4-5.
const (
	backFromE   = 1 << 2 // E extended a vertical gap (else opened from M)
	backFromF   = 2 << 4 // F extended a horizontal gap (else opened from M)
	backEShift  = 2
	backFShift  = 4
	backLayerMk = 3
)

// bandCell is one band cell's score in each DP layer: M (last op
// diagonal), E (gap consuming q) and F (gap consuming s).
type bandCell struct{ m, e, f int }

// alignScratch holds the reusable buffers of the banded global aligner: two
// rolling band rows of three-layer cells, one packed backpointer byte per
// band cell, and the substitution-score profile of the subject for each
// distinct query code. Once the buffers have grown to the largest band seen, an alignment
// allocates nothing. The Engine owns one next to its gapScratch; it is not
// safe for concurrent use.
type alignScratch struct {
	rows  []bandCell // the previous and the current band row, width+1 cells each
	back  []byte     // (nq+1) × width packed backpointers
	prof  []int      // one len(s) row of Score(c, s[j]) per distinct query code c
	slot  [256]int32 // profile row of code c, plus one; 0 = not profiled
	codes []byte     // the codes profiled by the current call
	// ops is the alignment path of the last call made with withOps, in
	// alignment order. It aliases scratch storage until the next call.
	ops []EditOp
}

// alignPad is the band padding that defines a reported HSP's statistics and
// rendered path: align at this pad is the answer alignExact reproduces.
const alignPad = 64

// alignExact returns exactly what align(q, s, m, gaps, alignPad, withOps)
// returns — score, statistics, ops and error — usually from a narrower
// band. hint is a score some path of the alignment is believed to reach
// (an HSP's X-drop score); hint <= 0 means none is known. A pass at pad p
// is accepted only when its score exceeds bandBound's U(p), which
// certifies that no path leaving the pad-p band can tie or beat it (see
// DESIGN §9). A rejected pass's score is itself a reachable score, so the
// next pass at the pad it certifies always succeeds: at most two narrow
// passes run before the pad-alignPad fallback.
func (sc *alignScratch) alignExact(q, s []byte, m Matrix, gaps GapCosts, hint int, withOps bool) (int, AlignStats, error) {
	if len(q) > 0 && len(s) > 0 && gaps.Open >= 0 && gaps.Extend > 0 {
		b := newBandBound(len(q), len(s), m, gaps)
		p := 0
		if hint > 0 {
			p = b.pad(hint)
		}
		for p < alignPad {
			score, st, err := sc.align(q, s, m, gaps, p, withOps)
			if err != nil {
				break
			}
			if score > b.bound(p) {
				return score, st, nil
			}
			p = b.pad(score)
		}
	}
	return sc.align(q, s, m, gaps, alignPad, withOps)
}

// bandBound bounds the score of any path that leaves a narrow band. With
// δ = |nq−ns| and mn = min(nq, ns), a path that leaves the pad-p band
// (|j−i| ≤ δ+p) must go at least δ+p+1 diagonals to one side of the main
// diagonal and come back to end on diagonal ±δ: it has both gap kinds, at
// least δ+2p+2 gap residues and at most mn−p−1 aligned pairs, so it scores
// at most
//
//	U(p) = M·(mn−p−1) − 2·Open − Extend·(δ+2p+2),  M = max(MaxScore, 0).
//
// U falls by M + 2·Extend per unit of p.
type bandBound struct {
	u0, step int // U(0) and the per-pad decrease
}

func newBandBound(nq, ns int, m Matrix, gaps GapCosts) bandBound {
	mx := max(m.MaxScore(), 0)
	return bandBound{
		u0:   mx*(min(nq, ns)-1) - 2*gaps.Open - gaps.Extend*(abs(nq-ns)+2),
		step: mx + 2*gaps.Extend,
	}
}

// bound is U(p).
func (b bandBound) bound(p int) int { return b.u0 - b.step*p }

// pad is the smallest p >= 0 with U(p) < score.
func (b bandBound) pad(score int) int {
	if b.u0 < score {
		return 0
	}
	return (b.u0-score)/b.step + 1
}

// align aligns q against s end-to-end with affine gaps inside a diagonal
// band and returns the optimal score and the statistics of its path. The
// band half-width is |len(q)-len(s)| + pad, enough for any path whose gap
// total is within pad of the minimum; it recovers alignment statistics for
// an HSP whose rectangle is already fixed by the X-drop extension. With
// withOps the path is also left in sc.ops for rendering.
//
// The three-layer recurrence (M: last op diagonal, E: gap consuming q, F:
// gap consuming s) keeps only the previous and the current band row; the traceback runs over the packed backpointers and counts the
// statistics as it goes. Ties prefer M, then E, then F.
func (sc *alignScratch) align(q, s []byte, m Matrix, gaps GapCosts, pad int, withOps bool) (int, AlignStats, error) {
	sc.ops = sc.ops[:0]
	nq, ns := len(q), len(s)
	if nq == 0 || ns == 0 {
		// Degenerate: pure gap alignment.
		score, op := 0, OpInsQ
		if nq > 0 {
			score = -(gaps.Open + gaps.Extend*nq)
		} else if ns > 0 {
			score, op = -(gaps.Open + gaps.Extend*ns), OpInsS
		}
		if withOps {
			for x := 0; x < nq+ns; x++ {
				sc.ops = append(sc.ops, op)
			}
		}
		return score, AlignStats{Gaps: nq + ns, AlignLen: nq + ns}, nil
	}
	// Band: row i holds columns [i-half, i+half] ∩ [0, ns]; cell (i, j)
	// lives at band offset j-i+half of its row.
	half := abs(nq-ns) + pad
	width := 2*half + 1
	if endOff := ns - nq + half; endOff < 0 || endOff >= width {
		return 0, AlignStats{}, fmt.Errorf("blast: band too narrow for %dx%d alignment", nq, ns)
	}
	openExt := gaps.Open + gaps.Extend
	ext := gaps.Extend

	rw := width + 1
	if cap(sc.rows) < 2*rw {
		sc.rows = make([]bandCell, 2*rw)
	}
	prev, cur := sc.rows[:rw], sc.rows[rw:2*rw]
	for x := range sc.rows[:2*rw] {
		sc.rows[x] = bandCell{negInf, negInf, negInf}
	}
	// Offset width is outside the band. Only the vertical (E) recurrence
	// reaches it, from the row's last cell when that cell sits on the band
	// edge; this sentinel makes that cell's E exactly negInf, opened from
	// M, as if it had not been computed.
	prev[width] = bandCell{m: negInf + openExt, e: negInf + ext, f: negInf}
	cur[width] = prev[width]

	if n := (nq + 1) * width; cap(sc.back) < n {
		sc.back = make([]byte, n)
	}
	back := sc.back[:(nq+1)*width]
	prof := sc.profile(q, s, m)

	// Row 0 (the current row until the first swap): the empty query prefix
	// against s[:j], reachable only by a horizontal gap opened at (0, 0).
	cur[half].m = 0
	back[half] = 0
	for j := 1; j <= min(ns, half); j++ {
		cur[half+j].f = -(gaps.Open + gaps.Extend*j)
		back[half+j] = 0
		if j > 1 {
			back[half+j] = backFromF
		}
	}

	for i := 1; i <= nq; i++ {
		prev, cur = cur, prev
		lo, hi := max(0, i-half), min(ns, i+half)
		off := lo - i + half
		brow := back[i*width : (i+1)*width]
		f, bf := negInf, byte(0) // F of cell (i, lo), from its left neighbour
		if lo == 0 {
			// Column 0: only a vertical gap reaches it.
			open, x := prev[off+1].m-openExt, prev[off+1].e-ext
			cur[off] = bandCell{m: negInf, e: max(open, x), f: negInf}
			brow[off] = gapBack(open, x, backFromE)
			lo, off = 1, off+1
			open, x = negInf-openExt, negInf-ext
			f, bf = max(open, x), gapBack(open, x, backFromF)
		}
		// Offsets [off, off+n) of this row hold columns [lo, hi]; the
		// profile row is indexed by column-1.
		n := hi - lo + 1
		ps := prof[int(sc.slot[q[i-1]]-1)*ns+lo-1:][:n]
		bandRow(cur[off:off+n], prev[off:off+n+1], brow[off:off+n], ps, f, bf, openExt, ext)
	}

	end := cur[ns-nq+half]
	layer, best := 0, end.m
	if end.e > best {
		best, layer = end.e, 1
	}
	if end.f > best {
		best, layer = end.f, 2
	}
	if best <= negInf/2 {
		return 0, AlignStats{}, fmt.Errorf("blast: no path within band for %dx%d alignment", nq, ns)
	}

	// Traceback, counting the statistics on the way.
	var st AlignStats
	i, j := nq, ns
	for i > 0 || j > 0 {
		off := j - i + half
		if off < 0 || off >= width {
			return 0, AlignStats{}, fmt.Errorf("blast: traceback left the band at (%d,%d)", i, j)
		}
		b := back[i*width+off]
		st.AlignLen++
		switch layer {
		case 0:
			layer = int(b & backLayerMk)
			i--
			j--
			if q[i] == s[j] {
				st.Identities++
			} else {
				st.Mismatches++
			}
			if withOps {
				sc.ops = append(sc.ops, OpMatch)
			}
		case 1:
			layer = int(b >> backEShift & backLayerMk)
			i--
			st.Gaps++
			if withOps {
				sc.ops = append(sc.ops, OpInsQ)
			}
		case 2:
			layer = int(b >> backFShift & backLayerMk)
			j--
			st.Gaps++
			if withOps {
				sc.ops = append(sc.ops, OpInsS)
			}
		}
	}
	for a, z := 0, len(sc.ops)-1; a < z; a, z = a+1, z-1 {
		sc.ops[a], sc.ops[z] = sc.ops[z], sc.ops[a]
	}
	return best, st, nil
}

// bandRow computes one band row of the three-layer recurrence: cur[k] from
// prev[k] (the cell up-left) and prev[k+1] (the cell above), with F carried
// along the row from the cell to the left, starting at (f, bf). prof[k] is
// the substitution score of cur[k]'s residue pair; back[k] receives the
// packed backpointers. Every choice is a compare on score differences, so
// the loop has no data-dependent branch except the reachability test.
func bandRow(cur, prev []bandCell, back []byte, prof []int, f int, bf byte, openExt, ext int) {
	n := len(cur)
	diag, up := prev[:n], prev[1:n+1]
	back = back[:n]
	prof = prof[:n]
	for k := 0; k < n; k++ {
		// E: gap consuming q, from the cell above.
		open, x := up[k].m-openExt, up[k].e-ext
		e, be := max(open, x), gapBack(open, x, backFromE)
		// M: diagonal, from the best layer of the cell up-left; ties
		// prefer M, then E, then F.
		dm, de, df := diag[k].m, diag[k].e, diag[k].f
		d, bm := max(dm, de), byte(uint64(dm-de)>>63)
		t := byte(uint64(d-df) >> 63)
		d, bm = max(d, df), bm&^t|t<<1
		mv := d + prof[k]
		if d <= negInf/2 {
			mv, bm = negInf, 0
		}
		cur[k] = bandCell{mv, e, f}
		back[k] = bm | be | bf
		// F of the next cell: gap consuming s, from this cell.
		open, x = mv-openExt, f-ext
		f, bf = max(open, x), gapBack(open, x, backFromF)
	}
}

// gapBack returns the backpointer bit for a gap layer whose value is
// max(open, extend): bit when extending strictly wins, 0 when opening from
// M wins or ties.
func gapBack(open, extend int, bit byte) byte {
	return byte(uint64(open-extend)>>63) * bit
}

// profile fills the score profile of s for every distinct code of q: row
// sc.slot[c]-1 holds Score(c, s[j]) for each subject position j, so the DP
// reads one slice per row instead of calling the Matrix per cell.
func (sc *alignScratch) profile(q, s []byte, m Matrix) []int {
	for _, c := range sc.codes {
		sc.slot[c] = 0
	}
	sc.codes = sc.codes[:0]
	for _, c := range q {
		if sc.slot[c] == 0 {
			sc.codes = append(sc.codes, c)
			sc.slot[c] = int32(len(sc.codes))
		}
	}
	n := len(sc.codes) * len(s)
	if cap(sc.prof) < n {
		sc.prof = make([]int, n)
	}
	prof := sc.prof[:n]
	for r, c := range sc.codes {
		row := prof[r*len(s):][:len(s)]
		for j, b := range s {
			row[j] = m.Score(c, b)
		}
	}
	return prof
}
