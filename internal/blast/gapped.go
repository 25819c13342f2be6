package blast

const negInf = -1 << 30

// gappedResult is the outcome of a bidirectional gapped X-drop extension in
// concat-query / subject coordinates (half-open ranges).
type gappedResult struct {
	score    int
	qlo, qhi int
	slo, shi int
}

// gapScratch holds the reusable buffers of a gapped extension — the two
// reversed-prefix copies and the three DP rows — so repeated extensions
// allocate nothing, plus the substitution table of the matrix in use. Every
// cell the recurrence reads is written first (the window guards bound all
// reads), so dirty reuse is safe.
type gapScratch struct {
	lq, ls                 []byte
	score, eGap, prevScore []int
	// tab is the matrix tabulated over its alphabet's nc codes: row a holds
	// Score(a, b) at tab[a*nc+b]. useMatrix fills it.
	tab []int
	nc  int
}

// useMatrix tabulates m over the codes of its alphabet (4 for DNA, 24 for
// protein), so the X-drop recurrence reads one table row per query residue
// instead of calling the Matrix per cell. It must run before the first
// extension and again whenever the matrix changes.
func (sc *gapScratch) useMatrix(m Matrix) {
	n := m.Alphabet().NumLetters()
	sc.nc = n
	sc.tab = resized(sc.tab, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			sc.tab[a*n+b] = m.Score(byte(a), byte(b))
		}
	}
}

// rows returns the three DP rows with at least width cells each.
func (sc *gapScratch) rows(width int) (score, eGap, prev []int) {
	if cap(sc.score) < width {
		sc.score = make([]int, width)
		sc.eGap = make([]int, width)
		sc.prevScore = make([]int, width)
	}
	return sc.score[:width], sc.eGap[:width], sc.prevScore[:width]
}

// extendGapped runs the BLAST stage-3 gapped X-drop extension from a seed
// point inside an ungapped HSP: two half-extensions (left of and right of
// the seed) whose scores add. The seed residue pair itself is scored in the
// right half. Residue pairs are scored by the matrix tabulated in sc.
func extendGapped(q []byte, qloBound, qhiBound int, s []byte, qseed, sseed int, gaps GapCosts, xdrop int, sc *gapScratch) gappedResult {
	// Right half includes the seed pair: align q[qseed..qhiBound) with
	// s[sseed..len).
	rScore, rq, rs := xdropHalfScratch(q[qseed:qhiBound], s[sseed:], gaps, xdrop, sc)
	// Left half: reversed prefixes, excluding the seed pair. Only the
	// subject prefix the X-drop can reach is reversed: row 0 of the DP
	// keeps at most xdrop/Extend live columns and each query row widens the
	// window by at most one, so no column past len(lq)+xdrop/Extend+1 is
	// ever read — and the width-1 cap never binds — on the bounded copy.
	sc.lq = appendReversed(sc.lq[:0], q[qloBound:qseed])
	sfrom := 0
	if gaps.Extend > 0 {
		sfrom = max(0, sseed-(len(sc.lq)+xdrop/gaps.Extend+2))
	}
	sc.ls = appendReversed(sc.ls[:0], s[sfrom:sseed])
	lScore, lqe, lse := xdropHalfScratch(sc.lq, sc.ls, gaps, xdrop, sc)
	return gappedResult{
		score: rScore + lScore,
		qlo:   qseed - lqe,
		qhi:   qseed + rq,
		slo:   sseed - lse,
		shi:   sseed + rs,
	}
}

// appendReversed appends b's bytes to dst in reverse order, reusing dst's
// capacity.
func appendReversed(dst, b []byte) []byte {
	for i := len(b) - 1; i >= 0; i-- {
		dst = append(dst, b[i])
	}
	return dst
}

// xdropHalf computes the best-scoring alignment of prefixes of q and s that
// starts at (0,0), pruning any dynamic-programming cell whose score falls
// more than xdrop below the best seen. It returns the best score and the
// prefix lengths (qext, sext) at which it is achieved.
//
// The recurrence is the affine-gap X-drop of Zhang et al. as used in NCBI's
// gapped extension: row i consumes q[i-1], column j consumes s[j-1].
func xdropHalf(q, s []byte, m Matrix, gaps GapCosts, xdrop int) (best, qext, sext int) {
	sc := new(gapScratch)
	sc.useMatrix(m)
	return xdropHalfScratch(q, s, gaps, xdrop, sc)
}

// xdropHalfScratch is xdropHalf with caller-owned DP rows, scoring with
// the matrix tabulated in sc.
func xdropHalfScratch(q, s []byte, gaps GapCosts, xdrop int, sc *gapScratch) (best, qext, sext int) {
	ext := gaps.Extend
	openExt := gaps.Open + ext
	nc := sc.nc

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
		v := -(gaps.Open + ext*j)
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
		newLo := -1
		row := sc.tab[int(q[i-1])*nc:][:nc]
		floor := best - xdrop // cells below it are pruned; rises with best

		// Column jlo-1 is dead in this row unless jlo == 0.
		if jlo == 0 {
			// Score of aligning q[0:i] against the empty subject prefix.
			v := -(gaps.Open + ext*i)
			if v >= floor {
				score[0] = v
				eGap[0] = max(eGap[0]-ext, prevScore[0]-openExt)
				newLo = 0
			} else {
				score[0] = negInf
				eGap[0] = negInf
			}
		}
		// Columns of the previous row's window: the diagonal (j-1 lies in
		// [jlo-1, jhi]), vertical and horizontal moves all reach them.
		j := max(jlo, 1)
		for ; j <= jhi; j++ {
			diag := negInf
			if p := prevScore[j-1]; p > negInf/2 {
				diag = p + row[s[j-1]]
			}
			e := max(eGap[j]-ext, prevScore[j]-openExt)
			v := max(diag, max(e, fGap))
			if v < floor {
				score[j] = negInf
				eGap[j] = negInf
				fGap = max(fGap-ext, negInf)
				continue
			}
			score[j] = v
			eGap[j] = e
			fGap = max(fGap-ext, v-openExt)
			if v > best {
				best, floor = v, v-xdrop
				qext, sext = i, j
			}
			if newLo < 0 {
				newLo = j
			}
		}
		// The edge column jhi+1: nothing lies above it, so only the
		// diagonal and the horizontal move reach it.
		if j <= newHi {
			diag := negInf
			if p := prevScore[j-1]; p > negInf/2 {
				diag = p + row[s[j-1]]
			}
			v := max(diag, fGap)
			if v < floor {
				score[j] = negInf
				eGap[j] = negInf
			} else {
				score[j] = v
				eGap[j] = negInf
				if v > best {
					best = v
					qext, sext = i, j
				}
				if newLo < 0 {
					newLo = j
				}
			}
		}
		if newLo < 0 {
			break // every cell pruned: extension is finished
		}
		// Shrink the window to the live cells.
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
