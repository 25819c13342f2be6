package blast

import (
	"fmt"
	"strings"

	"repro/internal/bio"
)

// cloneWithScore returns a copy of h with the raw score replaced, leaving
// the caller's HSP untouched.
func cloneWithScore(h *HSP, score int) *HSP {
	c := *h
	c.Score = score
	return &c
}

// RenderAlignment recomputes the alignment path of an HSP and renders a
// BLAST-style pairwise text block:
//
//	Query  1    ACGTACGT-ACGT  12
//	            |||| |||  |||
//	Sbjct  101  ACGTTCGTAACGT  113
//
// query and subject are the full original sequences the HSP refers to (the
// minus strand is handled by reverse-complementing the query segment).
// width is the residues per line (default 60). The midline marks identities
// with '|'; for protein alignments, positive substitution scores with '+'.
//
// The segments are coded exactly as the engine searched them: DNA encoding
// replaces an ambiguity letter by a code derived from its position in the
// whole sequence, so each sequence is encoded from its start and then
// sliced. The midline compares those codes, so its identities are the
// HSP's; the sequence lines show an ambiguity letter as 'N'.
func RenderAlignment(h *HSP, query, subject *bio.Sequence, m Matrix, gaps GapCosts, width int) (string, error) {
	if width <= 0 {
		width = 60
	}
	if h.QEnd > query.Len() || h.SEnd > subject.Len() || h.QStart < 0 || h.SStart < 0 {
		return "", fmt.Errorf("blast: HSP coordinates outside sequences")
	}
	alpha := m.Alphabet()
	qcodes, qshow := renderSegment(query.Letters, h.QStart, h.QEnd, alpha)
	scodes, sshow := renderSegment(subject.Letters, h.SStart, h.SEnd, alpha)
	if alpha == bio.DNA && h.Strand < 0 {
		qcodes = bio.ReverseComplementCodes(qcodes)
		qshow = bio.ReverseComplement(qshow)
	}
	var aln alignScratch
	score, _, err := aln.alignExact(qcodes, scodes, m, gaps, h.Score, true)
	if err != nil {
		return "", err
	}
	ops := aln.ops
	// Hits parsed back from TSV carry no raw score; fill it from the
	// recomputed path so the header stays informative.
	if h.Score == 0 {
		h = cloneWithScore(h, score)
	}

	qline := make([]byte, 0, len(ops))
	mid := make([]byte, 0, len(ops))
	sline := make([]byte, 0, len(ops))
	qi, si := 0, 0
	for _, op := range ops {
		switch op {
		case OpMatch:
			qc, sc := qcodes[qi], scodes[si]
			qline = append(qline, qshow[qi])
			sline = append(sline, sshow[si])
			switch {
			case qc == sc:
				mid = append(mid, '|')
			case alpha == bio.Protein && m.Score(qc, sc) > 0:
				mid = append(mid, '+')
			default:
				mid = append(mid, ' ')
			}
			qi++
			si++
		case OpInsQ:
			qline = append(qline, qshow[qi])
			mid = append(mid, ' ')
			sline = append(sline, '-')
			qi++
		case OpInsS:
			qline = append(qline, '-')
			mid = append(mid, ' ')
			sline = append(sline, sshow[si])
			si++
		}
	}

	// Coordinate walkers. BLAST convention: 1-based inclusive; on the minus
	// strand the query coordinates run backwards.
	var qpos, qstep int
	if h.Strand >= 0 {
		qpos, qstep = h.QStart+1, 1
	} else {
		qpos, qstep = h.QEnd, -1
	}
	spos := h.SStart + 1

	var b strings.Builder
	fmt.Fprintf(&b, "%s vs %s  score=%d bits=%.1f E=%.2g identities=%d/%d (%.0f%%)\n\n",
		h.QueryID, h.SubjectID, h.Score, h.BitScore, h.EValue,
		h.Identities, h.AlignLen, h.PercentIdentity())
	for start := 0; start < len(qline); start += width {
		end := min(start+width, len(qline))
		qchunk := qline[start:end]
		schunk := sline[start:end]

		qFrom := qpos
		for _, c := range qchunk {
			if c != '-' {
				qpos += qstep
			}
		}
		qTo := qpos - qstep
		sFrom := spos
		for _, c := range schunk {
			if c != '-' {
				spos++
			}
		}
		sTo := spos - 1

		fmt.Fprintf(&b, "Query  %-6d %s  %d\n", qFrom, qchunk, qTo)
		fmt.Fprintf(&b, "       %-6s %s\n", "", mid[start:end])
		fmt.Fprintf(&b, "Sbjct  %-6d %s  %d\n\n", sFrom, schunk, sTo)
	}
	return b.String(), nil
}

// renderSegment returns the codes of letters[from:to] as the engine encodes
// the whole sequence, and the letters to display for them: the decoded
// codes, except that a DNA ambiguity letter shows as 'N' rather than as
// the base its code stands for.
func renderSegment(letters []byte, from, to int, alpha bio.Alphabet) (codes, show []byte) {
	if alpha == bio.Protein {
		codes = bio.EncodeProtein(letters[from:to])
		return codes, bio.DecodeProtein(codes)
	}
	codes = bio.EncodeDNA(letters[:to])[from:]
	return codes, bio.CleanDNA(letters[from:to])
}
