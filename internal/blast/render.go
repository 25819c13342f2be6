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
func RenderAlignment(h *HSP, query, subject *bio.Sequence, m Matrix, gaps GapCosts, width int) (string, error) {
	if width <= 0 {
		width = 60
	}
	if h.QEnd > query.Len() || h.SEnd > subject.Len() || h.QStart < 0 || h.SStart < 0 {
		return "", fmt.Errorf("blast: HSP coordinates outside sequences")
	}
	alpha := m.Alphabet()
	var qcodes []byte
	qseg := query.Letters[h.QStart:h.QEnd]
	if alpha == bio.DNA {
		qcodes = bio.EncodeDNA(qseg)
		if h.Strand < 0 {
			qcodes = bio.ReverseComplementCodes(qcodes)
		}
	} else {
		qcodes = bio.EncodeProtein(qseg)
	}
	var scodes []byte
	sseg := subject.Letters[h.SStart:h.SEnd]
	if alpha == bio.DNA {
		scodes = bio.EncodeDNA(sseg)
	} else {
		scodes = bio.EncodeProtein(sseg)
	}
	var aln alignScratch
	score, _, err := aln.align(qcodes, scodes, m, gaps, 64, true)
	if err != nil {
		return "", err
	}
	ops := aln.ops
	// Hits parsed back from TSV carry no raw score; fill it from the
	// recomputed path so the header stays informative.
	if h.Score == 0 {
		h = cloneWithScore(h, score)
	}

	decode := bio.DecodeDNA
	if alpha == bio.Protein {
		decode = bio.DecodeProtein
	}
	qline := make([]byte, 0, len(ops))
	mid := make([]byte, 0, len(ops))
	sline := make([]byte, 0, len(ops))
	qi, si := 0, 0
	for _, op := range ops {
		switch op {
		case OpMatch:
			qc, sc := qcodes[qi], scodes[si]
			qline = append(qline, decode([]byte{qc})[0])
			sline = append(sline, decode([]byte{sc})[0])
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
			qline = append(qline, decode([]byte{qcodes[qi]})[0])
			mid = append(mid, ' ')
			sline = append(sline, '-')
			qi++
		case OpInsS:
			qline = append(qline, '-')
			mid = append(mid, ' ')
			sline = append(sline, decode([]byte{scodes[si]})[0])
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
