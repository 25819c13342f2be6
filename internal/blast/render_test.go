package blast

import (
	"strings"
	"testing"

	"repro/internal/bio"
)

func TestRenderAlignmentExactMatch(t *testing.T) {
	g := bio.NewGenerator(bio.SynthParams{Seed: 60})
	query := g.RandomDNA("q1", 80)
	subj := g.RandomDNA("s1", 300)
	copy(subj.Letters[100:], query.Letters)

	e := newDNAEngine(t, []*bio.Sequence{query}, nil)
	e.SetDatabaseDims(300, 1)
	hsps, err := e.SearchSubject(EncodeSubject(subj, bio.DNA))
	if err != nil || len(hsps) == 0 {
		t.Fatalf("search failed: %v, %d hits", err, len(hsps))
	}
	out, err := RenderAlignment(hsps[0], query, subj, DefaultDNAMatrix(), DefaultDNAGaps(), 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Query", "Sbjct", "q1 vs s1", "|"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	// An exact match must render an all-bar midline (no spaces between
	// bars within a line).
	lines := strings.Split(out, "\n")
	foundMid := false
	for i, line := range lines {
		if strings.HasPrefix(line, "Query") && i+1 < len(lines) {
			mid := strings.TrimSpace(lines[i+1])
			if len(mid) > 0 && strings.Count(mid, "|") == len(mid) {
				foundMid = true
			}
		}
	}
	if !foundMid {
		t.Errorf("no all-identity midline found:\n%s", out)
	}
}

func TestRenderAlignmentMinusStrand(t *testing.T) {
	g := bio.NewGenerator(bio.SynthParams{Seed: 61})
	query := g.RandomDNA("q1", 60)
	subj := g.RandomDNA("s1", 200)
	copy(subj.Letters[50:], bio.ReverseComplement(query.Letters))

	e := newDNAEngine(t, []*bio.Sequence{query}, nil)
	e.SetDatabaseDims(200, 1)
	hsps, err := e.SearchSubject(EncodeSubject(subj, bio.DNA))
	if err != nil || len(hsps) == 0 {
		t.Fatalf("search failed: %v, %d hits", err, len(hsps))
	}
	h := hsps[0]
	if h.Strand != -1 {
		t.Fatalf("expected minus-strand hit")
	}
	out, err := RenderAlignment(h, query, subj, DefaultDNAMatrix(), DefaultDNAGaps(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "|") {
		t.Errorf("minus-strand rendering has no identities:\n%s", out)
	}
}

func TestRenderAlignmentProteinPositives(t *testing.T) {
	g := bio.NewGenerator(bio.SynthParams{Seed: 62})
	target := g.RandomProtein("t", 300)
	query := g.Mutate(target, "q", 0.3, 0, bio.Protein)
	query.Letters = query.Letters[:200]

	p := DefaultProteinParams()
	e, err := NewEngine([]*bio.Sequence{query}, p)
	if err != nil {
		t.Fatal(err)
	}
	e.SetDatabaseDims(int64(target.Len()), 1)
	hsps, err := e.SearchSubject(EncodeSubject(target, bio.Protein))
	if err != nil || len(hsps) == 0 {
		t.Fatalf("search failed: %v, %d hits", err, len(hsps))
	}
	out, err := RenderAlignment(hsps[0], query, target, Blosum62(), DefaultProteinGaps(), 60)
	if err != nil {
		t.Fatal(err)
	}
	// A 30%-diverged protein alignment shows conservative substitutions.
	if !strings.Contains(out, "+") {
		t.Errorf("protein rendering has no positive substitutions:\n%s", out)
	}
}

func TestRenderAlignmentValidation(t *testing.T) {
	h := &HSP{QueryID: "q", SubjectID: "s", QStart: 0, QEnd: 50, SStart: 0, SEnd: 50, Strand: 1}
	short := &bio.Sequence{ID: "q", Letters: []byte("ACGT")}
	if _, err := RenderAlignment(h, short, short, DefaultDNAMatrix(), DefaultDNAGaps(), 60); err == nil {
		t.Error("out-of-bounds HSP accepted")
	}
}

// TestRenderAlignmentAmbiguousBases: runs of N in the query and the subject
// are coded by their position in the whole sequence, so the rendering must
// code each sequence from its start, as the engine did, for its midline to
// count the HSP's identities. The HSPs start past position 0 on both
// sequences and both strands, where coding the segment alone would differ.
func TestRenderAlignmentAmbiguousBases(t *testing.T) {
	for _, strand := range []int8{1, -1} {
		g := bio.NewGenerator(bio.SynthParams{Seed: 63})
		query := g.RandomDNA("q1", 160)
		copy(query.Letters[70:], "NNNNNNNNNNNN")
		subj := g.RandomDNA("s1", 500)
		// The subject carries the query past its first 25 bases, so the
		// HSP starts inside both sequences.
		part := query.Letters[25:]
		if strand < 0 {
			part = bio.ReverseComplement(part)
		}
		copy(subj.Letters[180:], part)
		copy(subj.Letters[230:], "NNNNNNNN")

		e := newDNAEngine(t, []*bio.Sequence{query}, nil)
		e.SetDatabaseDims(int64(subj.Len()), 1)
		hsps, err := e.SearchSubject(EncodeSubject(subj, bio.DNA))
		if err != nil {
			t.Fatal(err)
		}
		var h *HSP
		for _, x := range hsps {
			if x.Strand == strand && (h == nil || x.Score > h.Score) {
				h = x
			}
		}
		if h == nil {
			t.Fatalf("strand %+d: no hit among %d", strand, len(hsps))
		}
		if h.QStart == 0 || h.SStart == 0 || h.QEnd < 82 || h.SStart > 230 || h.SEnd < 238 {
			t.Fatalf("strand %+d: HSP %v does not span both N runs from inside the sequences", strand, h)
		}
		out, err := RenderAlignment(h, query, subj, DefaultDNAMatrix(), DefaultDNAGaps(), 60)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(out, "|"); got != h.Identities {
			t.Errorf("strand %+d: rendering shows %d identities, HSP has %d:\n%s", strand, got, h.Identities, out)
		}
		if !strings.Contains(out, "NNNN") {
			t.Errorf("strand %+d: ambiguity letters not shown as N:\n%s", strand, out)
		}
	}
}
