package blast

import (
	"fmt"

	"repro/internal/bio"
)

// Subject is one database sequence presented to the engine in encoded form
// (2-bit codes for DNA, letter codes for protein).
type Subject struct {
	// ID identifies the sequence.
	ID string
	// Codes are the encoded residues.
	Codes []byte
}

// Engine searches one block of queries against a stream of database
// subjects: the unit of work the paper's map() executes for a (query block,
// DB partition) work item. Build it once per block (or Reset it to the next
// block), then call SearchSubject for every sequence of the partition.
//
// An Engine keeps reusable scan scratch state and is NOT safe for concurrent
// use; in the parallel drivers each MPI rank owns its engine.
type Engine struct {
	params   Params
	qs       *QuerySet
	lookup   Lookup
	masked   []byte // soft-masked concat the lookup is built from
	ungapped KarlinParams
	gapped   KarlinParams

	xdropU     int // raw stage-2 X-drop
	xdropG     int // raw stage-3 X-drop
	gapTrigger int // raw minimum ungapped score for stage 3

	// searchSpaces caches the per-query effective search space; it needs
	// the database dimensions, resolved lazily on first use.
	searchSpaces []SearchSpace
	dbLen        int64
	dbSeqs       int64

	// scanner streams word hits with an incrementally maintained word; one
	// per engine, reset per subject.
	scanner Scanner

	// scan scratch, sized to the diagonal set of (concat, subject) and
	// reset per subject with an epoch stamp.
	diagEpoch  []int32
	diagValue  []int32
	diagEpoch2 []int32
	diagValue2 []int32
	epoch      int32

	// per-subject scratch reused across SearchSubject calls so the
	// steady-state scan allocates nothing (gated in CI by
	// BenchmarkSearchSubjectSteadyState).
	seeds     []seed
	cands     []cand
	keep      []bool
	cull      cullScratch
	gap       gapScratch
	aln       alignScratch
	perQEpoch []int32 // epoch stamp per query for the HSP-per-subject cap
	perQCount []int32

	// Stats accumulates scan-stage counters for diagnostics and the cost
	// model calibration.
	Stats EngineStats
}

// EngineStats counts engine activity since construction.
type EngineStats struct {
	Subjects        int64 // subjects scanned
	WordHits        int64 // lookup hits examined
	UngappedExts    int64 // stage-2 extensions run
	GappedExts      int64 // stage-3 extensions run
	HSPsReported    int64 // HSPs passing the E-value cutoff
	ResiduesScanned int64
}

// NewEngine prepares a search of the given query block. It encodes and
// (optionally) masks the queries, builds the word lookup table, and derives
// the statistical parameters.
func NewEngine(queries []*bio.Sequence, p Params) (*Engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{params: p}
	e.gap.useMatrix(p.ScoreMatrix)
	if err := e.Reset(queries); err != nil {
		return nil, err
	}
	freqs := BackgroundFreqs(p.Alpha)
	var err error
	e.ungapped, err = ComputeUngappedKarlin(p.ScoreMatrix, freqs)
	if err != nil {
		return nil, fmt.Errorf("blast: ungapped statistics: %w", err)
	}
	e.gapped = GappedKarlin(p.ScoreMatrix, p.Gaps, e.ungapped)
	e.xdropU = bitsToRaw(p.XDropUngappedBits, e.ungapped.Lambda)
	e.xdropG = bitsToRaw(p.XDropGappedBits, e.gapped.Lambda)
	e.gapTrigger = e.ungapped.RawScore(p.GapTriggerBits)
	return e, nil
}

// Reset re-targets the engine at a new query block with the same Params:
// afterwards it searches exactly as NewEngine(queries, params) would, but
// the lookup table, the per-query arrays and all scan and extension
// scratch are rebuilt into the previous block's storage instead of being
// allocated afresh. Stats restart from zero, and SetDatabaseDims must be
// called again before searching. The diagonal arrays keep their stamps:
// the epoch counter runs on, so no stamp from an earlier block can equal a
// later subject's epoch, while the per-query stamps are invalidated. On
// error the engine is unusable.
func (e *Engine) Reset(queries []*bio.Sequence) error {
	p := e.params
	qs, err := NewQuerySetStrand(queries, p.Alpha, p.Strand)
	if err != nil {
		return err
	}
	// Soft-mask a copy of the concat for lookup building.
	maskedQS := *qs
	if p.Filter {
		e.masked = append(e.masked[:0], qs.Concat...)
		for _, c := range qs.Contexts {
			region := e.masked[c.Start : c.Start+c.Len]
			var ivs []Interval
			if p.Alpha == bio.DNA {
				ivs = DustMask(region)
			} else {
				ivs = SegMask(region)
			}
			applyMask(region, ivs)
		}
		maskedQS.Concat = e.masked
	}
	switch p.Alpha {
	case bio.DNA:
		lk, ok := e.lookup.(*DNALookup)
		if !ok {
			lk = new(DNALookup)
		}
		e.lookup = lk
		err = lk.build(&maskedQS, p.WordSize)
	case bio.Protein:
		lk, ok := e.lookup.(*ProteinLookup)
		if !ok {
			lk = new(ProteinLookup)
		}
		e.lookup = lk
		err = lk.build(&maskedQS, p.WordSize, p.ScoreMatrix, p.NeighborThreshold)
	}
	if err != nil {
		return err
	}
	if e.scanner == nil {
		e.scanner = e.lookup.NewScanner()
	}
	e.qs = qs
	e.dbLen, e.dbSeqs = 0, 0
	e.searchSpaces = resized(e.searchSpaces, len(qs.IDs))
	e.perQEpoch = resized(e.perQEpoch, len(qs.IDs))
	e.perQCount = resized(e.perQCount, len(qs.IDs))
	for i := range e.perQEpoch {
		e.perQEpoch[i] = -1
	}
	e.Stats = EngineStats{}
	return nil
}

// resized returns a zeroed slice of length n, reusing s's storage when it
// is large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// bitsToRaw converts an X-drop in bits to raw score units (NCBI's
// conversion: raw = bits·ln2/lambda).
func bitsToRaw(bits, lambda float64) int {
	raw := int(bits * 0.6931471805599453 / lambda)
	if raw < 1 {
		raw = 1
	}
	return raw
}

// QuerySet exposes the engine's query block (read-only).
func (e *Engine) QuerySet() *QuerySet { return e.qs }

// UngappedParams returns the ungapped Karlin–Altschul parameters in use.
func (e *Engine) UngappedParams() KarlinParams { return e.ungapped }

// GappedParams returns the gapped Karlin–Altschul parameters in use.
func (e *Engine) GappedParams() KarlinParams { return e.gapped }

// SetDatabaseDims fixes the database dimensions used for E-value statistics.
// When Params.DBLength/DBNumSeqs are set they win (the whole-DB override);
// otherwise the values given here (e.g. the scanned partition's totals)
// apply. Must be called before SearchSubject.
func (e *Engine) SetDatabaseDims(totalResidues int64, numSeqs int64) {
	if e.params.DBLength > 0 {
		totalResidues, numSeqs = e.params.DBLength, e.params.DBNumSeqs
	}
	if totalResidues <= 0 || numSeqs <= 0 {
		panic("blast: database dimensions must be positive")
	}
	if totalResidues != e.dbLen || numSeqs != e.dbSeqs {
		e.dbLen, e.dbSeqs = totalResidues, numSeqs
		for i := range e.searchSpaces {
			e.searchSpaces[i] = SearchSpace{}
		}
	}
}

func (e *Engine) searchSpace(query int) SearchSpace {
	if e.dbLen == 0 {
		panic("blast: SetDatabaseDims must be called before searching")
	}
	ss := e.searchSpaces[query]
	if ss.EffQueryLen == 0 {
		ss = NewSearchSpace(e.gapped, e.qs.QueryLens[query], e.dbLen, e.dbSeqs)
		e.searchSpaces[query] = ss
	}
	return ss
}

// seed is a candidate gapped extension start.
type seed struct {
	ctx        int
	qlo, qhi   int
	slo, shi   int
	ungappedSc int
}

// SearchSubject scans one subject and returns every HSP passing the E-value
// cutoff, unsorted.
func (e *Engine) SearchSubject(subj Subject) ([]*HSP, error) {
	if e.dbLen == 0 {
		return nil, fmt.Errorf("blast: SetDatabaseDims must be called before searching")
	}
	w := e.lookup.W()
	if len(subj.Codes) < w {
		return nil, nil
	}
	e.Stats.Subjects++
	e.Stats.ResiduesScanned += int64(len(subj.Codes))

	ndiag := len(e.qs.Concat) + len(subj.Codes) + 1
	e.ensureScratch(ndiag)
	e.epoch++
	twoHit := e.params.TwoHitWindow > 0

	seeds := e.seeds[:0]
	concat := e.qs.Concat
	concatLen := len(concat)

	e.scanner.Reset(subj.Codes)
	for {
		spos, positions, ok := e.scanner.Next()
		if !ok {
			break
		}
		for _, qp := range positions {
			e.Stats.WordHits++
			qpos := int(qp)
			diag := spos - qpos + concatLen

			// Skip seeds inside a region already covered by an extension on
			// this diagonal.
			if e.diagEpoch[diag] == e.epoch && spos < int(e.diagValue[diag]) {
				continue
			}
			if twoHit {
				// Second-hit rule (Altschul et al. 1997, as in NCBI's
				// ungapped stage): track the END of the last hit on each
				// diagonal; overlapping hits are ignored without updating;
				// a non-overlapping hit within the window triggers the
				// extension.
				if e.diagEpoch2[diag] != e.epoch {
					e.diagEpoch2[diag] = e.epoch
					e.diagValue2[diag] = int32(spos + w)
					continue
				}
				lastEnd := int(e.diagValue2[diag])
				if spos < lastEnd {
					continue // overlaps the stored hit
				}
				e.diagValue2[diag] = int32(spos + w)
				if spos-lastEnd > e.params.TwoHitWindow {
					continue // too far: becomes the new stored hit
				}
			}

			ci := e.qs.ContextAt(qpos)
			c := e.qs.Contexts[ci]
			u := extendUngapped(concat, c.Start, c.Start+c.Len, subj.Codes,
				qpos, spos, w, e.params.ScoreMatrix, e.xdropU)
			e.Stats.UngappedExts++
			// Mark the diagonal covered through the ungapped extension end.
			e.diagEpoch[diag] = e.epoch
			e.diagValue[diag] = int32(u.shi)

			if !e.params.UngappedOnly && u.score < e.gapTrigger {
				continue
			}
			if e.params.UngappedOnly && EValue(e.ungapped, u.score, e.searchSpace(c.Query)) > e.params.EValueCutoff {
				continue
			}
			seeds = append(seeds, seed{
				ctx: ci, qlo: u.qlo, qhi: u.qhi, slo: u.slo, shi: u.shi,
				ungappedSc: u.score,
			})
		}
	}
	e.seeds = seeds // keep the grown capacity for the next subject
	if len(seeds) == 0 {
		return nil, nil
	}
	return e.finishSubject(subj, seeds)
}

func (e *Engine) ensureScratch(ndiag int) {
	if len(e.diagEpoch) < ndiag {
		e.diagEpoch = make([]int32, ndiag)
		e.diagValue = make([]int32, ndiag)
		e.diagEpoch2 = make([]int32, ndiag)
		e.diagValue2 = make([]int32, ndiag)
		e.epoch = 0
		// The epoch counter restarts, so per-query stamps from earlier
		// subjects could collide with reused epoch values; invalidate them.
		for i := range e.perQEpoch {
			e.perQEpoch[i] = -1
		}
	}
}

// cand is a gapped (or, in ungapped-only mode, ungapped) HSP candidate
// awaiting containment culling.
type cand struct {
	ctx      int
	qlo, qhi int
	slo, shi int
	score    int
}

// finishSubject runs gapped extensions for the collected seeds, culls
// redundant HSPs, computes statistics, and applies the E-value cutoff.
func (e *Engine) finishSubject(subj Subject, seeds []seed) ([]*HSP, error) {
	concat := e.qs.Concat
	cands := e.cands[:0]
	if e.params.UngappedOnly {
		for _, sd := range seeds {
			cands = append(cands, cand{
				ctx: sd.ctx, qlo: sd.qlo, qhi: sd.qhi, slo: sd.slo, shi: sd.shi,
				score: sd.ungappedSc,
			})
		}
	}
	for _, sd := range seeds {
		if e.params.UngappedOnly {
			break
		}
		c := e.qs.Contexts[sd.ctx]
		// Skip seeds whose rectangle is already inside a kept candidate:
		// the gapped extension would rediscover the same HSP.
		contained := false
		for _, k := range cands {
			if k.ctx == sd.ctx && sd.qlo >= k.qlo && sd.qhi <= k.qhi &&
				sd.slo >= k.slo && sd.shi <= k.shi {
				contained = true
				break
			}
		}
		if contained {
			continue
		}
		// Seed the gapped extension at the midpoint of the ungapped HSP.
		mid := (sd.qhi - sd.qlo) / 2
		qseed, sseed := sd.qlo+mid, sd.slo+mid
		g := extendGapped(concat, c.Start, c.Start+c.Len, subj.Codes,
			qseed, sseed, e.params.Gaps, e.xdropG, &e.gap)
		e.Stats.GappedExts++
		if g.qhi <= g.qlo || g.shi <= g.slo {
			continue
		}
		cands = append(cands, cand{
			ctx: sd.ctx, qlo: g.qlo, qhi: g.qhi, slo: g.slo, shi: g.shi,
			score: g.score,
		})
	}

	// Containment culling: drop candidates whose query and subject ranges
	// both lie inside a higher-scoring candidate on the same context.
	e.cands = cands
	e.keep = cullContained(cands, e.keep, &e.cull)
	keep := e.keep

	var hsps []*HSP
	for i, cd := range cands {
		if !keep[i] {
			continue
		}
		c := e.qs.Contexts[cd.ctx]
		ss := e.searchSpace(c.Query)
		stats := e.gapped
		if e.params.UngappedOnly {
			stats = e.ungapped
		}
		ev := EValue(stats, cd.score, ss)
		if ev > e.params.EValueCutoff {
			continue
		}
		if e.perQEpoch[c.Query] != e.epoch {
			e.perQEpoch[c.Query] = e.epoch
			e.perQCount[c.Query] = 0
		}
		if e.params.MaxHSPsPerSubject > 0 && int(e.perQCount[c.Query]) >= e.params.MaxHSPsPerSubject {
			continue
		}
		e.perQCount[c.Query]++

		// Alignment statistics via banded traceback over the HSP rectangle;
		// the extension's score is a path score inside it, the hint that
		// lets alignExact certify a narrow band.
		qseg := concat[cd.qlo:cd.qhi]
		sseg := subj.Codes[cd.slo:cd.shi]
		_, st, err := e.aln.alignExact(qseg, sseg, e.params.ScoreMatrix, e.params.Gaps, cd.score, false)
		if err != nil {
			// Band overflow on a pathological alignment: fall back to
			// length-based bounds rather than failing the search.
			st = AlignStats{AlignLen: max(len(qseg), len(sseg))}
		}

		qstart, qend := e.qs.QueryCoords(cd.ctx, cd.qlo, cd.qhi)
		h := &HSP{
			QueryID:    e.qs.IDs[c.Query],
			SubjectID:  subj.ID,
			Strand:     c.Strand,
			QStart:     qstart,
			QEnd:       qend,
			SStart:     cd.slo,
			SEnd:       cd.shi,
			Score:      cd.score,
			BitScore:   stats.BitScore(cd.score),
			EValue:     ev,
			Identities: st.Identities,
			Gaps:       st.Gaps,
			AlignLen:   st.AlignLen,
		}
		if hsps == nil {
			// One allocation for the result: the candidates left bound
			// the HSPs still to come.
			hsps = make([]*HSP, 0, len(cands)-i)
		}
		hsps = append(hsps, h)
		e.Stats.HSPsReported++
	}
	return hsps, nil
}

// SearchSubjects scans a batch of subjects and returns all passing HSPs,
// sorted in report order.
func (e *Engine) SearchSubjects(subjects []Subject) ([]*HSP, error) {
	var all []*HSP
	for _, s := range subjects {
		hsps, err := e.SearchSubject(s)
		if err != nil {
			return nil, err
		}
		all = append(all, hsps...)
	}
	SortHSPs(all)
	return all, nil
}

// EncodeSubject converts an ASCII sequence into a Subject for the engine's
// alphabet.
func EncodeSubject(s *bio.Sequence, alpha bio.Alphabet) Subject {
	var codes []byte
	if alpha == bio.DNA {
		codes = bio.EncodeDNA(s.Letters)
	} else {
		codes = bio.EncodeProtein(s.Letters)
	}
	return Subject{ID: s.ID, Codes: codes}
}

// EncodeSubjectInto is EncodeSubject in append style: the codes land in
// buf's storage (grown as needed) and the grown buffer is returned
// alongside the Subject, so a scan loop encoding one database sequence per
// iteration reuses a single buffer instead of allocating per sequence. The
// returned Subject aliases the buffer and is only valid until the next
// encode into it.
func EncodeSubjectInto(s *bio.Sequence, alpha bio.Alphabet, buf []byte) (Subject, []byte) {
	buf = buf[:0]
	if alpha == bio.DNA {
		buf = bio.AppendEncodeDNA(buf, s.Letters)
	} else {
		buf = bio.AppendEncodeProtein(buf, s.Letters)
	}
	return Subject{ID: s.ID, Codes: buf}, buf
}
