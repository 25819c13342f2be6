package blast

import (
	"fmt"
	"math/bits"

	"repro/internal/bio"
)

// Lookup is a word lookup table over a QuerySet: it maps a subject word to
// the concatenated-query positions whose words match (exactly for DNA;
// within the neighborhood threshold for protein).
type Lookup interface {
	// W is the word size.
	W() int
	// Positions returns the query concat positions registered for the word
	// starting at subject[pos]; ok is false when the window is not a valid
	// word (e.g. it spans masked or out-of-alphabet letters).
	Positions(subject []byte, pos int) (positions []int32, ok bool)
	// NewScanner returns a fresh streaming scanner over this lookup. Each
	// scanner owns its own rolling state, so an engine can keep one per
	// search without re-deriving the word at every position.
	NewScanner() Scanner
}

// Scanner streams the word hits of one subject in position order. It
// maintains the current word incrementally — one shift-in per residue
// instead of re-reading all w bytes per window — so a full subject scan is
// O(len) rather than O(len·w). Scanners keep no heap state per call; Reset
// makes one reusable across subjects.
type Scanner interface {
	// Reset points the scanner at a new subject and rewinds it.
	Reset(subject []byte)
	// Next returns the next subject position whose word has at least one
	// registered query position, with those positions. ok is false when the
	// subject is exhausted.
	Next() (spos int, positions []int32, ok bool)
}

// maskedCode marks soft-masked residues in encoded sequences; lookup
// building and word scanning skip windows containing it, but extensions run
// through it using the unmasked residue (see maskApply).
const maskedCode = 0xFE

// DNALookup is an exact-match lookup for 2-bit DNA words, the blastn
// contiguous-word seeding strategy. The cell store is a flat open-addressed
// hash table (power-of-two buckets, linear probing) whose cells are (offset,
// length) windows into one shared positions arena: one probe and one slice
// header per lookup, no per-word heap node to chase.
type DNALookup struct {
	w    int
	mask uint64

	// Open-addressed table. keys holds word+1 so 0 can mean "empty slot"
	// (words fit in 2w <= 62 bits, so the +1 cannot wrap). cellOff/cellLen
	// describe slot i's window of the positions arena.
	keys      []uint64
	cellOff   []int32
	cellLen   []int32
	positions []int32
	shift     uint // hash shift: 64 - log2(len(keys))
	nwords    int
	wins      []dnaWindow // build scratch, kept for the next build
}

// hashMul is the 64-bit golden-ratio multiplier (Fibonacci hashing); the
// high bits of word*hashMul index the power-of-two table.
const hashMul = 0x9E3779B97F4A7C15

// NewDNALookup builds the lookup from every valid w-length window of the
// query set.
func NewDNALookup(qs *QuerySet, w int) (*DNALookup, error) {
	lk := new(DNALookup)
	if err := lk.build(qs, w); err != nil {
		return nil, err
	}
	return lk, nil
}

// build fills the table from the query set, reusing the storage of the
// table's previous build where it is large enough.
func (lk *DNALookup) build(qs *QuerySet, w int) error {
	if qs.Alpha != bio.DNA {
		return fmt.Errorf("blast: DNA lookup needs DNA queries, got %v", qs.Alpha)
	}
	if w < 4 || w > 31 {
		return fmt.Errorf("blast: DNA word size must be in 4..31, got %d", w)
	}
	lk.w = w
	lk.mask = (uint64(1) << (2 * w)) - 1
	lk.nwords = 0

	// Upper bound on registered windows sizes the table at load factor
	// <= 0.5 (distinct words <= total windows).
	nwin := 0
	for _, c := range qs.Contexts {
		if c.Len >= w {
			nwin += c.Len - w + 1
		}
	}
	size := 1
	for size < 2*nwin {
		size <<= 1
	}
	lk.keys = resized(lk.keys, size)
	lk.cellOff = resized(lk.cellOff, size)
	lk.cellLen = resized(lk.cellLen, size)
	lk.shift = uint(64 - bits.TrailingZeros(uint(size)))

	// Pass 1: insert every distinct word, counting its occurrences, and
	// remember each window's slot so pass 2 need not hash again.
	lk.wins = lk.wins[:0]
	lk.eachWord(qs, func(word uint64, start int32) {
		slot := lk.insert(word)
		lk.cellLen[slot]++
		lk.wins = append(lk.wins, dnaWindow{slot: int32(slot), start: start})
	})

	// Prefix-sum the counts into arena offsets, then reset the counts so
	// pass 2 can reuse cellLen as the fill cursor. Filling in a second
	// sequential pass preserves each word's position order exactly as the
	// map-based build appended them — required for byte-identical hits.
	total := int32(0)
	for i, n := range lk.cellLen {
		lk.cellOff[i] = total
		total += n
		lk.cellLen[i] = 0
	}
	lk.positions = resized(lk.positions, int(total))
	for _, win := range lk.wins {
		lk.positions[lk.cellOff[win.slot]+lk.cellLen[win.slot]] = win.start
		lk.cellLen[win.slot]++
	}
	return nil
}

// dnaWindow is one query window of a lookup build: its table slot and its
// concat start.
type dnaWindow struct{ slot, start int32 }

// eachWord walks every valid w-window of the query contexts with the same
// rolling 2-bit word the scanner uses, invoking fn(word, concatStart).
func (lk *DNALookup) eachWord(qs *QuerySet, fn func(word uint64, start int32)) {
	w := lk.w
	for _, c := range qs.Contexts {
		var word uint64
		valid := 0
		for i := 0; i < c.Len; i++ {
			code := qs.Concat[c.Start+i]
			if code > 3 {
				valid = 0
				word = 0
				continue
			}
			word = (word<<2 | uint64(code)) & lk.mask
			valid++
			if valid >= w {
				fn(word, int32(c.Start+i-w+1))
			}
		}
	}
}

// insert returns the slot of word, claiming an empty slot on first sight.
func (lk *DNALookup) insert(word uint64) int {
	key := word + 1
	tmask := len(lk.keys) - 1
	i := int((word * hashMul) >> lk.shift)
	for {
		k := lk.keys[i]
		if k == key {
			return i
		}
		if k == 0 {
			lk.keys[i] = key
			lk.nwords++
			return i
		}
		i = (i + 1) & tmask
	}
}

// find returns the positions registered for word, or nil.
func (lk *DNALookup) find(word uint64) []int32 {
	key := word + 1
	tmask := len(lk.keys) - 1
	i := int((word * hashMul) >> lk.shift)
	for {
		k := lk.keys[i]
		if k == key {
			off := lk.cellOff[i]
			return lk.positions[off : off+lk.cellLen[i]]
		}
		if k == 0 {
			return nil
		}
		i = (i + 1) & tmask
	}
}

// W implements Lookup.
func (lk *DNALookup) W() int { return lk.w }

// Positions implements Lookup.
func (lk *DNALookup) Positions(subject []byte, pos int) ([]int32, bool) {
	var word uint64
	for i := 0; i < lk.w; i++ {
		code := subject[pos+i]
		if code > 3 {
			return nil, false
		}
		word = word<<2 | uint64(code)
	}
	return lk.find(word), true
}

// NewScanner implements Lookup.
func (lk *DNALookup) NewScanner() Scanner { return &dnaScanner{lk: lk} }

// NumWords reports the number of distinct words registered (for tests and
// diagnostics).
func (lk *DNALookup) NumWords() int { return lk.nwords }

// dnaScanner rolls a 2-bit word across the subject: shift in one code,
// mask, and reset the valid-run counter on out-of-alphabet bytes. Each
// residue costs one shift and one probe of the flat table.
type dnaScanner struct {
	lk    *DNALookup
	subj  []byte
	next  int // next residue index to consume
	word  uint64
	valid int
}

// Reset implements Scanner.
func (sc *dnaScanner) Reset(subject []byte) {
	sc.subj = subject
	sc.next = 0
	sc.word = 0
	sc.valid = 0
}

// Next implements Scanner.
func (sc *dnaScanner) Next() (int, []int32, bool) {
	lk := sc.lk
	w, mask := lk.w, lk.mask
	subj := sc.subj
	word, valid := sc.word, sc.valid
	for i := sc.next; i < len(subj); i++ {
		code := subj[i]
		if code > 3 {
			word, valid = 0, 0
			continue
		}
		word = (word<<2 | uint64(code)) & mask
		valid++
		if valid >= w {
			if ps := lk.find(word); len(ps) > 0 {
				sc.next, sc.word, sc.valid = i+1, word, valid
				return i - w + 1, ps, true
			}
		}
	}
	sc.next, sc.word, sc.valid = len(subj), word, valid
	return 0, nil, false
}

// ProteinLookup is a neighborhood lookup for protein words: a subject word
// matches a query position when the matrix score between the words is at
// least the neighborhood threshold T (NCBI's blastp seeding).
type ProteinLookup struct {
	w     int
	cells [][]int32
}

// DefaultNeighborThreshold is the blastp default word threshold (T=11).
const DefaultNeighborThreshold = 11

// NewProteinLookup builds the neighborhood lookup over the 20 standard
// residues. Query windows containing non-standard letters (X, B, Z, *) or
// masked residues are skipped, as NCBI does.
func NewProteinLookup(qs *QuerySet, w int, m Matrix, threshold int) (*ProteinLookup, error) {
	lk := new(ProteinLookup)
	if err := lk.build(qs, w, m, threshold); err != nil {
		return nil, err
	}
	return lk, nil
}

// build fills the table from the query set, keeping each cell's capacity
// from the table's previous build.
func (lk *ProteinLookup) build(qs *QuerySet, w int, m Matrix, threshold int) error {
	if qs.Alpha != bio.Protein {
		return fmt.Errorf("blast: protein lookup needs protein queries, got %v", qs.Alpha)
	}
	if w != 2 && w != 3 {
		return fmt.Errorf("blast: protein word size must be 2 or 3, got %d", w)
	}
	ncells := 1
	for i := 0; i < w; i++ {
		ncells *= bio.ProteinAlphabetSize
	}
	lk.w = w
	if len(lk.cells) != ncells {
		lk.cells = make([][]int32, ncells)
	}
	for i := range lk.cells {
		lk.cells[i] = lk.cells[i][:0]
	}

	// rowMax[a] is the best score achievable against residue a, used to
	// prune the neighborhood enumeration.
	var rowMax [20]int
	for a := 0; a < 20; a++ {
		best := m.Score(byte(a), 0)
		for b := 1; b < 20; b++ {
			if s := m.Score(byte(a), byte(b)); s > best {
				best = s
			}
		}
		rowMax[a] = best
	}

	word := make([]byte, w)
	var add func(qword []byte, depth, score, cellIndex, qpos int)
	add = func(qword []byte, depth, score, cellIndex, qpos int) {
		if depth == w {
			if score >= threshold {
				lk.cells[cellIndex] = append(lk.cells[cellIndex], int32(qpos))
			}
			return
		}
		// Upper bound on the remaining score.
		bound := 0
		for d := depth + 1; d < w; d++ {
			bound += rowMax[qword[d]]
		}
		for b := 0; b < 20; b++ {
			s := score + m.Score(qword[depth], byte(b))
			if s+bound < threshold {
				continue
			}
			word[depth] = byte(b)
			add(qword, depth+1, s, cellIndex*bio.ProteinAlphabetSize+b, qpos)
		}
	}

	for _, c := range qs.Contexts {
		for i := 0; i+w <= c.Len; i++ {
			qword := qs.Concat[c.Start+i : c.Start+i+w]
			okWindow := true
			for _, code := range qword {
				if code >= 20 { // non-standard or masked
					okWindow = false
					break
				}
			}
			if !okWindow {
				continue
			}
			add(qword, 0, 0, 0, c.Start+i)
		}
	}
	return nil
}

// W implements Lookup.
func (lk *ProteinLookup) W() int { return lk.w }

// Positions implements Lookup.
func (lk *ProteinLookup) Positions(subject []byte, pos int) ([]int32, bool) {
	idx := 0
	for i := 0; i < lk.w; i++ {
		code := subject[pos+i]
		if code >= bio.ProteinAlphabetSize {
			return nil, false
		}
		idx = idx*bio.ProteinAlphabetSize + int(code)
	}
	return lk.cells[idx], true
}

// NewScanner implements Lookup.
func (lk *ProteinLookup) NewScanner() Scanner {
	pow := 1
	for i := 0; i < lk.w-1; i++ {
		pow *= bio.ProteinAlphabetSize
	}
	return &proteinScanner{lk: lk, powW1: pow}
}

// NumEntries reports the total number of (word, position) entries (for
// tests and diagnostics).
func (lk *ProteinLookup) NumEntries() int {
	n := 0
	for _, c := range lk.cells {
		n += len(c)
	}
	return n
}

// proteinScanner maintains the base-24 cell index incrementally: subtract
// the leaving residue's high digit, multiply by the alphabet size, add the
// entering residue — O(1) per position instead of re-deriving the w-digit
// index.
type proteinScanner struct {
	lk    *ProteinLookup
	powW1 int // ProteinAlphabetSize^(w-1)
	subj  []byte
	next  int
	idx   int
	valid int
}

// Reset implements Scanner.
func (sc *proteinScanner) Reset(subject []byte) {
	sc.subj = subject
	sc.next = 0
	sc.idx = 0
	sc.valid = 0
}

// Next implements Scanner.
func (sc *proteinScanner) Next() (int, []int32, bool) {
	lk := sc.lk
	w := lk.w
	subj := sc.subj
	idx, valid := sc.idx, sc.valid
	for i := sc.next; i < len(subj); i++ {
		code := subj[i]
		if code >= bio.ProteinAlphabetSize {
			idx, valid = 0, 0
			continue
		}
		if valid == w {
			// Window full: retire the residue leaving on the left. It is
			// guaranteed in-alphabet — it was one of the last w accepted.
			idx -= int(subj[i-w]) * sc.powW1
		} else {
			valid++
		}
		idx = idx*bio.ProteinAlphabetSize + int(code)
		if valid == w {
			if ps := lk.cells[idx]; len(ps) > 0 {
				sc.next, sc.idx, sc.valid = i+1, idx, valid
				return i - w + 1, ps, true
			}
		}
	}
	sc.next, sc.idx, sc.valid = len(subj), idx, valid
	return 0, nil, false
}
