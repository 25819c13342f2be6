// Package comm is the communication-accounting subsystem: per-rank,
// lock-cheap accumulators that record every point-to-point message and
// collective leg the mpi runtime moves — (src, dst, tag, phase, bytes,
// queue-time, transfer-time) — and merge at Finalize into a world-level
// comm matrix keyed by (src, dst, phase).
//
// The matrix is the observed baseline the ROADMAP's pluggable transport is
// judged against: FitAlphaBeta regresses the recorded (bytes → latency)
// samples into the α–β (startup, bandwidth) cost model of Sanders'
// "Connecting MapReduce Computations to Realistic Machine Models", per link
// and globally, with residuals so a poor fit is visible as such.
//
// Design mirrors the rest of internal/obs: a nil *Tracker hands out nil
// *Rank handles whose methods no-op in a few nanoseconds (CI gates the
// disabled path at ≤5ns alongside the tracer's), and an enabled rank only
// ever touches its own accumulator, so accounting adds no cross-rank
// contention on the hot paths.
package comm

import (
	"sync"
	"sync/atomic"
	"time"
)

// sampleCap bounds the (bytes, latency) regression samples kept per link.
// Past the cap the stride doubles and older samples are decimated, exactly
// like the obs histogram reservoir, keeping a spread across the whole run
// in bounded memory.
const sampleCap = 256

// Tracker accumulates communication records for one world. Create with
// NewTracker, pass to mpi.RunOptions.Comm, and read the merged Matrix after
// the run (or concurrently: Matrix snapshots under the per-rank locks).
type Tracker struct {
	start time.Time
	mu    sync.Mutex
	ranks []*Rank
}

// NewTracker creates an empty tracker. Rank handles are created on demand,
// so the world size need not be known up front.
func NewTracker() *Tracker {
	return &Tracker{start: time.Now()}
}

// Now is the tracker's clock: nanoseconds since the tracker was created.
// Message timestamps (sentAt, receive start) all come from this clock so
// queue and transfer times subtract cleanly.
func (t *Tracker) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.start))
}

// Rank returns the accumulator handle for rank r, creating it if needed.
// A nil tracker returns a nil handle, which is a valid no-op receiver.
func (t *Tracker) Rank(r int) *Rank {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.ranks) <= r {
		t.ranks = append(t.ranks, &Rank{
			rank: len(t.ranks),
			sent: map[linkKey]*sentAcc{},
			rcvd: map[linkKey]*recvAcc{},
		})
	}
	return t.ranks[r]
}

// linkKey identifies one peer/phase bucket inside a rank's accumulator. On
// the send side peer is the destination; on the receive side it is the
// source.
type linkKey struct {
	peer  int
	phase string
}

// sentAcc counts send-side traffic for one (dst, phase). maxSeq is the
// highest provenance seq stamped on a message in this bucket — seqs are
// per-(src,dst)-link ordinals assigned by the mpi runtime, so across a
// pair's phase buckets the max equals the total messages the link ever
// carried, which Matrix uses to cross-check the two sides' counters.
type sentAcc struct {
	msgs, bytes int64
	maxSeq      uint64
}

// recvAcc accumulates delivered traffic for one (src, phase): counts, the
// latency sums the matrix reports, and the decimated regression samples.
type recvAcc struct {
	msgs, bytes            int64
	queueNS, transferNS    int64
	maxQueueNS             int64
	maxSeq                 uint64
	samples                []Sample
	sampleStride, sampleAt int64
}

func (a *recvAcc) addSample(s Sample) {
	if a.sampleStride == 0 {
		a.sampleStride = 1
	}
	if a.sampleAt%a.sampleStride == 0 {
		if len(a.samples) == sampleCap {
			// Full: drop every other sample and double the stride, so the
			// kept set stays spread over the whole run.
			for i := 0; i < sampleCap/2; i++ {
				a.samples[i] = a.samples[2*i]
			}
			a.samples = a.samples[:sampleCap/2]
			a.sampleStride *= 2
		}
		if a.sampleAt%a.sampleStride == 0 {
			a.samples = append(a.samples, s)
		}
	}
	a.sampleAt++
}

// Rank is one rank's accumulator. The owning rank calls SetPhase,
// RecordSend and RecordRecv; Matrix merges under mu. All methods are
// nil-safe no-ops so disabled worlds pay only a nil check.
type Rank struct {
	rank  int
	phase atomic.Pointer[string]
	mu    sync.Mutex
	sent  map[linkKey]*sentAcc
	rcvd  map[linkKey]*recvAcc
}

// SetPhase labels subsequent sends from this rank with the given phase
// (mrmpi calls it at every phase transition). Receives are labeled with the
// *sender's* phase, stamped on the message, so both sides of a link bucket
// consistently.
func (r *Rank) SetPhase(phase string) {
	if r == nil {
		return
	}
	r.phase.Store(&phase)
}

// Phase returns the rank's current phase label ("" before the first
// SetPhase).
func (r *Rank) Phase() string {
	if r == nil {
		return ""
	}
	if p := r.phase.Load(); p != nil {
		return *p
	}
	return ""
}

// RecordSend accounts one message handed to dst's mailbox under this rank's
// current phase. tag is accepted for symmetry with the recorded tuple but
// only negative/non-negative (collective vs p2p) would distinguish buckets;
// traffic is keyed by (peer, phase), which subsumes the distinction in
// practice because collectives run in their own phases. seq is the
// message's provenance ordinal on its (src, dst) link (0 when the runtime
// has no seq counters, i.e. both tracing and comm accounting are off —
// never the case on this path in practice).
func (r *Rank) RecordSend(dst, tag int, bytes int64, seq uint64) {
	if r == nil {
		return
	}
	r.recordSend(dst, bytes, seq)
}

// recordSend is RecordSend's enabled path, kept out of line so the nil
// check above inlines into the MPI send path.
func (r *Rank) recordSend(dst int, bytes int64, seq uint64) {
	k := linkKey{peer: dst, phase: r.Phase()}
	r.mu.Lock()
	a := r.sent[k]
	if a == nil {
		a = &sentAcc{}
		r.sent[k] = a
	}
	a.msgs++
	a.bytes += bytes
	if seq > a.maxSeq {
		a.maxSeq = seq
	}
	r.mu.Unlock()
}

// RecordRecv accounts one delivered message from src. phase is the sender's
// phase as stamped on the message; queueNS is delivery time minus send time
// (time spent buffered in the mailbox plus the receiver's lag), transferNS
// is delivery time minus the receiver's matching start (time the receiver
// actually waited inside Recv/Wait for this message; 0 for a Test poll that
// found it already queued). seq is the sender-stamped provenance ordinal
// (see RecordSend).
func (r *Rank) RecordRecv(src, tag int, bytes int64, queueNS, transferNS int64, seq uint64, phase string) {
	if r == nil {
		return
	}
	r.recordRecv(src, bytes, queueNS, transferNS, seq, phase)
}

// recordRecv is RecordRecv's enabled path, kept out of line so the nil
// check above inlines into the MPI receive path.
func (r *Rank) recordRecv(src int, bytes int64, queueNS, transferNS int64, seq uint64, phase string) {
	k := linkKey{peer: src, phase: phase}
	r.mu.Lock()
	a := r.rcvd[k]
	if a == nil {
		a = &recvAcc{}
		r.rcvd[k] = a
	}
	a.msgs++
	a.bytes += bytes
	a.queueNS += queueNS
	a.transferNS += transferNS
	if queueNS > a.maxQueueNS {
		a.maxQueueNS = queueNS
	}
	if seq > a.maxSeq {
		a.maxSeq = seq
	}
	a.addSample(Sample{Bytes: bytes, LatencyNS: queueNS})
	r.mu.Unlock()
}

// Finalize merges the per-rank accumulators into the world-level matrix.
// It is a snapshot, not a reset: calling it mid-run is safe and reflects
// traffic recorded so far. Matrix is an alias kept for call sites that read
// better one way or the other.
func (t *Tracker) Finalize() *Matrix { return t.Matrix() }

// Matrix merges and returns the world-level comm matrix. Nil tracker
// returns nil.
func (t *Tracker) Matrix() *Matrix {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	ranks := make([]*Rank, len(t.ranks))
	copy(ranks, t.ranks)
	t.mu.Unlock()

	type pairKey struct {
		src, dst int
		phase    string
	}
	links := map[pairKey]*Link{}
	get := func(k pairKey) *Link {
		l := links[k]
		if l == nil {
			l = &Link{Src: k.src, Dst: k.dst, Phase: k.phase}
			links[k] = l
		}
		return l
	}
	numRanks := len(ranks)
	for _, r := range ranks {
		r.mu.Lock()
		for k, a := range r.sent {
			l := get(pairKey{src: r.rank, dst: k.peer, phase: k.phase})
			l.SentMsgs += a.msgs
			l.SentBytes += a.bytes
			if a.maxSeq > l.MaxSeqSent {
				l.MaxSeqSent = a.maxSeq
			}
			if k.peer+1 > numRanks {
				numRanks = k.peer + 1
			}
		}
		for k, a := range r.rcvd {
			l := get(pairKey{src: k.peer, dst: r.rank, phase: k.phase})
			l.Msgs += a.msgs
			l.Bytes += a.bytes
			l.QueueNS += a.queueNS
			l.TransferNS += a.transferNS
			if a.maxQueueNS > l.MaxQueueNS {
				l.MaxQueueNS = a.maxQueueNS
			}
			if a.maxSeq > l.MaxSeqRcvd {
				l.MaxSeqRcvd = a.maxSeq
			}
			l.Samples = append(l.Samples, a.samples...)
			if k.peer+1 > numRanks {
				numRanks = k.peer + 1
			}
		}
		r.mu.Unlock()
	}
	m := &Matrix{NumRanks: numRanks}
	for _, l := range links {
		m.Links = append(m.Links, *l)
	}
	m.sort()
	return m
}
