package mpi

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Status describes a received message.
type Status struct {
	// Source is the sending rank.
	Source int
	// Tag is the message tag.
	Tag int
}

// Send delivers data to rank dst with the given tag. It is buffered (never
// blocks), matching MPI_Send on an eager-protocol transport. Tags must be
// non-negative; negative tags are reserved for collectives.
func (c *Comm) Send(dst, tag int, data any) {
	if tag < 0 {
		panic(fmt.Sprintf("mpi: user tags must be non-negative, got %d", tag))
	}
	c.send(dst, tag, data)
}

func (c *Comm) send(dst, tag int, data any) {
	c.sendOp("Send", dst, tag, data)
}

// sendOp is the buffered delivery core shared by Send, the collectives, and
// Isend; op labels the trace instant.
func (c *Comm) sendOp(op string, dst, tag int, data any) {
	w := c.world
	if dst < 0 || dst >= w.size {
		panic(fmt.Sprintf("mpi: %s to invalid rank %d (size %d)", op, dst, w.size))
	}
	// Payload size feeds four optional subsystems; size it once when any is
	// on, never when all are off.
	var nb int64
	if w.tracers != nil || w.mSends != nil || w.commRanks != nil || w.flightRanks != nil {
		nb = payloadBytes(data)
	}
	m := message{src: c.rank, tag: tag, data: data}
	c.stampProvenance(&m, dst)
	if tr := c.Tracer(); tr != nil {
		tr.Instant("mpi", op,
			obs.Arg{Key: "dst", Val: dst}, obs.Arg{Key: "tag", Val: tag},
			obs.Arg{Key: "bytes", Val: nb},
			obs.Arg{Key: "seq", Val: int64(m.seq)}, obs.Arg{Key: "span", Val: int64(m.span)})
	}
	if w.mSends != nil {
		w.mSends.Inc()
		w.mSendBytes.Add(nb)
	}
	if cr := c.CommRank(); cr != nil {
		// Stamp the sender's clock and phase so the receiver can compute
		// queue time and attribute the traffic to the phase that sent it.
		m.phase = cr.Phase()
		m.sentAt = w.comm.Now()
		cr.RecordSend(dst, tag, nb, m.seq)
	}
	if fr := c.FlightRank(); fr != nil {
		fr.Notef("send", "%s dst=%d tag=%d bytes=%d", op, dst, tag, nb)
	}
	b := w.boxes[dst]
	b.mu.Lock()
	if b.aborted {
		b.mu.Unlock()
		panic(ErrAborted)
	}
	b.queue = append(b.queue, m)
	b.cond.Broadcast()
	b.mu.Unlock()
}

// stampProvenance fills m's causal header — the message's ordinal on its
// (src, dst) link and the sender's innermost open span id. The receive side
// echoes both into its trace events, giving the causal stitcher an exact
// cross-rank edge instead of a FIFO guess. The disabled path (no tracing,
// no comm accounting) is two nil checks; the CI overhead gate pins it at
// <=5ns per send.
func (c *Comm) stampProvenance(m *message, dst int) {
	if w := c.world; w.seqs != nil || w.tracers != nil {
		c.stamp(m, dst)
	}
}

// stamp is stampProvenance's enabled path, kept out of line so the nil
// checks above inline into sendOp.
func (c *Comm) stamp(m *message, dst int) {
	w := c.world
	if w.seqs != nil {
		m.seq = w.seqs[c.rank*w.size+dst].Add(1)
	}
	if tr := c.Tracer(); tr != nil {
		m.span = tr.CurrentSpanID()
	}
}

// Recv blocks until a message matching (src, tag) arrives and returns its
// payload. src may be AnySource and tag may be AnyTag. Matching follows MPI
// semantics: among pending messages, the earliest-enqueued match is
// delivered, and messages between a fixed (source, tag) pair never overtake
// one another.
func (c *Comm) Recv(src, tag int) (any, Status) {
	return c.recvMatch("Recv", src, tag, userMatch(src, tag))
}

// userMatch builds the public-API matcher for (src, tag), honoring the
// AnySource/AnyTag wildcards and keeping AnyTag away from internal
// (negative-tag) collective traffic. Shared by Recv and Irecv.
func userMatch(src, tag int) func(*message) bool {
	if tag == AnyTag {
		return func(m *message) bool {
			return (src == AnySource || m.src == src) && m.tag >= 0
		}
	}
	return func(m *message) bool {
		return (src == AnySource || m.src == src) && m.tag == tag
	}
}

// recv matches an exact (src, tag) pair, including internal negative tags.
func (c *Comm) recv(src, tag int) (any, Status) {
	return c.recvMatch("Recv", src, tag, func(m *message) bool {
		return m.src == src && m.tag == tag
	})
}

// recvMatch is the blocking receive core. op labels the trace span (Recv or
// a Request's Wait); src and tag are diagnostic only — match decides
// delivery.
func (c *Comm) recvMatch(op string, src, tag int, match func(*message) bool) (any, Status) {
	var sp obs.Span
	if tr := c.Tracer(); tr != nil {
		sp = tr.Begin("mpi", op,
			obs.Arg{Key: "src", Val: src}, obs.Arg{Key: "tag", Val: tag})
	}
	defer sp.End()
	c.world.mRecvs.Inc()
	// Comm accounting: note when matching started, so delivery minus start
	// is the time this rank actually waited for the message (its transfer
	// time on the eager transport).
	cr := c.CommRank()
	var matchStart int64
	if cr != nil {
		matchStart = c.world.comm.Now()
	}
	b := c.world.boxes[c.rank]
	timeout := c.world.timeout
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var watchdog *time.Timer
	defer func() {
		if watchdog != nil {
			watchdog.Stop()
		}
	}()
	for {
		if b.aborted {
			panic(ErrAborted)
		}
		for i := range b.queue {
			if match(&b.queue[i]) {
				m := b.queue[i]
				b.queue = append(b.queue[:i], b.queue[i+1:]...)
				var mb int64
				if sp.Active() || cr != nil || c.world.flightRanks != nil {
					mb = payloadBytes(m.data)
				}
				if sp.Active() {
					// The End args carry the matched source plus the
					// sender's piggybacked provenance (link seq + sender
					// span id), which the causal stitcher pairs with the
					// matching Send instant to build an exact cross-rank
					// edge; the deferred End below becomes a no-op.
					sp.End(obs.Arg{Key: "from", Val: m.src},
						obs.Arg{Key: "tag", Val: m.tag},
						obs.Arg{Key: "bytes", Val: mb},
						obs.Arg{Key: "seq", Val: int64(m.seq)},
						obs.Arg{Key: "sspan", Val: int64(m.span)})
				}
				if cr != nil {
					now := c.world.comm.Now()
					cr.RecordRecv(m.src, m.tag, mb, now-m.sentAt, now-matchStart, m.seq, m.phase)
				}
				if fr := c.FlightRank(); fr != nil {
					fr.Notef("recv", "%s src=%d tag=%d bytes=%d", op, m.src, m.tag, mb)
				}
				return m.data, Status{Source: m.src, Tag: m.tag}
			}
		}
		if timeout > 0 && time.Now().After(deadline) {
			// debugStatus names each rank's collective fingerprint under
			// mpidebug builds; traceStatus names each rank's in-flight span
			// when tracing is enabled; boardStatus shows each rank's live
			// progress; flightDump leaves the full post-mortem file. Any of
			// them points at the laggard rank.
			panic(fmt.Errorf("mpi: rank %d Recv timed out after %v (likely deadlock)%s%s%s%s: %w",
				c.rank, timeout, c.debugStatus(), c.world.traceStatus(), c.world.boardStatus(),
				c.world.flightDump(fmt.Sprintf("rank %d Recv timed out after %v (likely deadlock)", c.rank, timeout)),
				ErrAborted))
		}
		if timeout > 0 && watchdog == nil {
			// Wake the cond at the deadline so the timeout check above
			// runs; stopped on return so successful receives leave no
			// lingering timers.
			watchdog = time.AfterFunc(time.Until(deadline), func() {
				b.mu.Lock()
				b.cond.Broadcast()
				b.mu.Unlock()
			})
		}
		b.cond.Wait()
	}
}

// Probe reports whether a message matching (src, tag) is pending, without
// receiving it.
func (c *Comm) Probe(src, tag int) (bool, Status) {
	b := c.world.boxes[c.rank]
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range b.queue {
		m := &b.queue[i]
		if (src == AnySource || m.src == src) && (tag == AnyTag && m.tag >= 0 || m.tag == tag) {
			return true, Status{Source: m.src, Tag: m.tag}
		}
	}
	return false, Status{}
}

// Sendrecv performs a combined send and receive, safe against the pairwise
// exchange deadlock of two blocking calls: the send is buffered, then the
// receive blocks.
func (c *Comm) Sendrecv(dst, sendTag int, data any, src, recvTag int) (any, Status) {
	c.Send(dst, sendTag, data)
	return c.Recv(src, recvTag)
}

// payloadBytes estimates the wire size of a message payload for trace args
// and byte counters. It covers the types the runtime actually moves in
// bulk; exotic payloads report 0 rather than paying for reflection.
func payloadBytes(data any) int64 {
	switch v := data.(type) {
	case nil:
		return 0
	case []byte:
		return int64(len(v))
	case string:
		return int64(len(v))
	case []float64:
		return int64(8 * len(v))
	case []int64:
		return int64(8 * len(v))
	case []int:
		return int64(8 * len(v))
	case [][]byte:
		var n int64
		for _, b := range v {
			n += int64(len(b))
		}
		return n
	case int, int64, uint64, float64, bool:
		return 8
	default:
		return 0
	}
}
