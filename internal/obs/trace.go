// Package obs is the observability spine of the reproduction: per-rank
// structured tracing plus a unified metrics registry, built from the
// standard library only.
//
// Tracing. A Tracer owns one event buffer per MPI rank. Ranks record typed
// span events — Begin/End pairs and Instants, each with a category, a name,
// and optional key-value args — into their own buffer only, so tracing a
// multi-rank run needs no cross-rank synchronization beyond the final merge.
// Buffers are mutex-guarded because a single rank may run map tasks
// concurrently. The merged stream exports to Chrome trace_event JSON
// (loadable in Perfetto or chrome://tracing, one track per rank) and to a
// plain-text per-phase summary table.
//
// Metrics. A Registry holds named counters, gauges, and histograms that
// supersede the ad-hoc per-layer stats structs (mrmpi.Stats,
// blast.EngineStats, blastdb.CacheStats): each layer publishes into the one
// registry and a single Snapshot shows the whole stack.
//
// Everything is nil-safe: a nil *Tracer yields nil *RankTracer handles, a
// nil *Registry yields nil instruments, and every method on those nils is a
// no-op costing a few nanoseconds (benchmarked in bench_test.go and gated
// in CI), so instrumented hot paths pay nothing when observability is off.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// EventType distinguishes the three trace record kinds.
type EventType byte

const (
	// BeginEvent opens a span.
	BeginEvent EventType = 'B'
	// EndEvent closes the innermost matching span.
	EndEvent EventType = 'E'
	// InstantEvent marks a point in time with no duration.
	InstantEvent EventType = 'I'
)

// Arg is one key-value annotation on an event (e.g. {"tag", 5}).
type Arg struct {
	Key string
	Val any
}

// Event is one trace record. TS is nanoseconds since the tracer's start on
// the tracer's single monotonic clock, so events from different ranks are
// directly comparable. Track distinguishes concurrent span stacks within a
// rank: 0 is the rank's own goroutine, track w+1 is intra-rank map-task
// worker w (see RankTracer.Worker).
type Event struct {
	Type  EventType
	Rank  int
	Track int
	Cat   string
	Name  string
	TS    int64
	Args  []Arg
}

// Tracer collects span events from all ranks of one run. Create one per
// run, hand each rank its Rank(r) handle, and export after the run with
// WriteChromeTrace or Summarize(Events()).
type Tracer struct {
	start time.Time
	mu    sync.Mutex
	ranks []*RankTracer
}

// NewTracer creates an empty tracer whose clock starts now.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now()}
}

// Rank returns the buffer handle for rank r, creating it on first use. A
// nil Tracer returns a nil handle, whose methods are all no-ops — the
// disabled fast path.
func (t *Tracer) Rank(r int) *RankTracer {
	if t == nil || r < 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.ranks) <= r {
		t.ranks = append(t.ranks, &RankTracer{st: &rankState{t: t, rank: len(t.ranks)}})
	}
	return t.ranks[r]
}

// Events merges every rank's buffer into one stream ordered by timestamp,
// preserving each rank's internal order (the merge is stable). Safe to call
// while ranks are still tracing; it snapshots.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	ranks := append([]*RankTracer(nil), t.ranks...)
	t.mu.Unlock()
	var all []Event
	for _, rt := range ranks {
		rt.st.mu.Lock()
		all = append(all, rt.st.events...)
		rt.st.mu.Unlock()
	}
	// Within a rank timestamps are non-decreasing, so a stable sort by TS
	// keeps every rank's own order intact.
	stableSortByTS(all)
	return all
}

// NumRanks reports how many rank buffers exist.
func (t *Tracer) NumRanks() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ranks)
}

// RankTracer is a handle onto one track of one rank's event buffer. All
// methods are safe for concurrent use (map tasks on a rank may run
// concurrently) and safe on a nil receiver. The handle Tracer.Rank returns
// records on track 0 (the rank's own goroutine); Worker derives handles for
// intra-rank worker tracks that share the same buffer, id space, and clock.
type RankTracer struct {
	st    *rankState
	track int
}

// rankState is the buffer shared by every track handle of one rank.
type rankState struct {
	t      *Tracer
	rank   int
	mu     sync.Mutex
	events []Event
	open   []openSpan // in-flight spans, per track innermost last
	nextID uint64
}

// Worker returns a derived handle that records onto this rank's worker
// track w (w ≥ 0): events share the rank's buffer, span-id space, and clock
// but carry Track w+1, so the spans of concurrent intra-rank map-task
// workers nest within their own track instead of interleaving — and
// breaking LIFO validation — on the rank track. Calling Worker on a nil
// handle (tracing disabled) or with negative w returns the receiver.
func (rt *RankTracer) Worker(w int) *RankTracer {
	if rt == nil || w < 0 {
		return rt
	}
	return &RankTracer{st: rt.st, track: w + 1}
}

// openSpan tracks one in-flight Begin for End matching and for the MPI
// deadlock watchdog's in-flight report.
type openSpan struct {
	id        uint64
	track     int
	cat, name string
	since     int64
}

// Span is the token returned by Begin; call End exactly once. The zero Span
// (and any Span from a nil RankTracer) is a valid no-op.
type Span struct {
	rt *RankTracer
	id uint64
}

func (st *rankState) now() int64 { return int64(time.Since(st.t.start)) }

// Begin opens a span. Callers on hot paths should guard with a nil check
// before building args, so the disabled path allocates nothing.
func (rt *RankTracer) Begin(cat, name string, args ...Arg) Span {
	if rt == nil {
		return Span{}
	}
	return rt.begin(cat, name, args)
}

// begin is Begin's enabled path, kept out of line so the nil check above
// inlines into every call site.
func (rt *RankTracer) begin(cat, name string, args []Arg) Span {
	st := rt.st
	st.mu.Lock()
	ts := st.now()
	st.nextID++
	id := st.nextID
	st.events = append(st.events, Event{Type: BeginEvent, Rank: st.rank, Track: rt.track, Cat: cat, Name: name, TS: ts, Args: args})
	st.open = append(st.open, openSpan{id: id, track: rt.track, cat: cat, name: name, since: ts})
	st.mu.Unlock()
	return Span{rt: rt, id: id}
}

// Active reports whether the span records anywhere — false for the zero
// Span and spans from a nil RankTracer. Hot paths check it before building
// End args so the disabled path allocates nothing.
func (s Span) Active() bool { return s.rt != nil }

// End closes the span, emitting the matching EndEvent. Ending a span twice
// (e.g. an explicit End shadowed by a deferred one) is a no-op the second
// time.
func (s Span) End(args ...Arg) {
	if s.rt == nil {
		return
	}
	s.end(args)
}

// end is End's enabled path, kept out of line so the nil check above
// inlines into every call site.
func (s Span) end(args []Arg) {
	st := s.rt.st
	st.mu.Lock()
	for i := len(st.open) - 1; i >= 0; i-- {
		if st.open[i].id != s.id {
			continue
		}
		ev := Event{Type: EndEvent, Rank: st.rank, Track: st.open[i].track, Cat: st.open[i].cat, Name: st.open[i].name, TS: st.now(), Args: args}
		st.open = append(st.open[:i], st.open[i+1:]...)
		st.events = append(st.events, ev)
		break
	}
	st.mu.Unlock()
}

// CurrentSpanID returns the id of this track's innermost open span, or 0
// when no span is open (or on a nil receiver — the disabled fast path).
// Span ids are per-rank ordinals shared by all tracks: the k-th Begin on a
// rank gets id k, so a consumer replaying a rank's Begin events in order
// recovers the id→span mapping with no schema change. The MPI runtime
// piggybacks this id on outgoing messages so the causal stitcher
// (internal/obs/causal) can name the exact sender span that released a
// blocked receiver; comm happens only on the rank goroutine (track 0), so
// worker spans never leak into piggybacked ids.
func (rt *RankTracer) CurrentSpanID() uint64 {
	if rt == nil {
		return 0
	}
	st := rt.st
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := len(st.open) - 1; i >= 0; i-- {
		if st.open[i].track == rt.track {
			return st.open[i].id
		}
	}
	return 0
}

// Instant records a point event.
func (rt *RankTracer) Instant(cat, name string, args ...Arg) {
	if rt == nil {
		return
	}
	st := rt.st
	st.mu.Lock()
	st.events = append(st.events, Event{Type: InstantEvent, Rank: st.rank, Track: rt.track, Cat: cat, Name: name, TS: st.now(), Args: args})
	st.mu.Unlock()
}

// InFlight describes this track's innermost open span ("mpi:Recv, open
// 1.2s") or "idle". The MPI deadlock watchdog includes it per rank in
// timeout diagnostics, naming what each rank was blocked inside.
func (rt *RankTracer) InFlight() string {
	if rt == nil {
		return ""
	}
	st := rt.st
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := len(st.open) - 1; i >= 0; i-- {
		if st.open[i].track != rt.track {
			continue
		}
		sp := st.open[i]
		age := time.Duration(st.now() - sp.since).Round(time.Millisecond)
		return fmt.Sprintf("in %s:%s, open %v", sp.cat, sp.name, age)
	}
	return "idle"
}

// stableSortByTS orders a concatenation of already-sorted per-rank runs by
// timestamp; stability keeps each rank's own event order intact.
func stableSortByTS(events []Event) {
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
}
