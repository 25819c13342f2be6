package mrmpi

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/comm"
)

// MapStyle selects how Map distributes tasks across ranks, mirroring
// MapReduce-MPI's mapstyle setting.
type MapStyle int

const (
	// MapStyleChunk assigns contiguous task ranges to ranks (mapstyle 0).
	MapStyleChunk MapStyle = iota
	// MapStyleStride assigns tasks round-robin (mapstyle 1).
	MapStyleStride
	// MapStyleMaster dedicates rank 0 as a master that hands tasks to
	// workers on demand (mapstyle 2, "master/slave" in Sandia's docs). This
	// is the mode the paper uses for BLAST, whose work units have highly
	// non-uniform and unpredictable execution times. With a single rank it
	// degrades to MapStyleChunk.
	MapStyleMaster
	// MapStyleMasterAffinity is the paper's proposed location-aware
	// scheduler (its "future work" §): a master–worker mode where the
	// master prefers to hand a worker a task whose resource (set by
	// Options.Affinity, e.g. the DB partition of a BLAST work unit) the
	// worker processed before, scanning at most AffinityLookahead pending
	// tasks. Improving partition locality lets smaller query blocks be
	// used without paying extra partition reloads.
	MapStyleMasterAffinity
)

// AffinityLookahead bounds how far into the pending queue the
// locality-aware master searches for a resource match, so head-of-queue
// tasks cannot starve.
const AffinityLookahead = 64

func (s MapStyle) String() string {
	switch s {
	case MapStyleChunk:
		return "chunk"
	case MapStyleStride:
		return "stride"
	case MapStyleMaster:
		return "master"
	case MapStyleMasterAffinity:
		return "master-affinity"
	default:
		return fmt.Sprintf("MapStyle(%d)", int(s))
	}
}

// Reserved point-to-point tags used by the master–worker protocol and
// Gather. User programs sharing the communicator must avoid this range.
// The tags are exported so the trace analyzer (internal/obs/analyze) can
// recognize master-protocol traffic when measuring dispatch latency.
const (
	// TagReservedBase is the first tag reserved by mrmpi.
	TagReservedBase = 1 << 20
	// TagWorkerReady is a worker's "give me a task" request to the master.
	TagWorkerReady = TagReservedBase + 1
	// TagTaskAssign is the master's task assignment (or -1 stop) reply.
	TagTaskAssign = TagReservedBase + 2
	// TagGatherData carries serialized KV pages during Gather.
	TagGatherData = TagReservedBase + 3
	// TagAggPage carries one encoded page (or the sentinel finish message)
	// of the streaming Aggregate exchange; see aggregate.go for the wire
	// protocol.
	TagAggPage = TagReservedBase + 4
)

// Options configures a MapReduce instance (Sandia's settable parameters).
type Options struct {
	// MapStyle is the task-distribution policy for Map.
	MapStyle MapStyle
	// PageSize is the size of one in-memory KV/KMV page.
	PageSize int
	// MemSize is the per-object in-memory budget before pages spill to disk
	// (out-of-core processing).
	MemSize int64
	// SpillDir is where out-of-core pages are written (default: os.TempDir).
	SpillDir string
	// Affinity maps a task index to a resource identifier (e.g. a DB
	// partition) for MapStyleMasterAffinity. Required for that style.
	Affinity func(itask int) int
	// MapWorkers is the number of map tasks one rank runs concurrently
	// (≤ 1: serial, the MR-MPI behavior). With W > 1 a bounded pool of W
	// goroutines executes tasks while the rank goroutine keeps doing all
	// communication (task fetching, e.g. the master protocol) and merges
	// each task's emitted pairs into the rank KV in task-dispatch order —
	// so the KV byte stream, and with it every downstream phase, is
	// identical to a serial run. The map function must be safe for
	// concurrent calls with distinct tasks (give each worker index its own
	// scratch; see MapWorker).
	MapWorkers int
}

// Stats counts activity on a MapReduce instance since creation. All fields
// are local to this rank; sum or reduce across ranks for global totals.
//
// When the instance was created over a communicator with metrics enabled
// (mpi.RunOptions.Metrics), the same quantities are also published to the
// run's obs.Registry under "mrmpi.*" counter names, which supersedes this
// struct for cross-layer reporting.
type Stats struct {
	// MapTasks is the number of map tasks executed locally.
	MapTasks int
	// KVEmitted is the number of pairs emitted locally by map and reduce.
	KVEmitted int
	// ExchangedBytes is the number of encoded KV bytes this rank SENT to
	// other ranks during Aggregate. Pairs that hash back to this rank are
	// excluded (they never cross the wire).
	ExchangedBytes int64
	// ExchangedBytesRecv is the number of encoded KV bytes this rank
	// RECEIVED from other ranks during Aggregate, self excluded. Across all
	// ranks, sum(ExchangedBytesRecv) == sum(ExchangedBytes).
	ExchangedBytesRecv int64
	// Spills is the number of pages spilled to disk across KV and KMV,
	// including stores retired by Reduce/MapKV/Scrunch replacing the KV.
	Spills int
	// SpillBytes is the total bytes written to disk by out-of-core activity:
	// page spills of the KV/KMV stores plus external-sort run files written
	// by Convert when the KV exceeds the memory budget.
	SpillBytes int64
}

// MapReduce orchestrates map/collate/reduce phases over an MPI communicator.
// All exported methods are collective unless documented otherwise: every
// rank must call them in the same order.
type MapReduce struct {
	comm  *mpi.Comm
	opt   Options
	kv    *KeyValue
	kmv   *KeyMultiValue
	stats Stats

	// tr is this rank's trace buffer (nil when the world runs untraced);
	// phase and per-task spans are emitted through it.
	tr *obs.RankTracer
	// board is this rank's live status slot (nil when the world runs
	// without a board); phase transitions, task progress, and byte totals
	// are published through it.
	board *obs.RankBoard
	// cr is this rank's comm-accounting handle (nil when the world runs
	// without RunOptions.Comm); phase() labels it so every message the MPI
	// layer moves is attributed to the MapReduce phase that sent it.
	cr *comm.Rank
	// fr is this rank's flight-recorder ring (nil when disabled); phase
	// transitions are noted so post-mortems show where each rank was.
	fr *obs.RankRecorder
	// prof is the run's per-phase CPU profiler (nil when disabled); phase()
	// announces every transition so the profile rotates at phase boundaries.
	prof *obs.PhaseProfiler
	// Pre-resolved metrics instruments, all nil (no-op) when the world runs
	// without a registry.
	mTasks, mEmitted         *obs.Counter
	mExchSent, mExchRecv     *obs.Counter
	mSpillPages, mSpillBytes *obs.Counter
}

// New creates a MapReduce instance over comm with default options.
func New(comm *mpi.Comm) *MapReduce {
	return NewWith(comm, Options{})
}

// NewWith creates a MapReduce instance with explicit options.
func NewWith(comm *mpi.Comm, opt Options) *MapReduce {
	if err := spillDirOK(opt.SpillDir); err != nil {
		panic(fmt.Sprintf("mrmpi: spill dir: %v", err))
	}
	mr := &MapReduce{comm: comm, opt: opt}
	mr.tr = comm.Tracer()
	mr.board = comm.Board()
	mr.cr = comm.CommRank()
	mr.fr = comm.FlightRank()
	mr.prof = comm.Profiler()
	reg := comm.Metrics()
	mr.mTasks = reg.Counter("mrmpi.map.tasks")
	mr.mEmitted = reg.Counter("mrmpi.kv.emitted")
	mr.mExchSent = reg.Counter("mrmpi.exchange.sent.bytes")
	mr.mExchRecv = reg.Counter("mrmpi.exchange.recv.bytes")
	mr.mSpillPages = reg.Counter("mrmpi.spill.pages")
	mr.mSpillBytes = reg.Counter("mrmpi.spill.bytes")
	mr.kv = mr.newLocalKV()
	mr.kmv = newKeyMultiValue(opt.SpillDir, opt.PageSize, opt.MemSize)
	mr.kmv.store.cSpills = mr.mSpillPages
	mr.kmv.store.cSpillBytes = mr.mSpillBytes
	return mr
}

// newLocalKV builds a KV wired to this instance's spill instruments; used
// for the primary KV and for the output KVs of Reduce/MapKV/Scrunch.
func (mr *MapReduce) newLocalKV() *KeyValue {
	kv := newKeyValue(mr.opt.SpillDir, mr.opt.PageSize, mr.opt.MemSize)
	kv.store.cSpills = mr.mSpillPages
	kv.store.cSpillBytes = mr.mSpillBytes
	return kv
}

// phase opens one trace span for a collective MapReduce phase on this rank
// and publishes the transition (plus current KV/spill byte totals) to the
// live status board. The zero Span returned when tracing is off is a no-op
// to End.
func (mr *MapReduce) phase(name string) obs.Span {
	if mr.board != nil {
		mr.board.SetPhase(name)
		mr.board.SetKVBytes(mr.kv.Bytes())
		mr.board.SetSpillBytes(mr.Stats().SpillBytes)
	}
	// Label comm accounting with the new phase: every message sent from
	// here until the next transition is attributed to this phase in the
	// comm matrix (receivers bucket under the sender's stamp).
	mr.cr.SetPhase(name)
	mr.fr.Note("phase", name)
	mr.prof.Transition(mr.comm.Rank(), name)
	if mr.tr != nil {
		return mr.tr.Begin("mrmpi", name)
	}
	return obs.Span{}
}

// retireKV folds a store's spill counters into the cumulative stats before
// the store is dropped, so Stats stays "since creation" across Reduce/MapKV/
// Scrunch replacing the KV object.
func (mr *MapReduce) retireKV(kv *KeyValue) {
	mr.stats.Spills += kv.store.nspill
	mr.stats.SpillBytes += kv.store.spillBytes
}

// Comm returns the underlying communicator (for direct MPI calls, which the
// paper mixes with MapReduce calls in the SOM implementation).
func (mr *MapReduce) Comm() *mpi.Comm { return mr.comm }

// KV gives access to the local key-value object (non-collective).
func (mr *MapReduce) KV() *KeyValue { return mr.kv }

// KMV gives access to the local key-multivalue object (non-collective).
func (mr *MapReduce) KMV() *KeyMultiValue { return mr.kmv }

// Stats returns a snapshot of local activity counters (non-collective).
func (mr *MapReduce) Stats() Stats {
	s := mr.stats
	s.Spills += mr.kv.Spills() + mr.kmv.store.nspill
	s.SpillBytes += mr.kv.store.spillBytes + mr.kmv.store.spillBytes
	return s
}

// Close releases spill files. Non-collective but should be called on every
// rank.
func (mr *MapReduce) Close() {
	mr.kv.reset()
	mr.kmv.reset()
}

// MapFunc processes one abstract task, emitting pairs into kv.
type MapFunc func(itask int, kv *KeyValue) error

// MapWorkerFunc processes one abstract task, emitting pairs into kv, and
// additionally receives the index of the intra-rank worker executing it:
// −1 when the rank runs its tasks serially, 0..MapWorkers−1 under a worker
// pool. Callers use the index to select per-worker scratch (engines,
// caches) that must not be shared across concurrent tasks.
type MapWorkerFunc func(itask, worker int, kv *KeyValue) error

// Map executes fn over nmap abstract tasks distributed per the configured
// MapStyle, appending emitted pairs to each rank's local KV. It returns the
// global number of KV pairs after the map.
func (mr *MapReduce) Map(nmap int, fn MapFunc) (int64, error) {
	return mr.MapWorker(nmap, func(itask, _ int, kv *KeyValue) error {
		return fn(itask, kv)
	})
}

// MapWorker is Map for map functions that need the intra-rank worker index
// (Options.MapWorkers > 1) to pick per-worker scratch. The KV handed to fn
// is the rank KV when serial and a per-task staging KV under a pool; either
// way fn only ever appends to it.
func (mr *MapReduce) MapWorker(nmap int, fn MapWorkerFunc) (int64, error) {
	if nmap < 0 {
		return 0, fmt.Errorf("mrmpi: Map nmap must be non-negative, got %d", nmap)
	}
	sp := mr.phase("map")
	defer sp.End()
	mr.board.BeginTasks(int64(nmap))
	if mr.tr != nil || mr.board != nil {
		// Wrap the user function once so every dispatch style gets a
		// per-work-unit span and a board progress tick without per-style
		// instrumentation. (Begin on a nil tracer is a no-op Span.) Pool
		// workers record onto their own trace track with a worker arg, so
		// concurrent spans on one rank stay LIFO per track.
		inner := fn
		fn = func(itask, worker int, kv *KeyValue) error {
			var tsp obs.Span
			if worker >= 0 {
				tsp = mr.tr.Worker(worker).Begin("mrmpi", "map.task",
					obs.Arg{Key: "task", Val: itask}, obs.Arg{Key: "worker", Val: worker})
			} else {
				tsp = mr.tr.Begin("mrmpi", "map.task", obs.Arg{Key: "task", Val: itask})
			}
			pairs0, bytes0 := kv.N(), kv.Bytes()
			// End args carry the task's own output so lineage and straggler
			// views can tell a task that was slow from one that was big.
			// Under a pool the deltas are against the task's staging KV,
			// which starts empty, so they stay per-task exact.
			defer func() {
				tsp.End(
					obs.Arg{Key: "pairs", Val: kv.N() - pairs0},
					obs.Arg{Key: "bytes", Val: kv.Bytes() - bytes0},
				)
			}()
			err := inner(itask, worker, kv)
			mr.board.TaskDone()
			if kv == mr.kv {
				mr.board.SetKVBytes(kv.Bytes())
			}
			return err
		}
	}
	before := mr.kv.N()
	tasksBefore := mr.stats.MapTasks
	var err error
	style := mr.opt.MapStyle
	if (style == MapStyleMaster || style == MapStyleMasterAffinity) && mr.comm.Size() == 1 {
		style = MapStyleChunk
	}
	switch style {
	case MapStyleChunk:
		err = mr.mapChunk(nmap, fn)
	case MapStyleStride:
		err = mr.mapStride(nmap, fn)
	case MapStyleMaster:
		err = mr.mapMaster(nmap, fn)
	case MapStyleMasterAffinity:
		if mr.opt.Affinity == nil {
			err = fmt.Errorf("mrmpi: MapStyleMasterAffinity requires Options.Affinity")
		} else {
			err = mr.mapMasterAffinity(nmap, fn)
		}
	default:
		err = fmt.Errorf("mrmpi: unknown map style %v", style)
	}
	mr.stats.KVEmitted += mr.kv.N() - before
	mr.mTasks.Add(int64(mr.stats.MapTasks - tasksBefore))
	mr.mEmitted.Add(int64(mr.kv.N() - before))
	if err != nil {
		return 0, err
	}
	// Collective completion: every rank reaches here before totals are
	// computed, like the collective map() of MR-MPI.
	total := mpi.AllreduceSumInt64(mr.comm, int64(mr.kv.N()))
	return total, nil
}

func (mr *MapReduce) mapChunk(nmap int, run MapWorkerFunc) error {
	size, rank := mr.comm.Size(), mr.comm.Rank()
	lo := rank * nmap / size
	hi := (rank + 1) * nmap / size
	itask := lo
	return mr.runTasks(run, func() (int, bool) {
		if itask >= hi {
			return 0, false
		}
		t := itask
		itask++
		return t, true
	})
}

func (mr *MapReduce) mapStride(nmap int, run MapWorkerFunc) error {
	size, rank := mr.comm.Size(), mr.comm.Rank()
	itask := rank
	return mr.runTasks(run, func() (int, bool) {
		if itask >= nmap {
			return 0, false
		}
		t := itask
		itask += size
		return t, true
	})
}

// masterNext is the worker-rank side of the master protocols as a task
// source: each fetch asks rank 0 for the next assignment. The fetch runs on
// the rank goroutine even under a worker pool, so all communication stays
// single-threaded per rank.
func (mr *MapReduce) masterNext() func() (int, bool) {
	done := false
	return func() (int, bool) {
		if done {
			return 0, false
		}
		itask := mr.requestTask()
		if itask < 0 {
			done = true
			return 0, false
		}
		return itask, true
	}
}

// requestTask asks the master for the next task and returns its reply: a
// task index, or -1 to stop. The request and the wait for the reply are
// transport time, so one mpi span covers both; otherwise the send's tail
// after its trace instant (the mailbox lock, a GC it may start) is charged
// to the map phase as busy time.
func (mr *MapReduce) requestTask() int {
	if mr.tr != nil {
		defer mr.tr.Begin("mpi", "TaskRequest").End()
	}
	mr.comm.Send(0, TagWorkerReady, nil)
	data, _ := mr.comm.Recv(0, TagTaskAssign)
	return data.(int)
}

// mapMaster implements the load-balancing master–worker protocol: rank 0
// hands the next task to whichever worker asks first and performs no map
// work itself, keeping every worker busy while tasks remain.
func (mr *MapReduce) mapMaster(nmap int, run MapWorkerFunc) error {
	if mr.comm.Rank() == 0 {
		next := 0
		stopped := 0
		for stopped < mr.comm.Size()-1 {
			_, st := mr.comm.Recv(mpi.AnySource, TagWorkerReady)
			if next < nmap {
				mr.comm.Send(st.Source, TagTaskAssign, next)
				next++
			} else {
				mr.comm.Send(st.Source, TagTaskAssign, -1)
				stopped++
			}
		}
		return nil
	}
	return mr.runTasks(run, mr.masterNext())
}

// mapMasterAffinity is mapMaster with the paper's proposed location-aware
// dispatch: the master remembers each worker's last resource and scans up
// to AffinityLookahead pending tasks for a match before defaulting to the
// queue head.
func (mr *MapReduce) mapMasterAffinity(nmap int, run MapWorkerFunc) error {
	if mr.comm.Rank() == 0 {
		pending := make([]int, nmap)
		for i := range pending {
			pending[i] = i
		}
		lastResource := make(map[int]int) // worker rank -> resource
		stopped := 0
		for stopped < mr.comm.Size()-1 {
			_, st := mr.comm.Recv(mpi.AnySource, TagWorkerReady)
			if len(pending) == 0 {
				mr.comm.Send(st.Source, TagTaskAssign, -1)
				stopped++
				continue
			}
			pick := 0
			if res, ok := lastResource[st.Source]; ok {
				limit := min(AffinityLookahead, len(pending))
				for i := 0; i < limit; i++ {
					if mr.opt.Affinity(pending[i]) == res {
						pick = i
						break
					}
				}
			}
			itask := pending[pick]
			pending = append(pending[:pick], pending[pick+1:]...)
			lastResource[st.Source] = mr.opt.Affinity(itask)
			mr.comm.Send(st.Source, TagTaskAssign, itask)
		}
		return nil
	}
	return mr.runTasks(run, mr.masterNext())
}

// HashFunc maps a key to a destination rank in [0, nprocs).
type HashFunc func(key []byte, nprocs int) int

// FNV-1a constants (32-bit), matching hash/fnv.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// DefaultHash is FNV-1a modulo the rank count, MR-MPI's default key
// assignment. The hash is inlined rather than built on fnv.New32a, which
// allocates a hasher per call — this runs once per pair on the Aggregate
// hot path. TestDefaultHashMatchesFNV pins it to the hash/fnv output so
// key placement (and with it spill-file and aggregate layout) never
// drifts from the historical implementation.
func DefaultHash(key []byte, nprocs int) int {
	h := uint32(fnvOffset32)
	for _, b := range key {
		h ^= uint32(b)
		h *= fnvPrime32
	}
	return int(h % uint32(nprocs))
}

// Convert groups the local KV into the local KMV: one entry per unique key,
// holding all its values in insertion order. The KV is emptied.
//
// When the local KV fits the memory budget, grouping is done with an
// in-memory index and keys appear in first-appearance order; otherwise an
// external sort-group runs (sorted runs on disk, k-way merge) and keys
// emerge in lexicographic order. Value order within a key is preserved in
// both paths.
//
// The in-memory path is allocation-hardened: the KV's pages are retained
// and groups are built as byte-offset references into them (no per-value
// copy, no per-key duplicate copy); the only data copy is the one arena
// copy KeyMultiValue.Add makes when each grouped record is encoded.
func (mr *MapReduce) Convert() error {
	sp := mr.phase("convert")
	defer sp.End()
	memLimit := mr.opt.MemSize
	if memLimit <= 0 {
		memLimit = DefaultMemSize
	}
	if mr.kv.Bytes() > memLimit {
		return mr.convertExternal()
	}
	pages, err := mr.kv.store.retainPages()
	if err != nil {
		return err
	}
	// valRef locates one value inside the retained pages; 12 bytes per
	// value instead of a copied slice.
	type valRef struct {
		page, off, n int32
	}
	type group struct {
		key  []byte // aliases the retained page holding the first occurrence
		refs []valRef
	}
	index := make(map[string]int)
	var groups []group
	for pi, data := range pages {
		fr := frameReader{data: data}
		for fr.next() {
			// The map lookup with a string([]byte) key compiles without an
			// allocation; only inserting a new key materializes the string.
			i, ok := index[string(fr.key)]
			if !ok {
				i = len(groups)
				index[string(fr.key)] = i
				groups = append(groups, group{key: fr.key})
			}
			groups[i].refs = append(groups[i].refs, valRef{
				page: int32(pi), off: int32(fr.valOff), n: int32(len(fr.val)),
			})
		}
	}
	mr.kmv.reset()
	var vals [][]byte
	for _, g := range groups {
		if cap(vals) < len(g.refs) {
			vals = make([][]byte, 0, len(g.refs))
		}
		vals = vals[:0]
		for _, r := range g.refs {
			vals = append(vals, pages[r.page][r.off:r.off+r.n])
		}
		mr.kmv.Add(g.key, vals)
	}
	mr.kv.reset()
	return nil
}

// Collate is Aggregate followed by Convert — MR-MPI's collate(). It returns
// the global number of unique keys.
func (mr *MapReduce) Collate(hash HashFunc) (int64, error) {
	sp := mr.phase("collate")
	defer sp.End()
	if err := mr.Aggregate(hash); err != nil {
		return 0, err
	}
	if err := mr.Convert(); err != nil {
		return 0, err
	}
	return mpi.AllreduceSumInt64(mr.comm, int64(mr.kmv.N())), nil
}

// SortKeys reorders the local KMV by key using cmp (bytes.Compare when nil).
// Call it between Collate and Reduce when reduce-order matters, e.g. to keep
// query outputs in their original order as the paper's BLAST driver does.
// Non-collective in effect but conventionally called on all ranks.
func (mr *MapReduce) SortKeys(cmp func(a, b []byte) int) error {
	sp := mr.phase("sort")
	defer sp.End()
	if cmp == nil {
		cmp = bytes.Compare
	}
	type entry struct {
		key  []byte
		vals [][]byte
	}
	var entries []entry
	err := mr.kmv.Each(func(key []byte, values [][]byte) error {
		e := entry{key: append([]byte(nil), key...)}
		for _, v := range values {
			e.vals = append(e.vals, append([]byte(nil), v...))
		}
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		return err
	}
	sort.SliceStable(entries, func(i, j int) bool {
		return cmp(entries[i].key, entries[j].key) < 0
	})
	mr.kmv.reset()
	for _, e := range entries {
		mr.kmv.Add(e.key, e.vals)
	}
	return nil
}

// ReduceFunc processes one key group, optionally emitting new pairs.
type ReduceFunc func(key []byte, values [][]byte, out *KeyValue) error

// Reduce applies fn to every local key group in KMV order. Emitted pairs
// become the new local KV; the KMV is emptied. It returns the global number
// of emitted pairs.
func (mr *MapReduce) Reduce(fn ReduceFunc) (int64, error) {
	sp := mr.phase("reduce")
	defer sp.End()
	out := mr.newLocalKV()
	err := mr.kmv.Each(func(key []byte, values [][]byte) error {
		return fn(key, values, out)
	})
	if err != nil {
		return 0, err
	}
	mr.kmv.reset()
	mr.kv.reset()
	mr.retireKV(mr.kv)
	mr.kv = out
	mr.stats.KVEmitted += out.N()
	mr.mEmitted.Add(int64(out.N()))
	return mpi.AllreduceSumInt64(mr.comm, int64(mr.kv.N())), nil
}

// Gather moves all KV pairs onto the lowest nranks ranks (rank r's pairs go
// to rank r mod nranks). It returns the global pair count.
func (mr *MapReduce) Gather(nranks int) (int64, error) {
	sp := mr.phase("gather")
	defer sp.End()
	size, rank := mr.comm.Size(), mr.comm.Rank()
	if nranks <= 0 || nranks > size {
		return 0, fmt.Errorf("mrmpi: Gather nranks must be in 1..%d, got %d", size, nranks)
	}
	if rank >= nranks {
		var buf []byte
		err := mr.kv.Each(func(key, value []byte) error {
			buf = putFrame(buf, key, value)
			return nil
		})
		if err != nil {
			return 0, err
		}
		mr.comm.Send(rank%nranks, TagGatherData, buf)
		mr.kv.reset()
	} else {
		for src := rank + nranks; src < size; src += nranks {
			data, _ := mr.comm.Recv(src, TagGatherData)
			buf := data.([]byte)
			// Received buffers are already in KV wire format: adopt each
			// wholesale instead of decoding and re-encoding pair by pair.
			if err := mr.kv.store.appendEncodedPage(buf, countFrames(buf)); err != nil {
				return 0, err
			}
		}
	}
	return mpi.AllreduceSumInt64(mr.comm, int64(mr.kv.N())), nil
}

// MapKV applies fn to every existing local KV pair, replacing the KV with
// the pairs fn emits — MR-MPI's map() variant over an existing KV object.
// Non-collective in effect, but conventionally called on all ranks; returns
// the global pair count afterward.
func (mr *MapReduce) MapKV(fn func(key, value []byte, out *KeyValue) error) (int64, error) {
	sp := mr.phase("map.kv")
	defer sp.End()
	out := mr.newLocalKV()
	err := mr.kv.Each(func(key, value []byte) error {
		return fn(key, value, out)
	})
	if err != nil {
		return 0, err
	}
	mr.kv.reset()
	mr.retireKV(mr.kv)
	mr.kv = out
	mr.stats.KVEmitted += out.N()
	mr.mEmitted.Add(int64(out.N()))
	return mpi.AllreduceSumInt64(mr.comm, int64(mr.kv.N())), nil
}

// Scrunch converts the local KMV back into a KV with one pair per unique
// key, concatenating the grouped values in order with uvarint length
// prefixes — MR-MPI's scrunch-style collapse, useful for chaining
// MapReduce cycles. Returns the global pair count.
func (mr *MapReduce) Scrunch() (int64, error) {
	sp := mr.phase("scrunch")
	defer sp.End()
	out := mr.newLocalKV()
	err := mr.kmv.Each(func(key []byte, values [][]byte) error {
		var buf []byte
		for _, v := range values {
			buf = putUvarint(buf, uint64(len(v)))
			buf = append(buf, v...)
		}
		out.Add(key, buf)
		return nil
	})
	if err != nil {
		return 0, err
	}
	mr.kmv.reset()
	mr.kv.reset()
	mr.retireKV(mr.kv)
	mr.kv = out
	return mpi.AllreduceSumInt64(mr.comm, int64(mr.kv.N())), nil
}

// UnpackScrunched splits a value produced by Scrunch back into the
// original value list.
func UnpackScrunched(buf []byte) [][]byte {
	var out [][]byte
	for len(buf) > 0 {
		n, w := getUvarint(buf)
		buf = buf[w:]
		out = append(out, buf[:n])
		buf = buf[n:]
	}
	return out
}

// MapFiles is Map with one task per file path — the common MR-MPI pattern
// of mapping over a file list (e.g. FASTA query blocks on a shared file
// system).
func (mr *MapReduce) MapFiles(paths []string, fn func(path string, kv *KeyValue) error) (int64, error) {
	return mr.Map(len(paths), func(itask int, kv *KeyValue) error {
		return fn(paths[itask], kv)
	})
}
