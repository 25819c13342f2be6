package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/causal"
)

// ledgerGapTolerance is the largest share of ranks × traced wall by which
// the per-layer self times plus idle may miss it. Self time comes from a
// span-stack replay and idle from interval unions, so a gap means spans
// that do not nest, overlap across tracks, or fall outside the job.
const ledgerGapTolerance = 0.01

// layers are the modules a worker rank's traced wall splits into, in the
// order the ledger prints them.
var layers = []string{"kernel", "driver", "framework", "transport", "idle", "outside"}

// layerOf assigns a span to its module's layer. The kernels are the BLAST
// engine and the SOM accumulation/update; the drivers are mrblast/mrsom
// outside their kernels; mrmpi is the framework and mpi the transport.
func layerOf(cat, name string) string {
	switch cat {
	case "mpi":
		return "transport"
	case "mrmpi":
		return "framework"
	case "mrblast":
		if name == "engine.search" || name == "engine.build" {
			return "kernel"
		}
	case "mrsom":
		if name == "kernel" || name == "apply" {
			return "kernel"
		}
	}
	return "driver"
}

// collectives are the mpi spans that wait for every rank.
var collectives = map[string]bool{
	"Barrier": true, "Bcast": true, "BcastFloat64s": true, "Reduce": true,
	"ReduceSumFloat64s": true, "Gather": true, "Scatter": true, "Alltoall": true,
}

// shufflePhases are the mrmpi phases after map.
var shufflePhases = map[string]bool{
	"aggregate": true, "convert": true, "collate": true, "sort": true, "reduce": true,
}

// counters maps each per-layer count metric to the registry counter the
// program publishes it under.
var counters = []struct{ metric, counter, unit string }{
	{"blast.word_hits", "blast.word.hits", "count"},
	{"blast.ungapped_exts", "blast.exts.ungapped", "count"},
	{"blast.gapped_exts", "blast.exts.gapped", "count"},
	{"blast.hsps", "blast.hsps.reported", "count"},
	{"blastdb.cache_misses", "blastdb.cache.misses", "count"},
	{"blastdb.bytes_loaded", "blastdb.cache.bytes.loaded", "bytes"},
	{"mrmpi.tasks", "mrmpi.map.tasks", "count"},
	{"mrmpi.kv_emitted", "mrmpi.kv.emitted", "count"},
	{"mrmpi.exchange_bytes", "mrmpi.exchange.sent.bytes", "bytes"},
	{"mrmpi.spill_bytes", "mrmpi.spill.bytes", "bytes"},
	{"mpi.msgs", "mpi.sends", "count"},
	{"mpi.bytes", "mpi.send.bytes", "bytes"},
	{"mpi.collectives", "mpi.collectives", "count"},
}

// traceView is the per-layer breakdown of one traced job.
type traceView struct {
	wall   time.Duration
	values map[string]float64 // time metrics of this job, seconds or ratio
	counts map[string]int64   // registry counters
	shares map[string]float64 // worker-rank layer shares of ranks−1 × wall
}

// ledger is the per-layer view of one --trace 1 run: every traced job's
// breakdown plus the untraced jobs it alternated with.
type ledger struct {
	views        []traceView
	untracedWall []float64
	gcCPU        []float64
	breaches     int
}

func (l *ledger) breach(format string, args ...any) {
	l.breaches++
	fmt.Fprintf(os.Stderr, "perfbench: BREACH "+format+"\n", args...)
}

// count is the median of a registry counter over the traced jobs.
func (l *ledger) count(name string) int64 {
	var xs []float64
	for _, v := range l.views {
		xs = append(xs, float64(v.counts[name]))
	}
	return int64(median(xs))
}

// ledgerRuns alternates untraced and traced jobs until the budget is spent,
// at least minJobs of each, and breaks every traced job down by layer.
func ledgerRuns(inst instance, jobs *jobLog, budget time.Duration) (*ledger, error) {
	led := &ledger{}
	start := time.Now()
	for i := 0; i < 2*minJobs || time.Since(start) < budget; i++ {
		traced := i%2 == 1
		r := runJob(inst, traced)
		ok := jobs.add(r)
		if r.err == nil {
			if traced {
				led.add(r)
			} else {
				led.untracedWall = append(led.untracedWall, r.wall.Seconds())
				led.gcCPU = append(led.gcCPU, r.gcCPU)
			}
		}
		if !ok {
			break
		}
	}
	if len(led.views) == 0 || len(led.untracedWall) == 0 {
		return nil, fmt.Errorf("no traced and untraced job pair passed")
	}
	return led, nil
}

// add breaks one traced job down and runs the reconciliation checks on it.
func (l *ledger) add(r jobResult) {
	events := r.trace.Events()
	v := breakdown(events, r.wall)
	v.counts = map[string]int64{}
	for _, c := range r.reg.Snapshot().Counters {
		v.counts[c.Name] = c.Value
	}
	if gap := v.values["obs.ledger_gap"]; gap > ledgerGapTolerance {
		l.breach("obs.ledger_gap %.4f exceeds %.2f: layer self times plus idle do not sum to ranks × traced wall",
			gap, ledgerGapTolerance)
	}
	// The critical path analyze.Analyze reports, without the rest of its
	// report: its dispatch and blame passes take seconds on som-rgb's
	// 10^5-span traces.
	cp := causal.Build(events).CriticalPath().Total
	v.values["obs.critical_path_s"] = cp.Seconds()
	if cp > r.wall {
		l.breach("obs.critical_path_s %.4fs exceeds obs.traced_wall_s %.4fs", cp.Seconds(), r.wall.Seconds())
	}
	l.views = append(l.views, v)
}

// frame is an open span during the stack replay.
type frame struct {
	cat, name string
	start     int64
	child     int64 // time covered by directly nested spans
	inColl    bool  // nested inside a collective
}

// breakdown replays each rank's spans into self time per layer and the
// derived per-layer metrics. Worker ranks are 1..ranks−1; rank 0 is the
// master, whose dispatching is reported on its own line.
func breakdown(events []obs.Event, wall time.Duration) traceView {
	w := int64(wall)
	self := make([]map[string]int64, ranks)     // per rank, by layer
	spanSelf := make([]map[string]int64, ranks) // per rank, by "cat:name"
	spanTotal := make([]map[string]int64, ranks)
	for r := range self {
		self[r], spanSelf[r], spanTotal[r] = map[string]int64{}, map[string]int64{}, map[string]int64{}
	}
	collTime := make([]int64, ranks)
	ivs := make([][][2]int64, ranks)
	// Per rank, when the open map phase's latest task ended, and that end
	// for every finished map phase in order (0: the rank ran no task).
	lastTask := make([]int64, ranks)
	phaseLast := make([][]int64, ranks)
	workerTasks := 0
	lo, hi := int64(-1), int64(0)
	nspans := 0
	stacks := map[[2]int][]frame{}
	for _, ev := range events {
		if ev.Rank >= ranks {
			continue
		}
		if lo < 0 || ev.TS < lo {
			lo = ev.TS
		}
		hi = max(hi, ev.TS)
		key := [2]int{ev.Rank, ev.Track}
		st := stacks[key]
		switch ev.Type {
		case obs.BeginEvent:
			inColl := len(st) > 0 && (st[len(st)-1].inColl || (st[len(st)-1].cat == "mpi" && collectives[st[len(st)-1].name]))
			stacks[key] = append(st, frame{cat: ev.Cat, name: ev.Name, start: ev.TS, inColl: inColl})
		case obs.EndEvent:
			for i := len(st) - 1; i >= 0; i-- {
				f := st[i]
				if f.cat != ev.Cat || f.name != ev.Name {
					continue
				}
				stacks[key] = append(st[:i], st[i+1:]...)
				dur := ev.TS - f.start
				if i > 0 {
					stacks[key][i-1].child += dur
				}
				nspans++
				r := ev.Rank
				s := dur - f.child
				self[r][layerOf(f.cat, f.name)] += s
				id := f.cat + ":" + f.name
				spanSelf[r][id] += s
				spanTotal[r][id] += dur
				ivs[r] = append(ivs[r], [2]int64{f.start, ev.TS})
				if f.cat == "mpi" && collectives[f.name] && !f.inColl {
					collTime[r] += dur
				}
				if id == "mrmpi:map.task" {
					lastTask[r] = ev.TS
					if r > 0 {
						workerTasks++
					}
				}
				if id == "mrmpi:map" {
					phaseLast[r] = append(phaseLast[r], lastTask[r])
					lastTask[r] = 0
				}
				break
			}
		}
	}
	if lo < 0 {
		lo = 0
	}
	window := hi - lo
	outside := max(0, w-window)

	v := traceView{wall: wall, values: map[string]float64{}, shares: map[string]float64{}}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	var selfSum, idleSum int64
	workerLayer := map[string]int64{}
	for r := 0; r < ranks; r++ {
		covered := unionLen(ivs[r])
		idle := max(0, window-covered)
		idleSum += idle
		for _, ns := range self[r] {
			selfSum += ns
		}
		if r > 0 {
			for l, ns := range self[r] {
				workerLayer[l] += ns
			}
			workerLayer["idle"] += idle
			workerLayer["outside"] += outside
		}
	}
	total := int64(ranks) * w
	v.values["obs.ledger_gap"] = math.Abs(float64(selfSum+idleSum+int64(ranks)*outside-total)) / float64(total)
	for _, l := range layers {
		v.shares[l] = float64(workerLayer[l]) / float64(int64(ranks-1)*w)
	}

	workers := func(m []map[string]int64, id string) (ns int64) {
		for r := 1; r < ranks; r++ {
			ns += m[r][id]
		}
		return ns
	}
	all := func(m []map[string]int64, id string) (ns int64) {
		for r := 0; r < ranks; r++ {
			ns += m[r][id]
		}
		return ns
	}
	v.values["blast.search_s"] = sec(workers(spanSelf, "mrblast:engine.search"))
	v.values["blast.build_s"] = sec(workers(spanSelf, "mrblast:engine.build"))
	v.values["mrblast.unit_self_s"] = sec(workers(spanSelf, "mrblast:unit"))
	v.values["som.kernel_s"] = sec(workers(spanSelf, "mrsom:kernel"))
	v.values["som.apply_s"] = sec(all(spanSelf, "mrsom:apply"))
	v.values["mrmpi.task_self_s"] = sec(workers(spanSelf, "mrmpi:map.task"))
	dispatch := workers(spanTotal, "mrmpi:map") - workers(spanTotal, "mrmpi:map.task")
	v.values["mrmpi.dispatch_wait_s"] = sec(dispatch)
	if workerTasks > 0 {
		v.values["mrmpi.dispatch_us_per_task"] = float64(dispatch) / 1e3 / float64(workerTasks)
	}
	var shuffle int64
	for id := range shufflePhases {
		shuffle += all(spanSelf, "mrmpi:"+id)
	}
	v.values["mrmpi.shuffle_s"] = sec(shuffle)
	v.values["mrmpi.master_dispatch_s"] = sec(spanTotal[0]["mrmpi:map"])
	var coll int64
	for r := 1; r < ranks; r++ {
		coll += collTime[r]
	}
	v.values["mpi.collective_s"] = sec(coll)

	// Map tail and imbalance, per map phase over the worker ranks that ran
	// tasks in it.
	var tail int64
	for i := range phaseLast[1] {
		first, last := int64(-1), int64(-1)
		for r := 1; r < ranks; r++ {
			if i >= len(phaseLast[r]) || phaseLast[r][i] == 0 {
				continue
			}
			e := phaseLast[r][i]
			if first < 0 || e < first {
				first = e
			}
			last = max(last, e)
		}
		if first >= 0 {
			tail += last - first
		}
	}
	v.values["mrmpi.map_tail_s"] = sec(tail)
	var busyMax, busySum int64
	for r := 1; r < ranks; r++ {
		busy := spanTotal[r]["mrmpi:map.task"]
		busyMax = max(busyMax, busy)
		busySum += busy
	}
	if busySum > 0 {
		v.values["mrmpi.map_imbalance"] = float64(busyMax) / (float64(busySum) / float64(ranks-1))
	}
	v.values["obs.traced_wall_s"] = wall.Seconds()
	v.values["obs.spans"] = float64(nspans)
	return v
}

// unionLen is the total length of the union of [start, end) intervals.
func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curS, curE int64
	open := false
	for _, iv := range ivs {
		if !open || iv[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = iv[0], iv[1], true
			continue
		}
		curE = max(curE, iv[1])
	}
	if open {
		total += curE - curS
	}
	return total
}

// timeMetrics are the traced-job time metrics, reported as medians over the
// run's traced jobs.
var timeMetrics = []struct{ name, unit string }{
	{"blast.search_s", "s"},
	{"blast.build_s", "s"},
	{"mrblast.unit_self_s", "s"},
	{"som.kernel_s", "s"},
	{"som.apply_s", "s"},
	{"mrmpi.dispatch_wait_s", "s"},
	{"mrmpi.dispatch_us_per_task", "us"},
	{"mrmpi.task_self_s", "s"},
	{"mrmpi.shuffle_s", "s"},
	{"mrmpi.map_tail_s", "s"},
	{"mrmpi.map_imbalance", "ratio"},
	{"mrmpi.master_dispatch_s", "s"},
	{"mpi.collective_s", "s"},
	{"obs.traced_wall_s", "s"},
	{"obs.critical_path_s", "s"},
	{"obs.ledger_gap", "share"},
	{"obs.spans", "count"},
}

// put reports every per-layer metric the ledger owns, runs the transport
// probes, and prints the ledger to standard error.
func (l *ledger) put(put putFunc) {
	for _, m := range timeMetrics {
		put(m.name, m.unit, l.median(func(v traceView) float64 { return v.values[m.name] }))
	}
	for _, c := range counters {
		put(c.metric, c.unit, float64(l.count(c.counter)))
	}
	yield := 0.0
	if g := l.count("blast.exts.gapped"); g > 0 {
		yield = float64(l.count("blast.hsps.reported")) / float64(g)
	}
	put("blast.ext_yield", "ratio", yield)
	for _, name := range layers {
		put("ledger."+name+"_share", "share", l.median(func(v traceView) float64 { return v.shares[name] }))
	}
	put("obs.trace_overhead", "ratio",
		l.median(func(v traceView) float64 { return v.wall.Seconds() })/median(l.untracedWall)-1)
	put("runtime.gc_cpu_s", "s", median(l.gcCPU))
	// Probes of layers a workload does not exercise stay 0 (idle).
	put("blast.ns_per_residue", "ns", 0)
	put("blastdb.load_s", "s", 0)
	put("som.ns_per_vector_node", "ns", 0)
	put("mpi.pingpong_us", "us", l.probeMPI("ping-pong", pingPong))
	put("mpi.bcast_mbps", "MB/s", l.probeMPI("broadcast", bcastRate))

	var b strings.Builder
	fmt.Fprintf(&b, "perfbench: ledger over %d traced jobs (worker ranks, share of traced wall):", len(l.views))
	for _, name := range layers {
		fmt.Fprintf(&b, " %s %.3f", name, l.median(func(v traceView) float64 { return v.shares[name] }))
	}
	fmt.Fprintf(&b, "; master dispatch %.4fs", l.median(func(v traceView) float64 { return v.values["mrmpi.master_dispatch_s"] }))
	fmt.Fprintln(os.Stderr, b.String())
}

// probeMPI runs one transport probe, counting a failure as a breach.
func (l *ledger) probeMPI(name string, probe func() (float64, error)) float64 {
	v, err := probe()
	if err != nil {
		l.breach("%s probe: %v", name, err)
	}
	return v
}

func (l *ledger) median(f func(traceView) float64) float64 {
	var xs []float64
	for _, v := range l.views {
		xs = append(xs, f(v))
	}
	return median(xs)
}

// Transport probes. pingPongTrips round trips of a one-word message between
// two ranks, median over pingPongBatches; bcastRounds broadcasts of the
// som-map codebook at the benchmark's rank count, median over bcastBatches.
const (
	pingPongTrips   = 2000
	pingPongBatches = 5
	bcastRounds     = 20
	bcastBatches    = 5
)

// pingPong is the median small-message round trip in microseconds.
func pingPong() (float64, error) {
	var us []float64
	for b := 0; b < pingPongBatches; b++ {
		var el time.Duration
		err := mpi.Run(2, func(c *mpi.Comm) error {
			start := time.Now()
			for i := 0; i < pingPongTrips; i++ {
				if c.Rank() == 0 {
					c.Send(1, 0, i)
					c.Recv(1, 0)
				} else {
					v, _ := c.Recv(0, 0)
					c.Send(0, 0, v)
				}
			}
			if c.Rank() == 0 {
				el = time.Since(start)
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		us = append(us, el.Seconds()*1e6/pingPongTrips)
	}
	return median(us), nil
}

// bcastRate is the median BcastFloat64s throughput in MB/s.
func bcastRate() (float64, error) {
	n := somMapConfig.width * somMapConfig.height * somMapConfig.dim
	payload := make([]float64, n)
	var rates []float64
	for b := 0; b < bcastBatches; b++ {
		var el time.Duration
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			c.Barrier()
			start := time.Now()
			for i := 0; i < bcastRounds; i++ {
				out := mpi.BcastFloat64s(c, 0, payload)
				if len(out) != n {
					return fmt.Errorf("bcast returned %d floats", len(out))
				}
			}
			c.Barrier()
			if c.Rank() == 0 {
				el = time.Since(start)
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		rates = append(rates, float64(8*n*bcastRounds)/el.Seconds()/1e6)
	}
	return median(rates), nil
}
