// Command perfbench is the repository benchmark: it runs three user-shaped
// jobs through the public core.RunBlast / core.RunSOM entry points, checks
// every job's output against a serial reference, and prints one JSON result
// line.
//
//	perfbench --workload blast-reads --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it times untraced jobs for --seconds and reports the
// end-to-end metrics (job wall clock, set-up time, allocation, peak heap).
// With --trace 1 it alternates untraced and traced jobs for --seconds and
// reports the per-layer ledger: self time per module from the spans the
// program already records, the program's own counters, and probes that time
// the layers no span isolates. Inputs are generated from --seed before any
// timing; the program only ever sees the generated files.
//
// Human-readable detail goes to standard error; the last line of standard
// output is the result object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// The load shape every workload shares: one master rank that mostly waits on
// messages plus two worker ranks, one map goroutine per rank, so two busy
// ranks fill the two cores the benchmark is sized for.
const (
	ranks      = 3
	mapWorkers = 1
)

// setupRepeats is how many times a run synthesizes its inputs; setup_s is
// the median. Set-up takes milliseconds, so many repeats cost nothing.
const setupRepeats = 15

// minJobs is the fewest timed jobs a run reports, however short --seconds.
const minJobs = 3

// jobTimeout bounds one job; a job that runs longer counts as failed and ends
// the run, so the process still exits well within its time limit.
const jobTimeout = 60 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "how long to measure")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics from untraced jobs; 1: per-layer metrics")
		root     = flag.String("root", ".", "directory for generated inputs and outputs (removed on exit)")
	)
	flag.Parse()
	setup, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --trace 0|1 and --seconds > 0\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	dir, err := os.MkdirTemp(*root, "perfbench-"+*workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	res, err := measure(*workload, setup, dir, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// result is the contract's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure sets the workload up, computes its serial reference, runs one
// untimed warm-up job and then the timed (trace=false) or ledger
// (trace=true) loop.
func measure(name string, setup setupFunc, dir string, seed int64, budget time.Duration, traced bool) (*result, error) {
	began := time.Now()
	stage := func(what string) {
		fmt.Fprintf(os.Stderr, "perfbench: %-9s done at %6.2fs\n", what, time.Since(began).Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d %s\n", name, seed, fingerprint())
	inst, setupTime, err := setUp(setup, dir, seed)
	if err != nil {
		return nil, err
	}
	stage("setup")
	if err := inst.reference(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	stage("reference")
	// The warm-up job counts towards attempted and failed; its figures,
	// which include first-touch costs, do not.
	var jobs jobLog
	if !jobs.add(runJob(inst, false)) {
		return nil, fmt.Errorf("warm-up job: %w", jobs.errs[0])
	}
	jobs.wall, jobs.allocMB, jobs.heapMB, jobs.gcCPU = nil, nil, nil, nil
	stage("warm-up")

	res := &result{Metrics: map[string]metric{}}
	breaches := 0
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	if !traced {
		timed(inst, &jobs, budget)
		put("wall_s", "s", median(jobs.wall))
		put("setup_s", "s", median(setupTime.total))
		put("alloc_mb", "MB", median(jobs.allocMB))
		// The heap level exceeded during 5% of the run's job time. Higher
		// up, the level depends on where GC cycles fall: on blast-reads,
		// runs of one build differed by 10% at the 99th percentile and by
		// 25% at the maximum, and by under 1% at the 95th.
		put("peak_heap_mb", "MB", quantile(jobs.heapMB, 0.95))
		fmt.Fprintf(os.Stderr, "perfbench: %d jobs, wall quartiles %.4f %.4f %.4fs, max %.4fs, %d failed\n",
			len(jobs.wall), quantile(jobs.wall, 0.25), median(jobs.wall), quantile(jobs.wall, 0.75),
			quantile(jobs.wall, 1), jobs.failed)
	} else {
		led, err := ledgerRuns(inst, &jobs, budget)
		if err != nil {
			return nil, err
		}
		stage("jobs")
		led.put(put)
		inst.probe(put, led)
		stage("probes")
		put("blastdb.format_s", "s", median(setupTime.format))
		put("error_rate", "share", float64(jobs.failed)/float64(jobs.attempted))
		breaches = led.breaches
	}
	for _, e := range jobs.errs {
		fmt.Fprintln(os.Stderr, "perfbench: job failed:", e)
	}
	res.Attempted, res.Failed = jobs.attempted, jobs.failed
	res.Correct = jobs.failed == 0 && breaches == 0
	return res, nil
}

// setupTimes are the set-up durations of one run, in seconds.
type setupTimes struct {
	total  []float64 // input synthesis, DB formatting and file writing
	format []float64 // blastdb.Format alone (BLAST workloads)
}

// setUp synthesizes the workload's inputs setupRepeats times into fresh
// directories, times each, and keeps the last instance.
func setUp(setup setupFunc, dir string, seed int64) (instance, setupTimes, error) {
	var st setupTimes
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return nil, st, err
		}
		runtime.GC()
		start := time.Now()
		next, format, err := setup(sub, seed)
		if err != nil {
			return nil, st, fmt.Errorf("setup: %w", err)
		}
		st.total = append(st.total, time.Since(start).Seconds())
		st.format = append(st.format, format.Seconds())
		if inst != nil {
			if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("setup%d", i-1))); err != nil {
				return nil, st, err
			}
		}
		inst = next
	}
	return inst, st, nil
}

// timed runs untraced jobs until the budget is spent (and at least minJobs).
func timed(inst instance, jobs *jobLog, budget time.Duration) {
	start := time.Now()
	for jobs.attempted < minJobs || time.Since(start) < budget {
		if !jobs.add(runJob(inst, false)) {
			return
		}
	}
}

// fingerprint names the environment the figures were measured in.
func fingerprint() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d cpu=%q go=%s ranks=%d map_workers=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), ranks, mapWorkers)
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("" elsewhere).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
