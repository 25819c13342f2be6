package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/obs"
)

// Runtime metrics read around every job. runtime/metrics reads without
// stopping the world, so the heap sampler does not perturb the ranks.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mHeapObjs   = "/memory/classes/heap/objects:bytes"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
)

// heapSampleEvery is the heap sampler's period during a job.
const heapSampleEvery = time.Millisecond

// jobResult is one job's measurements.
type jobResult struct {
	wall   time.Duration
	allocB uint64 // heap bytes allocated during the job
	// heapMB are the heap-object samples taken during the job, in MB above
	// the live heap at job start.
	heapMB []float64
	gcCPU  float64 // GC CPU seconds during the job
	err    error   // run error, timeout, or failed output check
	// timedOut means the job may still be running; the run must stop.
	timedOut bool
	// trace and reg hold a traced job's spans and counters (nil untraced).
	trace *obs.Tracer
	reg   *obs.Registry
}

// runJob runs one job after a full GC, so every job starts from the same
// heap, and checks its output after the clock stops. A traced job gets a
// tracer created just before the clock starts, so trace timestamps and the
// job's wall clock share an origin to within a microsecond.
func runJob(inst instance, traced bool) jobResult {
	runtime.GC()
	before := readMetrics()
	stop := make(chan struct{})
	samples := make(chan []uint64, 1)
	go sampleHeap(stop, samples)

	var r jobResult
	if traced {
		r.reg = obs.NewRegistry()
		r.trace = obs.NewTracer()
	}
	tr, reg := r.trace, r.reg
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- inst.run(tr, reg) }()
	select {
	case r.err = <-done:
		r.wall = time.Since(start)
	case <-time.After(jobTimeout):
		r.err = fmt.Errorf("job timed out after %v", jobTimeout)
		r.timedOut = true
	}
	close(stop)
	base := before[1].Value.Uint64()
	for _, v := range <-samples {
		r.heapMB = append(r.heapMB, float64(max(v, base)-base)/1e6)
	}
	after := readMetrics()
	r.allocB = after[0].Value.Uint64() - before[0].Value.Uint64()
	r.gcCPU = after[2].Value.Float64() - before[2].Value.Float64()
	if r.err == nil {
		r.err = inst.check()
	}
	return r
}

func readMetrics() []metrics.Sample {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mHeapObjs}, {Name: mGCCPU}}
	metrics.Read(s)
	return s
}

// sampleHeap reads the heap-object byte count every heapSampleEvery until
// stop is closed, then sends the samples.
func sampleHeap(stop <-chan struct{}, samples chan<- []uint64) {
	s := []metrics.Sample{{Name: mHeapObjs}}
	tick := time.NewTicker(heapSampleEvery)
	defer tick.Stop()
	var got []uint64
	for {
		metrics.Read(s)
		got = append(got, s[0].Value.Uint64())
		select {
		case <-stop:
			samples <- got
			return
		case <-tick.C:
		}
	}
}

// jobLog accumulates the jobs of one run. Only jobs that passed contribute
// timings.
type jobLog struct {
	attempted, failed int
	wall, allocMB     []float64
	heapMB, gcCPU     []float64 // heapMB pools every job's heap samples
	errs              []error
}

// maxLoggedErrors bounds how many failures a run prints.
const maxLoggedErrors = 5

// add records r and reports whether the run may continue.
func (l *jobLog) add(r jobResult) bool {
	l.attempted++
	if r.err != nil {
		l.failed++
		if len(l.errs) < maxLoggedErrors {
			l.errs = append(l.errs, r.err)
		}
		return !r.timedOut
	}
	l.wall = append(l.wall, r.wall.Seconds())
	l.allocMB = append(l.allocMB, float64(r.allocB)/1e6)
	l.heapMB = append(l.heapMB, r.heapMB...)
	l.gcCPU = append(l.gcCPU, r.gcCPU)
	return true
}

// median of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile of xs by linear interpolation (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return obs.Quantile(s, q)
}
