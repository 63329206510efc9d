package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// checkError marks a failed check of an answer, as opposed to an error the
// program returned. Both count as a failed operation; a failed check also
// makes the run incorrect.
type checkError struct{ err error }

func (e *checkError) Error() string { return e.err.Error() }

// recorder collects one client's operation outcomes.
type recorder struct {
	lat         map[string][]float64 // milliseconds per operation name
	ops, failed int64
	wrong       bool  // some answer failed a check
	firstErr    error // first failure, for the log
}

func newRecorder() *recorder { return &recorder{lat: map[string][]float64{}} }

// record adds one finished operation; err is non-nil when it failed.
func (r *recorder) record(op string, d time.Duration, err error) {
	r.ops++
	r.lat[op] = append(r.lat[op], float64(d)/float64(time.Millisecond))
	if err == nil {
		return
	}
	r.failed++
	var ce *checkError
	if errors.As(err, &ce) {
		r.wrong = true
	}
	if r.firstErr == nil {
		r.firstErr = fmt.Errorf("%s: %w", op, err)
	}
}

func (r *recorder) merge(o *recorder) {
	for k, v := range o.lat {
		r.lat[k] = append(r.lat[k], v...)
	}
	r.ops += o.ops
	r.failed += o.failed
	r.wrong = r.wrong || o.wrong
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// latencyLines describes the latency of every operation: its sample
// count, median and 90th percentile in milliseconds.
func (r *recorder) latencyLines() []string {
	names := make([]string, 0, len(r.lat))
	for k := range r.lat {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, k := range names {
		v := append([]float64(nil), r.lat[k]...)
		sort.Float64s(v)
		out[i] = fmt.Sprintf("latency %s n=%d median_ms=%.4f p90_ms=%.4f", k, len(v), median(v), v[len(v)*9/10])
	}
	return out
}

// addTo folds the outcome into the report and logs the first failure.
func (r *recorder) addTo(rep *report) {
	rep.attempted += r.ops
	rep.failed += r.failed
	if r.wrong {
		rep.correct = false
	}
	if r.firstErr != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %d failed operations, first: %v\n", r.failed, r.firstErr)
	}
}

// medians returns the median latency of every operation name.
func (r *recorder) medians() map[string]float64 {
	out := make(map[string]float64, len(r.lat))
	for k, v := range r.lat {
		out[k] = median(v)
	}
	return out
}

// loopResult is the outcome of a timed closed-loop phase.
type loopResult struct {
	rec   *recorder
	wall  time.Duration
	alloc uint64 // bytes allocated during the phase
	gc    uint32 // GC cycles during the phase
	cpu   time.Duration
}

// closedLoop runs clients goroutines that each run whole rounds, one
// operation after another, until d has passed since the start; every
// client finishes the round it is in, so each client attempts the same
// operations a whole number of times.
func closedLoop(d time.Duration, clients int, round func(client int, rec *recorder)) *loopResult {
	recs := make([]*recorder, clients)
	for i := range recs {
		recs[i] = newRecorder()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for first := true; first || time.Since(start) < d; first = false {
				round(c, recs[c])
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	res := &loopResult{
		rec: newRecorder(), wall: wall, cpu: cpu,
		alloc: after.TotalAlloc - before.TotalAlloc,
		gc:    after.NumGC - before.NumGC,
	}
	for _, r := range recs {
		res.rec.merge(r)
	}
	return res
}

// completed is the number of operations that did not fail.
func (l *loopResult) completed() int64 { return l.rec.ops - l.rec.failed }

// setEndToEnd reports the end-to-end metrics of a timed phase that are
// computed the same way on every workload.
func (l *loopResult) setEndToEnd(rep *report) {
	rep.lines = append(rep.lines, l.rec.latencyLines()...)
	rep.set("throughput_qps", float64(l.completed())/l.wall.Seconds(), "1/s")
	rep.set("geomean_ms", geomean(l.rec.medians()), "ms")
	rep.set("alloc_mb_per_op", float64(l.alloc)/1e6/float64(max(l.rec.ops, 1)), "MB")
}

// setRuntime reports the runtime per-layer metrics of a timed phase.
func (l *loopResult) setRuntime(rep *report) {
	ops := float64(max(l.rec.ops, 1))
	rep.set("runtime.gc_cycles_per_op", float64(l.gc)/ops, "cycles/op")
	rep.set("runtime.cpu_ms_per_op", float64(l.cpu)/float64(time.Millisecond)/ops, "ms/op")
}

// cpuTime is the user plus system CPU time of this process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupResult is what repeatSetup measured.
type setupResult[T any] struct {
	env     T             // the environment of the last set-up, kept
	seconds float64       // median set-up time
	heap    float64       // live bytes the kept environment holds
	ingest  ingestMeter   // one batch per measured set-up
	spans   []*setupSpans // one per measured set-up
}

// repeatSetup builds an environment from nothing once unmeasured, so the
// Go heap has grown to its working size (the first loads of a process
// fault fresh memory in and ran up to 50% slower), and then setupReps
// times measured, keeping the last. The heap figure is the live heap
// after a forced GC less the live heap before the first set-up, so the
// benchmark's own generated inputs are not counted. discard tears down
// an environment that is not kept.
func repeatSetup[T any](build func(*ingestMeter, *setupSpans) (T, error), discard func(T)) (*setupResult[T], error) {
	runtime.GC()
	base := liveHeap()
	env, err := build(&ingestMeter{}, &setupSpans{})
	if err != nil {
		return nil, err
	}
	res := &setupResult[T]{}
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		discard(env)
		runtime.GC()
		sp := &setupSpans{}
		t := time.Now()
		if env, err = build(&res.ingest, sp); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t).Seconds())
		res.spans = append(res.spans, sp)
	}
	runtime.GC()
	res.env, res.seconds, res.heap = env, median(times), float64(liveHeap())-float64(base)
	return res, nil
}

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// geomean is the geometric mean of the values of m (all positive).
func geomean(m map[string]float64) float64 {
	if len(m) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range m {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(m)))
}
