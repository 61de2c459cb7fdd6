package main

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// An open loop sends request i when it is due, at start + i/rate,
// whether or not earlier requests have completed; each of the workers
// owns one connection and takes the next due request when it is free.
// Latency runs from the due time, so a stall is charged to every
// request that was due while it lasted, not only to the one in flight.

// outcome is one open-loop request.
type outcome struct {
	Index int
	Due   time.Duration // offset from the run's start
	Sent  time.Duration
	Done  time.Duration
	OK    bool
}

// Latency is the time from due to completion.
func (o outcome) Latency() time.Duration { return o.Done - o.Due }

// Late is how long after its due time the request was sent: generator
// timer lateness plus any backlog on the workers.
func (o outcome) Late() time.Duration { return o.Sent - o.Due }

// loopResult is one open-loop run at a fixed rate.
type loopResult struct {
	Rate     float64
	Duration time.Duration
	Out      []outcome // in due order
	// Aborted is set when a request was sent more than maxLate after
	// its due time: the backlog ran away and the run stopped early.
	Aborted bool
}

// runOpenLoop offers rate requests per second for d, using one worker
// per connection. do performs request i, due at due, on connection c
// and reports whether it succeeded. The run stops
// early once a request starts more than maxLate behind schedule.
func runOpenLoop(ctx context.Context, conns int, rate float64, d, maxLate time.Duration, do func(c, i int, due time.Time) bool) loopResult {
	res := loopResult{Rate: rate, Duration: d}
	interval := time.Duration(float64(time.Second) / rate)
	total := int(d / interval)
	var next atomic.Int64
	var aborted atomic.Bool
	outs := make([][]outcome, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil && !aborted.Load() {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				due := time.Duration(i) * interval
				sleepUntil(start.Add(due))
				sent := time.Since(start)
				if sent-due > maxLate {
					aborted.Store(true)
					return
				}
				ok := do(c, i, start.Add(due))
				outs[c] = append(outs[c], outcome{Index: i, Due: due, Sent: sent, Done: time.Since(start), OK: ok})
			}
		}(c)
	}
	wg.Wait()
	res.Aborted = aborted.Load()
	for _, o := range outs {
		res.Out = append(res.Out, o...)
	}
	sort.Slice(res.Out, func(i, j int) bool { return res.Out[i].Index < res.Out[j].Index })
	return res
}

// inf is the latency charged to a failed request.
var inf = math.Inf(1)

// spinWindow is how long before a due time the generator stops
// sleeping and polls the clock instead: the runtime's timers can fire
// a millisecond or more late, several times a cached read's latency.
const spinWindow = 3 * time.Millisecond

// sleepUntil returns at t, yielding the processor while it polls.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > spinWindow {
		time.Sleep(d - spinWindow)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// latenciesMS returns the latency of every request in milliseconds,
// counting a failed request as missing any limit (+Inf).
func (r loopResult) latenciesMS() []float64 {
	out := make([]float64, len(r.Out))
	for i, o := range r.Out {
		if o.OK {
			out[i] = ms(o.Latency())
		} else {
			out[i] = inf
		}
	}
	return out
}

// lateMS returns each request's send lateness in milliseconds.
func (r loopResult) lateMS() []float64 {
	out := make([]float64, len(r.Out))
	for i, o := range r.Out {
		out[i] = ms(o.Late())
	}
	return out
}

// failed counts requests that failed or were answered wrongly.
func (r loopResult) failed() int {
	n := 0
	for _, o := range r.Out {
		if !o.OK {
			n++
		}
	}
	return n
}

// throughput is completed requests per second of the run.
func (r loopResult) throughput() float64 {
	var last time.Duration
	for _, o := range r.Out {
		last = max(last, o.Done)
	}
	if last <= 0 {
		return 0
	}
	return float64(len(r.Out)-r.failed()) / last.Seconds()
}

// backlogGrew reports whether the generator fell behind over the run:
// the requests due in its last fifth were sent, in the median, more
// than half the latency limit late.
func (r loopResult) backlogGrew(limitMS float64) bool {
	if r.Aborted {
		return true
	}
	cut := time.Duration(float64(r.Duration) * 0.8)
	var late []float64
	for _, o := range r.Out {
		if o.Due >= cut {
			late = append(late, ms(o.Late()))
		}
	}
	return median(late) > limitMS/2
}

// meets reports whether the run met the workload's limit: its tail
// latency (failures counted as misses) within limitMS, and no growing
// backlog.
func (r loopResult) meets(limitMS float64) bool {
	if len(r.Out) == 0 || r.backlogGrew(limitMS) {
		return false
	}
	return percentile(r.latenciesMS(), 0.99).Value <= limitMS
}

// ladder is a fixed geometric sequence of offered rates.
type ladder struct {
	First float64 // the first rate, where read latency is reported
	Step  float64 // ratio between neighbouring rates
	Steps int     // number of rates
}

func (l ladder) rate(j int) float64 {
	r := l.First
	for ; j > 0; j-- {
		r *= l.Step
	}
	return r
}

// sloSearch finds the highest ladder rate that meets limitMS, given
// that rate 0 already did, by bisection over the ladder (latency is
// taken to rise with the offered rate). A rate that misses is probed
// once more before the search moves below it, so that one burst of
// outside interference does not halve the answer. It returns the
// passing run at that rate (nil when only rate 0 passed) and every
// probe it made.
func sloSearch(l ladder, limitMS float64, probe func(rate float64) loopResult) (best *loopResult, probes []loopResult) {
	lo, hi, bestIdx := 0, l.Steps, -1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		passed := false
		for try := 0; try < 2 && !passed; try++ {
			probes = append(probes, probe(l.rate(mid)))
			passed = probes[len(probes)-1].meets(limitMS)
		}
		if passed {
			lo, bestIdx = mid, len(probes)-1
		} else {
			hi = mid
		}
	}
	if bestIdx >= 0 {
		best = &probes[bestIdx]
	}
	return best, probes
}
