package main

import (
	"context"
	"math"
	"time"
)

// untracedDetail is the detail line of an end-to-end run.
type untracedDetail struct {
	SetupS    []float64     `json:"setup_s"`
	HeapMB    float64       `json:"heap_mb"`
	Phases    []phaseReport `json:"phases"`
	SLORate   float64       `json:"slo_ladder_rate"`
	LimitMS   float64       `json:"read_limit_ms"`
	Session   sessionReport `json:"session"`
	Checks    checks        `json:"checks"`
	Rejected  int64         `json:"rejected_503_425"`
	Steal     float64       `json:"cpu_steal_frac"`
	ReadsFrom string        `json:"read_latency_from"`
}

// sessionReport summarizes the write session.
type sessionReport struct {
	Writes     int      `json:"writes"`
	Facts      int      `json:"facts"`
	Seconds    float64  `json:"seconds"`
	WriteP50MS float64  `json:"write_p50_ms"`
	WriteTail  tail     `json:"write_tail_ms"`
	ReadP50MS  float64  `json:"read_p50_ms"`
	ReadTail   tail     `json:"read_tail_ms"`
	LagP50MS   float64  `json:"lag_p50_ms"`
	LagTail    tail     `json:"lag_tail_ms"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Errors     []string `json:"errors,omitempty"`
}

func (s *session) report(lags []float64) sessionReport {
	st := s.stat
	return sessionReport{Writes: len(st.writeMS), Facts: st.facts, Seconds: st.elapsed.Seconds(),
		WriteP50MS: median(st.writeMS), WriteTail: percentile(st.writeMS, 0.99),
		ReadP50MS: median(st.readMS), ReadTail: percentile(st.readMS, 0.99),
		LagP50MS: median(lags), LagTail: percentile(lags, 0.99),
		Attempted: st.attempted, Failed: st.failed, Errors: st.errs}
}

// probes is the number of bisection probes a ladder search makes when
// it repeats two of them, the time the search is budgeted for.
func probes(l ladder) int { return int(math.Ceil(math.Log2(float64(l.Steps)))) + 2 }

// setups is how many times an end-to-end run sets its deployment up;
// setup_s is the median.
const setups = 7

func runUntraced(ctx context.Context, sp spec, in *inputs, d time.Duration, dir string) (runResult, any, error) {
	det := untracedDetail{LimitMS: sp.limitMS}
	var sys *system
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		s, err := setup(in, sp, dir, nil)
		if err != nil {
			return runResult{}, nil, err
		}
		det.SetupS = append(det.SetupS, time.Since(t0).Seconds())
		if i < setups-1 {
			if err := s.close(); err != nil {
				return runResult{}, nil, err
			}
		} else {
			sys = s
		}
	}
	det.HeapMB = liveHeapMB()

	rd := &reader{sys: sys}
	rd.loop(ctx, sp.ladder.First, warmup)
	steal := startSteal()
	first := rd.loop(ctx, sp.ladder.First, frac(d, sp.readFrac))
	det.Phases = append(det.Phases, report("first-rate", first, sp.limitMS))
	probeD := frac(d, sp.probeFrac) / time.Duration(probes(sp.ladder))
	best, tried := sloSearch(sp.ladder, sp.limitMS, func(rate float64) loopResult {
		return rd.loop(ctx, rate, probeD)
	})
	for _, p := range tried {
		det.Phases = append(det.Phases, report("probe", p, sp.limitMS))
	}
	slo, sloRate := first.throughput(), first.Rate
	if !first.meets(sp.limitMS) {
		slo, sloRate = 0, 0
	}
	if best != nil {
		slo, sloRate = best.throughput(), best.Rate
	}
	det.SLORate = sloRate

	sess, sub, err := startSession(sys, nil, nil, nil)
	if err != nil {
		sys.close()
		return runResult{}, nil, err
	}
	sess.run(ctx, frac(d, 1-sp.readFrac-sp.probeFrac))
	lags, unobserved := sess.stat.lagMS, 0
	if sub != nil {
		evs, _ := sub.snapshot()
		lags, unobserved = subscriptionLags(sess.acks, evs)
	}
	det.Session = sess.report(lags)
	det.Steal = steal.share()
	det.Rejected = rd.rejected.Load()
	chk, err := finish(sys, sess, sub, rd)
	if err != nil {
		return runResult{}, nil, err
	}
	chk.Unobserved = unobserved
	det.Checks = chk

	readMS := first.latenciesMS()
	det.ReadsFrom = "open loop at the ladder's first rate, from each request's due time"
	if sp.sessionReads {
		readMS = sess.stat.readMS
		det.ReadsFrom = "the session's read-after-write reads"
	}
	attempted := sess.stat.attempted
	failed := sess.stat.failed + chk.failures()
	for _, p := range append([]loopResult{first}, tried...) {
		attempted += len(p.Out)
		failed += p.failed()
	}
	res := runResult{
		Correct:   chk.failures() == 0 && sess.stat.failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":               {median(det.SetupS), "s"},
			"heap_mb":               {det.HeapMB, "MiB"},
			"slo_qps":               {slo, "1/s"},
			"read_p50_ms":           {median(readMS), "ms"},
			"visibility_lag_p50_ms": {median(lags), "ms"},
		},
	}
	return res, det, nil
}

// warmup is an unmeasured open-loop run before the first phase, so
// that connections, the scheduler and the collector reach steady state.
const warmup = 300 * time.Millisecond

// frac is the share f of d.
func frac(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

// startSession opens the write session (and, for write-mix, its
// subscription) on a deployment.
func startSession(sys *system, tr *tracer, tw *twin, rec *recorder) (*session, *subscriber, error) {
	s := &session{in: sys.in, primary: sys.primary, reader: sys.reads(),
		write: sys.conn[0], read: sys.conn[0], model: newFactSet(sys.in.Facts),
		tr: tr, tw: tw, recorder: rec}
	if sys.follower != nil {
		s.read = sys.conn[1]
	}
	var sub *subscriber
	if sys.in.Subscribe != "" {
		var err error
		if sub, err = subscribe(sys.conn[1], sys.primary.url, sys.in.Subscribe); err != nil {
			return nil, nil, err
		}
	}
	return s, sub, nil
}
