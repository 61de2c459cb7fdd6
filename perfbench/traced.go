package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	onesided "repro"
	"repro/internal/storage"
	"repro/internal/wal"
)

// tracedDetail is the detail line of a traced run.
type tracedDetail struct {
	Spans        int                `json:"spans"`
	SpanFile     string             `json:"span_file"`
	Untraced     float64            `json:"untraced_read_p50_ms"`
	Traced       float64            `json:"traced_read_p50_ms"`
	SelfUS       map[string]float64 `json:"self_us_median"`
	Phases       []phaseReport      `json:"phases,omitempty"`
	Session      sessionReport      `json:"session"`
	Checks       checks             `json:"checks"`
	ProbeQueries int                `json:"probe_queries"`
}

// runTraced runs the workload once more with spans recorded around the
// benchmark's calls into each layer, on a deployment set up once, and
// derives the per-layer metrics. Half of the read (or, on the write
// workloads, session) time runs untraced first, so the run measures its
// own tracing overhead.
func runTraced(ctx context.Context, sp spec, in *inputs, d time.Duration, dir, spanFile string) (runResult, any, error) {
	var det tracedDetail
	tr := newTracer()
	sys, err := setup(in, sp, dir, tr)
	if err != nil {
		return runResult{}, nil, err
	}
	tw, err := newTwin(in)
	if err != nil {
		sys.close()
		return runResult{}, nil, err
	}
	defer tw.eng.Close()
	rec := &recorder{}
	rd := &reader{sys: sys}
	rd.loop(ctx, sp.ladder.First, warmup)
	var untracedP50 float64
	var loops []loopResult
	if !sp.sessionReads {
		u := rd.loop(ctx, sp.ladder.First, frac(d, 0.35))
		untracedP50 = median(u.latenciesMS())
		rd.tr, rd.tw, rd.rec = tr, tw, rec
		t := rd.loop(ctx, sp.ladder.First, frac(d, 0.35))
		det.Phases = []phaseReport{report("untraced", u, sp.limitMS), report("traced", t, sp.limitMS)}
		loops = []loopResult{u, t}
	}
	sess, sub, err := startSession(sys, nil, nil, nil)
	if err != nil {
		sys.close()
		return runResult{}, nil, err
	}
	if sp.sessionReads {
		untraced := sess.run(ctx, frac(d, 0.5))
		untracedP50 = median(untraced.readMS)
	}
	walBefore := sys.primary.eng.Log().CommitStats()
	sess.tr, sess.tw, sess.recorder = tr, tw, rec
	var lagMax uint64
	sess.onAck = func() {
		if f := sys.follower; f != nil {
			st := f.fol.Stats()
			if p := sys.primary.eng.DB().Epoch(); p > st.AppliedEpoch {
				lagMax = max(lagMax, p-st.AppliedEpoch)
			}
		}
	}
	rest := 0.3
	if sp.sessionReads {
		rest = 0.5
	}
	traced := sess.run(ctx, frac(d, rest))
	walAfter := sys.primary.eng.Log().CommitStats()
	var events []subEvent
	if sub != nil {
		events, _ = sub.snapshot()
	}
	var retries int64
	if sys.follower != nil {
		retries = sys.follower.fol.Stats().Retries
	}

	// Quiet per-query probes, then the primary's log replayed through a
	// replication Applier, then the end-of-run checks.
	probe := probeQueries(tw, in)
	det.ProbeQueries = probe.n
	applyUS, records, applyErr := replayLog(sys.primary)
	chk, err := finish(sys, sess, sub, rd)
	if err != nil {
		return runResult{}, nil, err
	}
	det.Checks = chk
	if applyErr != nil {
		det.Checks.Errors = append(det.Checks.Errors, "applier: "+applyErr.Error())
	}
	lags := sess.stat.lagMS
	if sub != nil {
		lags, _ = subscriptionLags(sess.acks, events)
	}
	det.Session = sess.report(lags)

	spans := tr.snapshot()
	det.Spans = len(spans)
	det.SpanFile = spanFile
	if err := writeSpans(spanFile, spans); err != nil {
		return runResult{}, nil, err
	}
	self := selfTimes(spans)
	serve := make(map[int64]float64) // request → server.ServeHTTP duration
	byName := make(map[string][]float64)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], self[s.ID])
		if s.Name == "server.ServeHTTP" {
			serve[s.Req] += s.dur()
		}
	}
	det.SelfUS = make(map[string]float64)
	for name, xs := range byName {
		det.SelfUS[name] = median(xs)
	}

	// The measured reads: the open loop's, or the session's
	// read-after-write reads.
	var reads []readObs
	for _, r := range rec.reads {
		if (r.phase == "read") != sp.sessionReads {
			reads = append(reads, r)
		}
	}
	m := map[string]float64{}
	var latMS, overhead, parse, bind, hitUS, handler, queryUS []float64
	var hits, updated, rebuilt, planHits float64
	var barrier []float64
	for _, r := range reads {
		latMS = append(latMS, r.latencyMS)
		overhead = append(overhead, r.roundtripUS-r.elapsedUS)
		parse = append(parse, r.twin.parseUS)
		queryUS = append(queryUS, r.twin.queryUS)
		handler = append(handler, serve[r.req]-r.elapsedUS)
		if r.twin.plan == "hit" {
			planHits++
			bind = append(bind, r.twin.prepareUS)
		}
		switch r.twin.mode {
		case "hit":
			hits++
			hitUS = append(hitUS, r.twin.queryUS)
		case "updated":
			updated++
		case "rebuilt":
			rebuilt++
		}
		if sys.follower != nil && r.phase != "read" {
			barrier = append(barrier, (serve[r.req]-r.elapsedUS)/1000)
		}
	}
	n := float64(len(reads))
	tracedP50 := median(latMS)
	det.Untraced, det.Traced = untracedP50, tracedP50
	m["server.overhead_us"] = median(overhead)
	m["parse.us"] = median(parse)
	m["plan.hit_ratio"] = ratio(planHits, n)
	m["plan.bind_us"] = median(bind)
	m["rcache.hit_ratio"] = ratio(hits, n)
	m["rcache.updated_ratio"] = ratio(updated, n)
	m["rcache.rebuilt_ratio"] = ratio(rebuilt, n)
	m["rcache.hit_us"] = median(hitUS)
	attributed := det.SelfUS["gen.wait"]*boolf(!sp.sessionReads) + det.SelfUS["http.roundtrip"] +
		median(handler) + median(parse) + median(bind) + median(queryUS)
	m["attrib.residue_frac"] = ratio(tracedP50-attributed/1000, tracedP50)
	m["attrib.query_frac"] = ratio(median(queryUS)/1000, tracedP50)
	m["trace.overhead_frac"] = ratio(tracedP50-untracedP50, untracedP50)

	// Maintenance: twin queries after a write, by what the write was and
	// how the result cache absorbed it.
	var insUS, retUS, rebuildMS []float64
	for _, r := range append(append([]readObs(nil), rec.reads...), rec.subs...) {
		switch {
		case r.phase == "after-insert" && r.twin.mode == "updated":
			insUS = append(insUS, r.twin.queryUS)
		case r.phase == "after-retract" && r.twin.mode == "updated":
			retUS = append(retUS, r.twin.queryUS)
		case r.phase == "after-retract" && r.twin.mode == "rebuilt":
			rebuildMS = append(rebuildMS, r.twin.queryUS/1000)
		}
	}
	m["eval.maint.insert_us"] = median(insUS)
	m["eval.maint.retract_us"] = median(retUS)
	m["eval.maint.rebuild_ms"] = median(rebuildMS)

	probe.metrics(m)

	// Writes: the durable server-side handling against the twin's
	// in-memory apply of the same batch.
	var ack []float64
	var insNS, insFacts float64
	for _, w := range rec.writes {
		ack = append(ack, serve[w.req]-w.memoryUS)
		if !w.retract {
			insNS += w.memoryUS * 1000
			insFacts += float64(w.facts)
		}
	}
	writes := float64(len(traced.writeMS))
	m["storage.insert_ns_per_fact"] = ratio(insNS, insFacts)
	m["wal.ack_us"] = median(ack)
	readMS := latMS
	if sp.sessionReads {
		readMS = sess.stat.readMS
	}
	m["read_p99_ms"] = windowTail(readMS, 0.99, tailWindow)
	m["write_facts_per_s"] = float64(sess.stat.facts) / sess.stat.elapsed.Seconds()
	m["write_p50_ms"] = median(sess.stat.writeMS)
	m["write_p99_ms"] = windowTail(sess.stat.writeMS, 0.99, tailWindow)
	m["visibility_lag_p99_ms"] = windowTail(lags, 0.99, tailWindow)
	m["wal.fsyncs_per_write"] = ratio(float64(walAfter.Fsyncs-walBefore.Fsyncs), writes)
	m["wal.records_per_group"] = ratio(float64(walAfter.GroupRecords-walBefore.GroupRecords), float64(walAfter.Groups-walBefore.Groups))
	m["wal.recover_us_per_record"] = ratio(chk.RecoverUS, float64(chk.Records))
	m["replica.apply_us_per_record"] = ratio(applyUS, float64(records))
	m["replica.lag_epochs_max"] = float64(lagMax)
	m["replica.retries"] = float64(retries)
	m["replica.barrier_wait_ms"] = median(barrier)
	var rows float64
	for _, ev := range events[min(1, len(events)):] {
		rows += float64(len(ev.Add) + len(ev.Remove))
	}
	subEvents := float64(max(0, len(events)-1))
	m["sub.events_per_write"] = ratio(subEvents, writes*boolf(sub != nil))
	m["sub.rows_per_event"] = ratio(rows, subEvents)
	m["sub.rederive_us"] = median(rec.subUS)

	attempted := sess.stat.attempted
	failed := sess.stat.failed + chk.failures()
	for _, l := range loops {
		attempted += len(l.Out)
		failed += l.failed()
	}
	m["server.rejected_503"] = float64(rd.rejected.Load())
	m["ops_failed_frac"] = ratio(float64(failed), float64(attempted))

	res := runResult{Correct: chk.failures() == 0 && sess.stat.failed == 0 && applyErr == nil,
		Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, lm := range perLayer {
		v, ok := m[lm.name]
		if !ok {
			return runResult{}, nil, fmt.Errorf("per-layer metric %s not computed", lm.name)
		}
		res.Metrics[lm.name] = metric{v, lm.unit}
	}
	return res, det, nil
}

func boolf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// probeResult aggregates the quiet per-query probes.
type probeResult struct {
	n                                 int
	fig9N, fig9Iter, fig9Seen         float64
	fig9GProbes, fig9Batches          float64
	fig9US, fig9Allocs                float64
	deepMS, wideMS, magicMS           []float64
	magicRounds                       float64
	examined, lookups, scans, answers float64
}

// probeQueries evaluates a sample of the workload's distinct reads on
// the twin one at a time, with no other load, planned against an
// explicit program so that neither cache answers them: each call is a
// full evaluation whose time, allocations and counters belong to it.
func probeQueries(tw *twin, in *inputs) probeResult {
	const perClass = 12
	var p probeResult
	taken := make(map[string]int)
	seen := make(map[string]bool)
	prog := tw.eng.Program()
	for _, rd := range in.Reads {
		if seen[rd.Query] || taken[rd.Class] >= perClass {
			continue
		}
		seen[rd.Query] = true
		taken[rd.Class]++
		atom, err := onesided.ParseQuery(rd.Query)
		if err != nil {
			continue
		}
		pq, err := tw.eng.Prepare(prog, atom)
		if err != nil {
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		rows, err := pq.Query(context.Background())
		if err != nil {
			continue
		}
		answers := rows.Len()
		el := time.Since(t0)
		runtime.ReadMemStats(&after)
		st, ct, strategy := rows.Stats(), rows.Counters(), rows.Explain().Strategy
		p.n++
		p.examined += float64(ct.TuplesExamined)
		p.lookups += float64(ct.IndexLookups)
		p.scans += float64(ct.FullScans)
		p.answers += float64(answers)
		switch strategy {
		case "onesided":
			p.fig9N++
			p.fig9Iter += float64(st.Iterations)
			p.fig9Seen += float64(st.SeenSize)
			p.fig9GProbes += float64(st.GProbes)
			p.fig9Batches += float64(st.Batches)
			p.fig9US += us(el)
			p.fig9Allocs += float64(after.Mallocs - before.Mallocs)
			switch rd.Class {
			case "deep":
				p.deepMS = append(p.deepMS, ms(el))
			case "wide":
				p.wideMS = append(p.wideMS, ms(el))
			}
		case "magic":
			p.magicMS = append(p.magicMS, ms(el))
			p.magicRounds += float64(st.Iterations)
		}
	}
	return p
}

func (p probeResult) metrics(m map[string]float64) {
	m["eval.fig9.us_per_iter"] = ratio(p.fig9US, p.fig9Iter)
	m["eval.fig9.allocs_per_iter"] = ratio(p.fig9Allocs, p.fig9Iter)
	m["eval.fig9.iters_per_query"] = ratio(p.fig9Iter, p.fig9N)
	m["eval.fig9.seen_per_iter"] = ratio(p.fig9Seen, p.fig9Iter)
	m["eval.fig9.gprobes_per_query"] = ratio(p.fig9GProbes, p.fig9N)
	m["eval.fig9.gprobes_per_iter"] = ratio(p.fig9GProbes, p.fig9Iter)
	m["eval.fig9.batches_per_iter"] = ratio(p.fig9Batches, p.fig9Iter)
	m["eval.fig9.deep_ms"] = median(p.deepMS)
	m["eval.fig9.wide_ms"] = median(p.wideMS)
	m["eval.magic.ms_per_query"] = median(p.magicMS)
	m["eval.magic.rounds_per_query"] = ratio(p.magicRounds, float64(len(p.magicMS)))
	m["storage.examined_per_query"] = ratio(p.examined, float64(p.n))
	m["storage.lookups_per_query"] = ratio(p.lookups, float64(p.n))
	m["storage.fullscans_per_query"] = ratio(p.scans, float64(p.n))
	m["storage.examined_per_answer"] = ratio(p.examined, p.answers)
}

// replayLog reads the primary's WAL segments as a follower receives
// them and applies every record through a fresh wal.Applier into an
// empty database, timing ApplyRecord alone. It checks that the replayed
// database holds the primary's facts.
func replayLog(n *node) (applyUS float64, records int, err error) {
	lg := n.eng.Log()
	if err := lg.Sync(); err != nil {
		return 0, 0, err
	}
	segs, err := lg.Segments()
	if err != nil {
		return 0, 0, err
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Seq < segs[j].Seq })
	db := storage.NewDatabase()
	ap := wal.NewApplier(wal.Replay{
		Sym:     func(name string) { db.Syms.Intern(name) },
		Rel:     func(pred string, arity int) { db.Ensure(pred, arity) },
		Fact:    func(pred string, consts []string) { db.AddFact(pred, consts...) },
		Retract: func(pred string, consts []string) { db.RemoveFact(pred, consts...) },
		Rule:    func(string) {},
		Shape:   func(string) {},
	})
	var total time.Duration
	for _, s := range segs {
		data, _, _, err := lg.ReadSegmentAt(s.Seq, 0, 1<<30)
		if err != nil {
			return 0, 0, err
		}
		if err := wal.CheckSegmentHeader(data, s.Seq); err != nil {
			return 0, 0, err
		}
		data = data[wal.SegmentHeaderSize:]
		for len(data) > 0 {
			payload, size, err := wal.SplitRecord(data)
			if err != nil {
				return 0, 0, err
			}
			t0 := time.Now()
			err = ap.ApplyRecord(payload)
			total += time.Since(t0)
			if err != nil {
				return 0, 0, err
			}
			records++
			data = data[size:]
		}
	}
	if d := dbFacts(n.eng.DB()).diff(dbFacts(db)); d != "" {
		return us(total), records, fmt.Errorf("replayed log differs from the primary: %s", d)
	}
	return us(total), records, nil
}
