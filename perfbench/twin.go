package main

import (
	"context"
	"strings"
	"sync"
	"time"

	onesided "repro"
)

// A twin is an in-memory engine holding the same program and facts as
// the served primary, fed the same reads and writes. The traced run
// times each layer's public call on the twin — ParseQuery, Prepare,
// PreparedQuery.Query, InsertFacts, RetractFacts — because the calls
// the server makes are out of the benchmark's reach. Fed the same
// sequence, the twin's plan and result caches take the same paths.
type twin struct {
	eng *onesided.Engine
	sub string // the subscribed query, re-derived after every write
}

func newTwin(in *inputs) (*twin, error) {
	eng, err := onesided.Open()
	if err != nil {
		return nil, err
	}
	fs := make([]onesided.Fact, len(in.Facts))
	for i, f := range in.Facts {
		fs[i] = onesided.Fact{Pred: f.Pred, Args: f.Args}
	}
	if _, err := eng.InsertFacts(fs); err != nil {
		eng.Close()
		return nil, err
	}
	if _, err := eng.Load(strings.Join(in.Rules, "\n")); err != nil {
		eng.Close()
		return nil, err
	}
	tw := &twin{eng: eng, sub: in.Subscribe}
	for _, q := range in.Warm {
		if _, err := eng.Query(context.Background(), q); err != nil {
			eng.Close()
			return nil, err
		}
	}
	if tw.sub != "" {
		if _, err := eng.Query(context.Background(), tw.sub); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return tw, nil
}

// twinRead is what one twin query showed at its layer boundaries.
type twinRead struct {
	parseUS, prepareUS, queryUS float64
	plan, mode, strategy        string
	err                         error
}

// read runs q through the twin layer by layer, recording each call as a
// span under parent.
func (tw *twin) read(tr *tracer, req, parent int64, q string) twinRead {
	var r twinRead
	t0 := time.Now()
	atom, err := onesided.ParseQuery(q)
	t1 := time.Now()
	tr.record(req, parent, "parse", t0, t1, "")
	r.parseUS = us(t1.Sub(t0))
	if err != nil {
		r.err = err
		return r
	}
	pq, err := tw.eng.Prepare(nil, atom)
	t2 := time.Now()
	r.prepareUS = us(t2.Sub(t1))
	if err != nil {
		r.err = err
		return r
	}
	r.plan = pq.Explain().PlanCache
	tr.record(req, parent, "plan.prepare", t1, t2, r.plan)
	rows, err := pq.Query(context.Background())
	t3 := time.Now()
	r.queryUS = us(t3.Sub(t2))
	if err != nil {
		r.err = err
		return r
	}
	ex := rows.Explain()
	r.mode, r.strategy = ex.ResultCache, ex.Strategy
	tr.record(req, parent, "engine.query", t2, t3, r.strategy+" result-cache="+r.mode)
	return r
}

// write mirrors a session batch into the twin's in-memory store.
func (tw *twin) write(tr *tracer, req int64, b *batch) (dur time.Duration) {
	fs := make([]onesided.Fact, len(b.Facts))
	for i, f := range b.Facts {
		fs[i] = onesided.Fact{Pred: f.Pred, Args: f.Args}
	}
	t0 := time.Now()
	name := "storage.insert"
	if b.Retract {
		name = "storage.retract"
		tw.eng.RetractFacts(fs)
	} else {
		tw.eng.InsertFacts(fs)
	}
	t1 := time.Now()
	tr.record(req, 0, name, t0, t1, "")
	return t1.Sub(t0)
}

// recorder collects the traced run's per-operation observations next
// to its spans.
type recorder struct {
	mu     sync.Mutex
	reads  []readObs
	writes []writeObs
	subs   []readObs // twin re-derivations of the subscribed query
	subUS  []float64
}

// readObs is one traced read: its client-side latency and round trip,
// the server's own elapsed time, and the twin's layer timings.
type readObs struct {
	req         int64
	phase       string // "read", "after-insert" or "after-retract"
	latencyMS   float64
	roundtripUS float64
	elapsedUS   float64
	twin        twinRead
}

// writeObs is one traced write: the durable round trip and the twin's
// in-memory apply of the same batch.
type writeObs struct {
	req         int64
	retract     bool
	facts       int
	roundtripUS float64
	memoryUS    float64
}

// read records a traced read and replays it on the twin.
func (rc *recorder) read(tr *tracer, tw *twin, req int64, q, phase string, latencyMS float64, sent, done time.Time, rt int64, qr queryResp) {
	root := tr.id()
	tw0 := time.Now()
	r := tw.read(tr, req, root, q)
	tr.finish(root, req, 0, "twin", tw0, time.Now(), phase)
	rc.mu.Lock()
	rc.reads = append(rc.reads, readObs{req: req, phase: phase, latencyMS: latencyMS,
		roundtripUS: us(done.Sub(sent)), elapsedUS: qr.ElapsedMS * 1000, twin: r})
	rc.mu.Unlock()
	if phase != "read" && tw.sub != "" {
		// The subscription re-derives its query after every write.
		t0 := time.Now()
		sr := tw.read(tr, req, root, tw.sub)
		rc.mu.Lock()
		rc.subs = append(rc.subs, readObs{req: req, phase: phase, twin: sr})
		rc.subUS = append(rc.subUS, us(time.Since(t0)))
		rc.mu.Unlock()
	}
}

// write records a traced write.
func (rc *recorder) write(req int64, b *batch, roundtrip, memory time.Duration) {
	rc.mu.Lock()
	rc.writes = append(rc.writes, writeObs{req: req, retract: b.Retract, facts: len(b.Facts),
		roundtripUS: us(roundtrip), memoryUS: us(memory)})
	rc.mu.Unlock()
}
