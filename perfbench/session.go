package main

import (
	"context"
	"net/http"
	"strings"
	"time"

	onesided "repro"
)

// session is the closed-loop writer: each step posts one batch to
// /v1/facts, waits for the ack, then reads its own write back with
// /v1/query, on the primary or, with an epoch barrier, on the follower.
// Its state carries over between calls to run.
type session struct {
	in       *inputs
	primary  *node
	reader   *node // where the read-after-write goes
	write    *http.Client
	read     *http.Client
	model    factSet // the net acknowledged fact set
	next     int     // next batch
	tr       *tracer
	tw       *twin
	recorder *recorder

	acks []ack // every acknowledged batch, in order
	stat opStats
	// onAck, when set, runs after every acknowledged write.
	onAck func()
}

// ack is one acknowledged write.
type ack struct {
	batch *batch
	at    time.Time
}

// opStats accumulates a phase's measurements.
type opStats struct {
	writeMS   []float64 // ack latency per write
	readMS    []float64 // read-after-write latency
	lagMS     []float64 // ack → observed, when the read observes it
	facts     int       // acknowledged facts
	elapsed   time.Duration
	attempted int
	failed    int
	errs      []string
}

func (s *opStats) fail(msg string) {
	s.failed++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, msg)
	}
}

// run drives the session for d.
func (s *session) run(ctx context.Context, d time.Duration) opStats {
	var st opStats
	start := time.Now()
	for time.Since(start) < d && ctx.Err() == nil {
		s.step(&st)
	}
	st.elapsed = time.Since(start)
	s.stat.merge(st)
	return st
}

func (s *opStats) merge(o opStats) {
	s.writeMS = append(s.writeMS, o.writeMS...)
	s.readMS = append(s.readMS, o.readMS...)
	s.lagMS = append(s.lagMS, o.lagMS...)
	s.facts += o.facts
	s.elapsed += o.elapsed
	s.attempted += o.attempted
	s.failed += o.failed
	for _, e := range o.errs {
		if len(s.errs) < 5 {
			s.errs = append(s.errs, e)
		}
	}
}

// step performs one write and its read-after-write.
func (s *session) step(st *opStats) {
	b := s.in.batch(s.next)
	s.next++
	var ins, ret []fact
	kind := "insert"
	if b.Retract {
		ret, kind = b.Facts, "retract"
	} else {
		ins = b.Facts
	}

	req := s.tr.id()
	rt := s.tr.id()
	st.attempted++
	t0 := time.Now()
	resp, _, err := postFacts(s.write, s.primary.url, ins, ret, nil, callOpts{req: req, parent: rt})
	acked := time.Now()
	s.tr.finish(rt, req, 0, "http.roundtrip", t0, acked, "write "+kind)
	switch {
	case err != nil:
		st.fail("write: " + err.Error())
		return
	case !b.Retract && resp.Added != len(b.Facts), b.Retract && resp.Retracted != len(b.Facts):
		st.fail("write: not every fact applied")
	}
	s.model.apply(&b)
	s.acks = append(s.acks, ack{batch: &b, at: acked})
	if s.onAck != nil {
		s.onAck()
	}
	st.writeMS = append(st.writeMS, ms(acked.Sub(t0)))
	st.facts += len(b.Facts)
	if s.tw != nil {
		s.recorder.write(req, &b, acked.Sub(t0), s.tw.write(s.tr, req, &b))
	}

	// Read the write back. A follower read waits, server-side, until the
	// follower has applied the primary's epoch as of the ack.
	var o callOpts
	if s.reader != s.primary {
		o.atEpoch = s.primary.eng.DB().Epoch()
	}
	rreq := s.tr.id()
	o.req, o.parent = rreq, s.tr.id()
	st.attempted++
	r0 := time.Now()
	qr, _, err := query(s.read, s.reader.url, b.Read, o)
	r1 := time.Now()
	s.tr.finish(o.parent, rreq, 0, "http.roundtrip", r0, r1, "read after "+kind)
	if err != nil {
		st.fail("read-after-write: " + err.Error())
		return
	}
	if hasRow(qr.Answers, b.Row) == b.Retract {
		st.fail("read-after-write: " + b.Read + " " + kind + " of " + strings.Join(b.Row, ",") + " not visible")
		return
	}
	st.readMS = append(st.readMS, ms(r1.Sub(r0)))
	if s.in.Subscribe == "" {
		st.lagMS = append(st.lagMS, ms(r1.Sub(acked)))
	}
	if s.recorder != nil {
		s.recorder.read(s.tr, s.tw, rreq, b.Read, "after-"+kind, ms(r1.Sub(r0)), r0, r1, o.parent, qr)
	}
}

// subscriptionLags matches each acknowledged write that changes the
// subscribed query to the first event showing its change, and returns
// ack → arrival in milliseconds. A write whose change was coalesced
// away (added and removed between two events) has no lag; it is
// counted in unobserved.
func subscriptionLags(acks []ack, events []subEvent) (lags []float64, unobserved int) {
	added := make(map[string]time.Time)
	removed := make(map[string]time.Time)
	for _, ev := range events[1:] { // events[0] is the initial snapshot
		for _, r := range ev.Add {
			k := strings.Join(r, ",")
			if _, ok := added[k]; !ok {
				added[k] = ev.At
			}
		}
		for _, r := range ev.Remove {
			k := strings.Join(r, ",")
			if _, ok := removed[k]; !ok {
				removed[k] = ev.At
			}
		}
	}
	for _, a := range acks {
		b := a.batch
		if len(b.SubRows) == 0 {
			continue
		}
		seen := added
		if b.Retract {
			seen = removed
		}
		at, ok := seen[strings.Join(b.SubRows[0], ",")]
		if !ok {
			unobserved++
			continue
		}
		lags = append(lags, max(0, ms(at.Sub(a.at))))
	}
	return lags, unobserved
}

// fold applies a subscription's events to an answer set.
func fold(events []subEvent) map[string]bool {
	set := make(map[string]bool)
	for _, ev := range events {
		for _, r := range ev.Remove {
			delete(set, strings.Join(r, ","))
		}
		for _, r := range ev.Add {
			set[strings.Join(r, ",")] = true
		}
	}
	return set
}

// waitFolded waits until the subscriber's folded answers equal a fresh
// query's, and reports whether they did within the wait.
func waitFolded(sub *subscriber, c *http.Client, base, q string, wait time.Duration) (bool, error) {
	deadline := time.Now().Add(wait)
	for {
		qr, _, err := query(c, base, q, callOpts{})
		if err != nil {
			return false, err
		}
		evs, serr := sub.snapshot()
		if serr != nil {
			return false, serr
		}
		got := fold(evs)
		want := rowKeys(qr.Answers)
		same := len(got) == len(want)
		for _, k := range want {
			same = same && got[k]
		}
		if same {
			return true, nil
		}
		if time.Now().After(deadline) {
			return false, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// awaitEpoch waits until eng has applied at least epoch.
func awaitEpoch(eng *onesided.Engine, epoch uint64, wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	for eng.DB().Epoch() < epoch {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
