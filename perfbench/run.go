package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	onesided "repro"
)

// spec is how one workload is driven and judged.
type spec struct {
	// ladder is the fixed set of open-loop read rates, and limitMS the
	// read tail-latency limit a rate must meet.
	ladder  ladder
	limitMS float64
	// readFrac and probeFrac are the shares of the measured seconds
	// spent at the ladder's first rate and on the search above it; the
	// write session gets the rest.
	readFrac, probeFrac float64
	// sessionReads says read latency is that of the session's
	// read-after-write reads rather than of the open loop.
	sessionReads bool
	follower     bool
}

var specs = map[string]spec{
	// Fifteen bound queries over the five example programs. The keys fit
	// the result cache, so parse, bind, cache hit and HTTP/JSON are the
	// whole cost; the limit sits far above a cached read, so the ladder
	// finds the rate where the backlog starts to grow.
	"hot-read": {
		ladder: ladder{First: 2500, Step: 1.08, Steps: 32}, limitMS: 20,
		readFrac: 0.3, probeFrac: 0.45,
	},
	// Deep-chain, wide-graph and same-generation queries on keys 50x the
	// result cache: Fig. 9, Magic Sets and storage probes dominate. A
	// deep read alone takes up to ~25ms.
	"cold-read": {
		ladder: ladder{First: 35, Step: 1.07, Steps: 32}, limitMS: 150,
		readFrac: 0.35, probeFrac: 0.4,
	},
	// SyncAlways writes alternating with read-after-write bf reads, plus
	// a DRed-maintained fb subscription: the WAL, incremental maintenance
	// and the context-mode rebuild after a retract.
	"write-mix": {
		ladder: ladder{First: 2500, Step: 1.08, Steps: 32}, limitMS: 20,
		readFrac: 0.1, probeFrac: 0.3, sessionReads: true,
	},
	// Writes to a SyncAlways primary read back on a log-shipping follower
	// with X-At-Epoch: replica apply and the epoch barrier.
	"follower-read": {
		ladder: ladder{First: 2500, Step: 1.08, Steps: 32}, limitMS: 20,
		readFrac: 0.1, probeFrac: 0.3, sessionReads: true, follower: true,
	},
}

// conns is the generator's connection count: one per hardware thread,
// at most two.
var conns = min(2, runtime.NumCPU())

// system is one self-hosted deployment of a workload.
type system struct {
	in       *inputs
	primary  *node
	follower *node
	conn     []*http.Client
}

// reads is the node reads go to: the follower when there is one.
func (s *system) reads() *node {
	if s.follower != nil {
		return s.follower
	}
	return s.primary
}

// setup brings a workload's deployment up: primary (and follower),
// facts and rules ingested over HTTP, caches warmed.
func setup(in *inputs, sp spec, workdir string, tr *tracer) (*system, error) {
	sys := &system{in: in}
	for i := 0; i < max(conns, 2); i++ {
		sys.conn = append(sys.conn, newConn())
	}
	var err error
	if sys.primary, err = startPrimary(workdir, sp.follower, tr); err != nil {
		return nil, err
	}
	if err := ingest(sys.conn[0], sys.primary.url, in); err != nil {
		sys.close()
		return nil, err
	}
	if sp.follower {
		if sys.follower, err = startFollower(workdir, sys.primary, tr); err != nil {
			sys.close()
			return nil, err
		}
		if !awaitEpoch(sys.follower.eng, sys.primary.eng.DB().Epoch(), 60*time.Second) {
			sys.close()
			return nil, fmt.Errorf("follower did not catch up")
		}
	}
	// The follower applies the rules after the facts; retry its first
	// reads until they plan.
	deadline := time.Now().Add(30 * time.Second)
	for _, q := range in.Warm {
		for {
			_, _, err := query(sys.conn[0], sys.reads().url, q, callOpts{})
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				sys.close()
				return nil, fmt.Errorf("warm %s: %w", q, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return sys, nil
}

func (s *system) close() error {
	for _, c := range s.conn {
		c.CloseIdleConnections()
	}
	err := s.follower.close()
	if perr := s.primary.close(); err == nil {
		err = perr
	}
	return err
}

// liveHeapMB is the live heap after a full collection, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// sample is one read answer kept for the oracle comparison.
type sample struct {
	query string
	rows  []string
}

// reader issues the open-loop reads of one deployment, keeping every
// sampleEvery-th answer for the oracle.
type reader struct {
	sys      *system
	offset   int // position in the read stream, advanced per phase
	mu       sync.Mutex
	samples  []sample
	rejected atomic.Int64 // 503 and 425 answers
	tr       *tracer
	tw       *twin
	rec      *recorder
}

const sampleEvery = 4

// maxLate stops an open-loop phase whose backlog has run away.
const maxLate = 500 * time.Millisecond

func (r *reader) do(base int) func(c, i int, due time.Time) bool {
	return func(c, i int, due time.Time) bool {
		rd := r.sys.in.Reads[(base+i)%len(r.sys.in.Reads)]
		var o callOpts
		var root int64
		if r.tr != nil {
			o.req, root, o.parent = r.tr.id(), r.tr.id(), r.tr.id()
		}
		sent := time.Now()
		qr, code, err := query(r.sys.conn[c], r.sys.reads().url, rd.Query, o)
		done := time.Now()
		if code == http.StatusServiceUnavailable || code == http.StatusTooEarly {
			r.rejected.Add(1)
		}
		if err != nil {
			return false
		}
		if r.tr != nil {
			r.tr.record(o.req, root, "gen.wait", due, sent, "")
			r.tr.finish(o.parent, o.req, root, "http.roundtrip", sent, done, "")
			r.tr.finish(root, o.req, 0, "read", due, done, rd.Class)
			r.rec.read(r.tr, r.tw, o.req, rd.Query, "read", ms(done.Sub(due)), sent, done, o.parent, qr)
		}
		if i%sampleEvery == 0 {
			r.mu.Lock()
			r.samples = append(r.samples, sample{rd.Query, rowKeys(qr.Answers)})
			r.mu.Unlock()
		}
		return true
	}
}

// loop runs one open-loop phase and advances the read stream past it.
func (r *reader) loop(ctx context.Context, rate float64, d time.Duration) loopResult {
	base := r.offset
	res := runOpenLoop(ctx, conns, rate, d, maxLate, r.do(base))
	r.offset += int(rate*d.Seconds()) + 1
	return res
}

// checkSamples compares the kept answers with the oracle's and returns
// the number that differ.
func (r *reader) checkSamples(in *inputs, errs *[]string) (checked, wrong int, err error) {
	if len(r.samples) == 0 {
		return 0, 0, nil
	}
	o, err := newOracle(in)
	if err != nil {
		return 0, 0, err
	}
	cache := make(map[string][]string)
	for _, s := range r.samples {
		want, ok := cache[s.query]
		if !ok {
			if want, err = o.answers(s.query); err != nil {
				return checked, wrong, err
			}
			cache[s.query] = want
		}
		checked++
		if !equalStrings(s.rows, want) {
			wrong++
			if len(*errs) < 5 {
				*errs = append(*errs, fmt.Sprintf("%s: got %d rows, oracle %d", s.query, len(s.rows), len(want)))
			}
		}
	}
	return checked, wrong, nil
}

// phaseReport summarizes one open-loop phase for the detail line.
type phaseReport struct {
	Name       string  `json:"name"`
	Rate       float64 `json:"rate"`
	Throughput float64 `json:"throughput"`
	P50MS      float64 `json:"p50_ms"`
	Tail       tail    `json:"tail_ms"`
	LateP50MS  float64 `json:"late_p50_ms"`
	LateTail   tail    `json:"late_tail_ms"`
	Failed     int     `json:"failed"`
	Aborted    bool    `json:"aborted"`
	Meets      bool    `json:"meets"`
}

func report(name string, r loopResult, limitMS float64) phaseReport {
	lat := r.latenciesMS()
	late := r.lateMS()
	return phaseReport{Name: name, Rate: r.Rate, Throughput: r.throughput(),
		P50MS: median(lat), Tail: percentile(lat, 0.99),
		LateP50MS: median(late), LateTail: percentile(late, 0.99),
		Failed: r.failed(), Aborted: r.Aborted, Meets: r.meets(limitMS)}
}

// outcome of the end-of-run checks.
type checks struct {
	Sampled      int      `json:"answers_checked"`
	Wrong        int      `json:"answers_wrong"`
	SubFolded    *bool    `json:"subscription_folded_ok,omitempty"`
	Unobserved   int      `json:"writes_unobserved_by_subscriber"`
	FollowerDump *bool    `json:"follower_dump_ok,omitempty"`
	Recovered    bool     `json:"recovery_ok"`
	RecoverUS    float64  `json:"recover_us"`
	Records      uint64   `json:"wal_records"`
	Errors       []string `json:"errors,omitempty"`
}

func (c *checks) failures() int {
	n := c.Wrong
	if c.SubFolded != nil && !*c.SubFolded {
		n++
	}
	if c.FollowerDump != nil && !*c.FollowerDump {
		n++
	}
	if !c.Recovered {
		n++
	}
	return n
}

// finish runs the end-of-run checks and tears the deployment down:
// the subscription's folded answers against a fresh query, the
// follower's Dump against the primary's, sampled answers against the
// oracle, and a WAL recovery into a fresh engine against the model of
// acknowledged writes.
func finish(sys *system, sess *session, sub *subscriber, rd *reader) (checks, error) {
	var c checks
	if sub != nil {
		ok, err := waitFolded(sub, sys.conn[0], sys.primary.url, sys.in.Subscribe, 10*time.Second)
		if err != nil {
			c.Errors = append(c.Errors, "subscription: "+err.Error())
		}
		c.SubFolded = &ok
		sub.stop()
	}
	if sys.follower != nil {
		ok := awaitEpoch(sys.follower.eng, sys.primary.eng.DB().Epoch(), 10*time.Second)
		deadline := time.Now().Add(10 * time.Second)
		for ok && sys.follower.eng.DB().Dump() != sys.primary.eng.DB().Dump() {
			if time.Now().After(deadline) {
				ok = false
			}
			time.Sleep(5 * time.Millisecond)
		}
		c.FollowerDump = &ok
	}
	if lg := sys.primary.eng.Log(); lg != nil {
		c.Records = lg.CommitStats().Records
	}
	// Close everything, keeping the primary's WAL directory, and
	// recover it into a fresh engine.
	dir := sys.primary.dir
	sys.primary.dir = ""
	if err := sys.close(); err != nil {
		return c, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	eng, err := onesided.Open(onesided.WithPersistence(dir))
	if err != nil {
		return c, fmt.Errorf("recovery: %w", err)
	}
	c.RecoverUS = us(time.Since(t0))
	if d := sess.model.diff(dbFacts(eng.DB())); d != "" {
		c.Errors = append(c.Errors, "recovery: "+d)
	} else {
		c.Recovered = true
	}
	if err := eng.Close(); err != nil {
		return c, err
	}
	var err2 error
	c.Sampled, c.Wrong, err2 = rd.checkSamples(sys.in, &c.Errors)
	return c, err2
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finite maps a latency that includes failed requests (+Inf) to a large
// finite number, so that the result stays valid JSON.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 1e9
	}
	return v
}

// runResult is what one run prints.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
