package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed call the benchmark made (or, for
// server.ServeHTTP, one it served) at a layer boundary. Spans of one
// operation share Req; Parent links a span to the span that caused it.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Req    int64   `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // since the tracer started
	End    float64 `json:"end_us"`
	Note   string  `json:"note,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay only a nil check.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id allocates a span or request id.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

func (t *tracer) at(tm time.Time) float64 { return us(tm.Sub(t.t0)) }

// record stores a finished span and returns its id.
func (t *tracer) record(req, parent int64, name string, start, end time.Time, note string) int64 {
	id := t.id()
	t.finish(id, req, parent, name, start, end, note)
	return id
}

// finish records a span under an id taken earlier with id, for a span
// whose children were recorded before it ended.
func (t *tracer) finish(id, req, parent int64, name string, start, end time.Time, note string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: t.at(start), End: t.at(end), Note: note})
	t.mu.Unlock()
}

// traceHeader carries "req/parent" from the client's round-trip span to
// the server-side span that serves it.
const traceHeader = "X-Perfbench-Span"

// wrap records a server.ServeHTTP span around h for every request that
// carries a trace header.
func (t *tracer) wrap(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		v := r.Header.Get(traceHeader)
		if v == "" {
			h.ServeHTTP(w, r)
			return
		}
		req, parent := parseTraceHeader(v)
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(req, parent, "server.ServeHTTP", start, time.Now(), r.URL.Path)
	})
}

func traceHeaderValue(req, parent int64) string {
	return strconv.FormatInt(req, 10) + "/" + strconv.FormatInt(parent, 10)
}

func parseTraceHeader(v string) (req, parent int64) {
	a, b, _ := strings.Cut(v, "/")
	req, _ = strconv.ParseInt(a, 10, 64)
	parent, _ = strconv.ParseInt(b, 10, 64)
	return req, parent
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time in microseconds: its duration
// minus the part of its interval that its children cover.
func selfTimes(spans []span) map[int64]float64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]float64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB float64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
