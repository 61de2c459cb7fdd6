package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

// encode renders inputs, with the session's first writes, byte for
// byte.
func encode(t *testing.T, in *inputs) []byte {
	var writes []batch
	for s := 0; s < 100; s++ {
		writes = append(writes, in.batch(s))
	}
	b, err := json.Marshal(struct {
		In     *inputs
		Writes []batch
	}{in, writes})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSameSeedSameInputs(t *testing.T) {
	for name := range specs {
		a, err := genInputs(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := genInputs(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(t, a), encode(t, b)) {
			t.Errorf("%s: seed 7 generated different inputs twice", name)
		}
		c, err := genInputs(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(encode(t, a), encode(t, c)) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	beyond := func(xs []float64, v float64) int {
		n := 0
		for _, x := range xs {
			if x > v {
				n++
			}
		}
		return n
	}
	for _, tc := range []struct {
		n       int
		wantPct float64
	}{
		{1000, 0.99},   // p99 itself has ten samples beyond
		{5000, 0.99},   // and more with a larger sample
		{500, 0.98},    // lowered: p99 would leave only five beyond
		{100, 0.90},    // lowered to p90
		{11, 1.0 / 11}, // the lowest sample still has ten beyond
	} {
		xs := seq(tc.n)
		got := percentile(xs, 0.99)
		if got.Pct != tc.wantPct || got.N != tc.n {
			t.Errorf("n=%d: pct %v n %d, want pct %v", tc.n, got.Pct, got.N, tc.wantPct)
		}
		if b := beyond(xs, got.Value); b < minBeyond {
			t.Errorf("n=%d: %d samples beyond the reported value, want >= %d", tc.n, b, minBeyond)
		}
		if got.Pct < 0.99 {
			if b := beyond(xs, got.Value+1); b >= minBeyond {
				t.Errorf("n=%d: a higher percentile still had %d samples beyond", tc.n, b)
			}
		}
	}
	if got := percentile(seq(5), 0.99); got.Pct != 1 || got.Value != 5 {
		t.Errorf("n=5: got %+v, want the maximum", got)
	}
}

// TestOpenLoopChargesStallsToLaterRequests stalls one request and
// checks that the requests due while it stalled are charged the wait,
// and that the generator reports how late it sent them.
func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	const stall = 150 * time.Millisecond
	res := runOpenLoop(context.Background(), 1, 200, 500*time.Millisecond, time.Second,
		func(c, i int, due time.Time) bool {
			if i == 10 {
				time.Sleep(stall)
			}
			return true
		})
	if len(res.Out) != 100 || res.failed() != 0 || res.Aborted {
		t.Fatalf("got %d requests, %d failed, aborted %v; want 100, 0, false", len(res.Out), res.failed(), res.Aborted)
	}
	byIndex := make(map[int]outcome)
	for _, o := range res.Out {
		byIndex[o.Index] = o
	}
	// Request 11 was due 5ms after request 10 started its 150ms stall.
	if l := byIndex[11].Latency(); l < stall-10*time.Millisecond {
		t.Errorf("request 11 latency %v does not include the stall", l)
	}
	if l := byIndex[11].Late(); l < stall-10*time.Millisecond {
		t.Errorf("request 11 lateness %v does not show the stall", l)
	}
	// Long after the stall the generator is back on schedule.
	if l := byIndex[90].Late(); l > 5*time.Millisecond {
		t.Errorf("request 90 sent %v late", l)
	}
	if p := percentile(res.lateMS(), 0.99); p.Value < ms(stall)/2 {
		t.Errorf("reported lateness tail %.1fms hides the stall", p.Value)
	}
}

func TestOpenLoopAbortsRunawayBacklog(t *testing.T) {
	res := runOpenLoop(context.Background(), 1, 1000, time.Second, 20*time.Millisecond,
		func(c, i int, due time.Time) bool { time.Sleep(2 * time.Millisecond); return true })
	if !res.Aborted || !res.backlogGrew(10) {
		t.Fatalf("aborted %v backlogGrew %v, want both", res.Aborted, res.backlogGrew(10))
	}
}

func TestSLOSearchFindsHighestPassingRate(t *testing.T) {
	l := ladder{First: 10, Step: 1.1, Steps: 32}
	capacity := 100.0
	best, probes := sloSearch(l, 5, func(rate float64) loopResult {
		lat := 1.0
		if rate > capacity {
			lat = 50
		}
		r := loopResult{Rate: rate, Duration: time.Second}
		for i := 0; i < 100; i++ {
			r.Out = append(r.Out, outcome{Index: i, Due: time.Duration(i) * time.Millisecond,
				Sent: time.Duration(i) * time.Millisecond,
				Done: time.Duration(float64(i)+lat) * time.Millisecond, OK: true})
		}
		return r
	})
	if best == nil {
		t.Fatal("no passing rate found")
	}
	if best.Rate > capacity || best.Rate*l.Step <= capacity {
		t.Errorf("best rate %.1f, want the highest ladder rate <= %.0f", best.Rate, capacity)
	}
	// Each rate above capacity that the bisection visits is tried twice.
	fails := 0
	for _, p := range probes {
		if p.Rate > capacity {
			fails++
		}
	}
	if len(probes) != 5+fails/2 || fails%2 != 0 {
		t.Errorf("%d probes with %d misses, want log2(32) = 5 rates, misses tried twice", len(probes), fails)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past root
	}
	self := selfTimes(spans)
	if self[1] != 100-40-10 {
		t.Errorf("root self %v, want 50", self[1])
	}
	if self[2] != 30 {
		t.Errorf("leaf self %v, want its duration", self[2])
	}
}
