package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/datagen"
	"repro/internal/storage"
)

// fact is one ground fact in the /v1/facts wire shape.
type fact struct {
	Pred string   `json:"pred"`
	Args []string `json:"args"`
}

// key renders a fact as one comparable string.
func (f fact) key() string { return f.Pred + "(" + strings.Join(f.Args, ",") + ")" }

// read is one query of a read stream and the class it belongs to.
type read struct {
	Query string `json:"query"`
	Class string `json:"class"`
}

// batch is one write of a session: the facts it inserts or retracts,
// and what the read-after-write must then show.
type batch struct {
	Retract bool   `json:"retract"`
	Facts   []fact `json:"facts"`
	// Read is the read-after-write query; it must answer Row after an
	// insert and must not after a retract.
	Read string   `json:"read"`
	Row  []string `json:"row"`
	// SubRows are the rows the write adds to (or, for a retract,
	// removes from) the subscribed query's answers.
	SubRows [][]string `json:"sub_rows,omitempty"`
}

// inputs is everything a workload sends, generated from its seed alone.
type inputs struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Rules    []string `json:"rules"`
	Facts    []fact   `json:"facts"`
	// Reads is the read stream the open loop cycles through; Warm are
	// queries issued once during set-up.
	Reads []read   `json:"reads"`
	Warm  []string `json:"warm"`
	// insert returns the session's insert k (see batch).
	insert func(k int) batch
	// Subscribe is the standing query held open during the session
	// (write-mix only).
	Subscribe string `json:"subscribe,omitempty"`
}

const (
	readStream   = 20000 // length of a generated read stream
	batchFacts   = 16    // facts per session write
	retractEvery = 8     // inserts per retracting write
)

// dump enumerates a datagen-built database as facts, prefixing every
// predicate so several programs share one engine.
func dump(db *storage.Database, prefix string, out []fact) []fact {
	for _, pred := range db.Preds() {
		for _, t := range db.Relation(pred).SortedTuples() {
			args := make([]string, len(t))
			for i, v := range t {
				args[i] = db.Syms.Name(v)
			}
			out = append(out, fact{Pred: prefix + pred, Args: args})
		}
	}
	return out
}

// genInputs builds the named workload's inputs from seed.
func genInputs(workload string, seed int64) (*inputs, error) {
	in := &inputs{Workload: workload, Seed: seed}
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case "hot-read":
		hotRead(in, rng)
	case "cold-read":
		coldRead(in, rng)
	case "write-mix":
		chainWrites(in, rng, 5000, true)
	case "follower-read":
		chainWrites(in, rng, 2000, false)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return in, nil
}

// hotRead is the five example programs as cmd/loadgen builds them, with
// their fifteen bound queries. The key set fits the result cache, so
// after warm-up every read is a cache hit.
func hotRead(in *inputs, rng *rand.Rand) {
	in.Rules = []string{
		"qs_t(X, Y) :- qs_a(X, Z), qs_t(Z, Y).",
		"qs_t(X, Y) :- qs_b(X, Y).",
		"fl_reach(X, Y) :- fl_flight(X, Z), fl_reach(Z, Y).",
		"fl_reach(X, Y) :- fl_ferry(X, Y).",
		"ge_sg(X, Y) :- ge_p(X, W), ge_p(Y, Z), ge_sg(W, Z).",
		"ge_sg(X, Y) :- ge_sg0(X, Y).",
		"mb_buys(X, Y) :- mb_knows(X, W), mb_buys(W, Y), mb_cheap(Y).",
		"mb_buys(X, Y) :- mb_likes(X, Y), mb_cheap(Y).",
		"ax_p(X1, X2) :- ax_c(X1), ax_p(X1, X2).",
		"ax_p(X1, X2) :- ax_c(X1), ax_p0(X1, X2).",
	}
	// Quickstart: transitive closure over a 200-node chain.
	db := storage.NewDatabase()
	_, last := datagen.Chain(db, "a", "qn", 200)
	in.Facts = dump(db, "qs_", in.Facts)
	in.Facts = append(in.Facts,
		fact{"qs_b", []string{last, "qend"}},
		fact{"qs_b", []string{"qn100", "qmid"}})
	// Flights: 400 airports, 1600 legs, 40 ferry links.
	db = storage.NewDatabase()
	datagen.RandomGraph(db, "flight", "apt", 400, 1600, 7)
	in.Facts = dump(db, "fl_", in.Facts)
	for i := 0; i < 40; i++ {
		in.Facts = append(in.Facts, fact{"fl_ferry",
			[]string{fmt.Sprintf("apt%d", i*10), fmt.Sprintf("island%d", i%5)}})
	}
	// Genealogy: same generation over 5 trees of depth 6 (Magic Sets).
	gdb, leafA, leafB := datagen.Genealogy(5, 6)
	in.Facts = dump(gdb, "ge_", in.Facts)
	// Market basket: the Section 3 buys/likes/cheap recursion.
	in.Facts = dump(datagen.Market(40, 5, 20, 3), "mb_", in.Facts)
	in.Facts = append(in.Facts, fact{"mb_likes", []string{"p7_5", "item2"}})
	// Appendix A: Example A.1's bounded recursion.
	for i := 0; i < 48; i++ {
		in.Facts = append(in.Facts,
			fact{"ax_c", []string{fmt.Sprintf("u%d", i)}},
			fact{"ax_p0", []string{fmt.Sprintf("u%d", i), fmt.Sprintf("v%d", i)}})
	}
	queries := []string{
		"qs_t(qn0, Y)", "qs_t(qn100, Y)", "qs_t(qn190, Y)",
		"fl_reach(apt0, Y)", "fl_reach(apt3, Y)", "fl_reach(apt17, Y)", "fl_reach(apt42, Y)",
		fmt.Sprintf("ge_sg(%s, Y)", leafA), fmt.Sprintf("ge_sg(%s, %s)", leafA, leafB),
		"mb_buys(p7_0, Y)", "mb_buys(p3_0, Y)", "mb_buys(p12_0, Y)",
		"ax_p(u0, Y)", "ax_p(u17, Y)", "ax_p(u31, Y)",
	}
	in.Warm = queries
	for i := 0; i < readStream; i++ {
		in.Reads = append(in.Reads, read{Query: queries[rng.Intn(len(queries))], Class: "hot"})
	}
	// The write phase adds and removes exits of the quickstart chain; a
	// new exit at qn150 answers qs_t(qn100, Y).
	in.insert = func(k int) batch {
		var fs []fact
		for j := 0; j < batchFacts; j++ {
			fs = append(fs, fact{"qs_b", []string{"qn150", fmt.Sprintf("hw%d_%d", k, j)}})
		}
		return batch{Facts: fs, Read: "qs_t(qn100, Y)", Row: []string{"qn100", fmt.Sprintf("hw%d_0", k)}}
	}
}

// coldRead cycles three query classes over keys spread uniformly over
// domains far larger than the 64-entry result cache: deep narrow
// (a 20k-node chain, exit at the tail), wide (a 4k-node, 16k-edge random
// graph with sparse exits) and two-sided (same generation, evaluated
// with Magic Sets). The graphs are fixed; the seed draws the keys.
func coldRead(in *inputs, rng *rand.Rand) {
	const deepN, wideN, wideM, wideExits, families, depth = 20000, 4000, 16000, 40, 50, 6
	in.Rules = []string{
		"dn_t(X, Y) :- dn_a(X, Z), dn_t(Z, Y).",
		"dn_t(X, Y) :- dn_b(X, Y).",
		"wd_t(X, Y) :- wd_a(X, Z), wd_t(Z, Y).",
		"wd_t(X, Y) :- wd_b(X, Y).",
		"sg_sg(X, Y) :- sg_p(X, W), sg_p(Y, Z), sg_sg(W, Z).",
		"sg_sg(X, Y) :- sg_sg0(X, Y).",
	}
	db := storage.NewDatabase()
	_, last := datagen.Chain(db, "a", "c", deepN)
	db.AddFact("b", last, "dnend")
	in.Facts = dump(db, "dn_", in.Facts)
	db = storage.NewDatabase()
	datagen.RandomGraph(db, "a", "w", wideN, wideM, 7)
	exits := rand.New(rand.NewSource(8))
	for i := 0; i < wideExits; i++ {
		db.AddFact("b", fmt.Sprintf("w%d", exits.Intn(wideN)), fmt.Sprintf("wx%d", i))
	}
	in.Facts = dump(db, "wd_", in.Facts)
	gdb, _, _ := datagen.Genealogy(families, depth)
	in.Facts = dump(gdb, "sg_", in.Facts)
	treeNodes := 1<<(depth+1) - 1
	in.Warm = []string{"dn_t(c0, Y)", "wd_t(w0, Y)", "sg_sg(f0_0, Y)"}
	deep, wide, sg := newSpread(rng, deepN), newSpread(rng, wideN), newSpread(rng, families*treeNodes)
	for i := 0; i < readStream; i++ {
		switch i % 3 {
		case 0:
			in.Reads = append(in.Reads, read{fmt.Sprintf("dn_t(c%d, Y)", deep.next()), "deep"})
		case 1:
			in.Reads = append(in.Reads, read{fmt.Sprintf("wd_t(w%d, Y)", wide.next()), "wide"})
		default:
			k := sg.next()
			in.Reads = append(in.Reads, read{fmt.Sprintf("sg_sg(f%d_%d, Y)", k/treeNodes, k%treeNodes), "sg"})
		}
	}
	// The write phase adds and removes exits at one wide-graph node,
	// which reaches most of the graph, and reads its answers back.
	const at = "w1"
	in.insert = func(k int) batch {
		var fs []fact
		for j := 0; j < batchFacts; j++ {
			fs = append(fs, fact{"wd_b", []string{at, fmt.Sprintf("cw%d_%d", k, j)}})
		}
		return batch{Facts: fs, Read: "wd_t(" + at + ", Y)", Row: []string{at, fmt.Sprintf("cw%d_0", k)}}
	}
}

// spread draws keys from [0, n): each key is uniform (the sequence
// starts at a random offset), and successive keys fall evenly over the
// domain (a golden-ratio Weyl sequence), so that a run's few hundred
// reads cover the domain about as well on every seed.
type spread struct {
	n   int
	pos float64
}

func newSpread(rng *rand.Rand, n int) *spread { return &spread{n: n, pos: rng.Float64()} }

func (s *spread) next() int {
	s.pos += 0.6180339887498949
	s.pos -= math.Floor(s.pos)
	return int(s.pos * float64(s.n))
}

// chainWrites is the write workloads' data: t over an n-edge chain with
// its exit at the tail, a small hot set of bf (context-mode) reads, and
// session batches that each add one exit behind every hot key plus
// entry edges into the chain. With subscribe set, the fb query
// t(X, cend) — maintained by DRed, one answer per chain node — is held
// open, and each batch's entry edges change its answers.
func chainWrites(in *inputs, rng *rand.Rand, n int, subscribe bool) {
	in.Rules = []string{
		"t(X, Y) :- a(X, Z), t(Z, Y).",
		"t(X, Y) :- b(X, Y).",
	}
	db := storage.NewDatabase()
	_, last := datagen.Chain(db, "a", "c", n)
	db.AddFact("b", last, "cend")
	in.Facts = dump(db, "", in.Facts)
	// One hot key in each quarter of the chain's first half, so that
	// every seed's hot set costs about the same to re-derive.
	const hot = 4
	var hotKeys []string
	for i := 0; i < hot; i++ {
		h := fmt.Sprintf("c%d", i*n/(2*hot)+rng.Intn(n/(2*hot)))
		hotKeys = append(hotKeys, h)
		in.Warm = append(in.Warm, "t("+h+", Y)")
	}
	for i := 0; i < readStream; i++ {
		in.Reads = append(in.Reads, read{"t(" + hotKeys[rng.Intn(hot)] + ", Y)", "hot"})
	}
	if subscribe {
		in.Subscribe = "t(X, cend)"
	}
	exitAt := fmt.Sprintf("c%d", n/2+rng.Intn(n/2))
	seed := in.Seed
	in.insert = func(k int) batch {
		// One hot key per insert-retract cycle: its reads after the
		// cycle's later inserts extend the maintained answers, while the
		// first read of the cycle and the read after the retract rebuild.
		h := hotKeys[(k/retractEvery)%hot]
		exit := fmt.Sprintf("y%d", k)
		fs := []fact{{"b", []string{exitAt, exit}}}
		var sub [][]string
		krng := rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
		for j := 1; j < batchFacts; j++ {
			x := fmt.Sprintf("x%d_%d", k, j)
			fs = append(fs, fact{"a", []string{x, fmt.Sprintf("c%d", krng.Intn(n))}})
			if subscribe {
				sub = append(sub, []string{x, "cend"})
			}
		}
		return batch{Facts: fs, Read: "t(" + h + ", Y)", Row: []string{h, exit}, SubRows: sub}
	}
}

// batch returns write s of the session. Writes come in cycles of
// retractEvery inserts followed by one write retracting all of them,
// so that most read-after-writes follow an insert and one in
// retractEvery+1 follows a retract.
func (in *inputs) batch(s int) batch {
	c, p := s/(retractEvery+1), s%(retractEvery+1)
	if p < retractEvery {
		return in.insert(c*retractEvery + p)
	}
	r := batch{Retract: true}
	for k := c * retractEvery; k < (c+1)*retractEvery; k++ {
		b := in.insert(k)
		if r.Read == "" {
			r.Read, r.Row = b.Read, b.Row
		}
		r.Facts = append(r.Facts, b.Facts...)
		r.SubRows = append(r.SubRows, b.SubRows...)
	}
	return r
}
