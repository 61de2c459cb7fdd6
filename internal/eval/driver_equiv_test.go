package eval

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/storage"
)

// driverProgram is one context-mode recursion with acyclic data, the
// queries the drivers evaluate on it, and the facts a maintenance pass
// inserts.
type driverProgram struct {
	name, src, pred string
	db              func() *storage.Database
	batch           []string   // k=4 batch; the first is the single query
	inserts         [][]string // (pred, consts...) facts for Update
}

// driverRun is what one driver produced: answers (sorted, per query for
// batches) and the pinned EvalStats counters.
type driverRun struct {
	answers string
	stats   [5]int // Iterations, SeenSize, GProbes, Batches, BatchQueries
}

func pinStats(s EvalStats) [5]int {
	return [5]int{s.Iterations, s.SeenSize, s.GProbes, s.Batches, s.BatchQueries}
}

func sortedAnswers(rel *storage.Relation, syms *storage.SymbolTable) string {
	return strings.Join(AnswerStrings(rel, syms), " ")
}

// anchoredSrc's factor group d(Z) binds a free head variable, so every
// answer crosses in d's tuples: the shape Counting used to reject.
const anchoredSrc = `
	p(X, Z) :- a(X, W), d(Z), p(W, V).
	p(X, Z) :- b(X, Z).
`

func driverPrograms() []driverProgram {
	return []driverProgram{
		{
			name: "tc", src: tcSrc, pred: "t",
			db:      func() *storage.Database { return dagDB(6, 40) },
			batch:   []string{"t(v0x0, Y)", "t(v0x1, Y)", "t(v2x5, Y)", "t(v5x3, Y)"},
			inserts: [][]string{{"a", "v4x0", "m1"}, {"b", "m1", "sink7"}, {"b", "v3x2", "sink8"}, {"a", "v0x0", "v1x20"}},
		},
		{
			name: "permissions", pred: "t",
			src: `t(X, Y) :- a(X, Z), t(Z, Y), p(X, Y).
			      t(X, Y) :- b(X, Y).`,
			db: func() *storage.Database {
				db := storage.NewDatabase()
				for i := 0; i < 40; i++ {
					for _, j := range []int{i + 1, i + 3} {
						if j < 40 {
							db.AddFact("a", fmt.Sprint("n", i), fmt.Sprint("n", j))
						}
					}
					db.AddFact("p", fmt.Sprint("n", i), "v")
					if i%2 == 0 {
						db.AddFact("p", fmt.Sprint("n", i), "w")
					}
					if i < 30 {
						db.AddFact("p", fmt.Sprint("n", i), "u")
					}
				}
				db.AddFact("b", "n39", "v")
				db.AddFact("b", "n39", "w")
				db.AddFact("b", "n25", "u")
				return db
			},
			batch: []string{"t(n0, Y)", "t(n1, Y)", "t(n20, Y)", "t(n26, Y)"},
			inserts: [][]string{{"a", "n38", "n40"}, {"b", "n40", "v"}, {"b", "n12", "q"},
				{"p", "n0", "q"}, {"p", "n3", "q"}, {"p", "n6", "q"}, {"p", "n9", "q"}, {"p", "n12", "q"}},
		},
		{
			name: "example3.4", pred: "t",
			src: `t(X, Y, Z) :- t(X, U, W), e(U, Y), d(Z).
			      t(X, Y, Z) :- t0(X, Y, Z).`,
			db: func() *storage.Database {
				db := storage.NewDatabase()
				for i := 0; i < 40; i++ {
					db.AddFact("e", fmt.Sprint("u", i+1), fmt.Sprint("u", i))
					db.AddFact("e", fmt.Sprint("u", i+2), fmt.Sprint("u", i))
					if i%5 == 0 {
						db.AddFact("t0", fmt.Sprint("x", i), fmt.Sprint("u", i), "w")
					}
				}
				db.AddFact("d", "z1")
				db.AddFact("d", "z2")
				return db
			},
			batch: []string{"t(X, u0, Z)", "t(X, u3, Z)", "t(X, u20, Z)", "t(X, u41, Z)"},
		},
		{
			name: "anchored", src: anchoredSrc, pred: "p",
			db: func() *storage.Database {
				db := storage.NewDatabase()
				for i := 0; i < 40; i++ {
					db.AddFact("a", fmt.Sprint("c", i), fmt.Sprint("c", i+1))
					if i+2 <= 40 {
						db.AddFact("a", fmt.Sprint("c", i), fmt.Sprint("c", i+2))
					}
				}
				db.AddFact("b", "c40", "k0")
				db.AddFact("d", "k1")
				db.AddFact("d", "k2")
				return db
			},
			batch: []string{"p(c0, Z)", "p(c5, Z)", "p(c40, Z)", "p(c41, Z)"},
		},
	}
}

// runDrivers evaluates prog's queries through every context-mode driver
// with the given worker bound. The Fig. 9 row also records the
// streamed answer order.
func runDrivers(t *testing.T, prog driverProgram, workers int) map[string]driverRun {
	t.Helper()
	ctx := context.Background()
	d := mustDef(t, prog.src, prog.pred)
	skel := ast.Skeletonize(parser.MustParseAtom(prog.batch[0]))
	sp, err := CompileSelection(d, skel.Atom)
	if err != nil {
		t.Fatal(err)
	}
	sp.Workers = workers
	if sp.Mode != ModeContext {
		t.Fatalf("%s: mode %v, want context", prog.name, sp.Mode)
	}
	bindOf := func(q string) []ast.Term { return ast.Skeletonize(parser.MustParseAtom(q)).Consts }
	plan, err := sp.Bind(bindOf(prog.batch[0]))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]driverRun)

	db := prog.db()
	var stream []string
	inc, err := plan.Open(ctx, db, func(tup storage.Tuple) bool {
		parts := make([]string, len(tup))
		for i, v := range tup {
			parts[i] = db.Syms.Name(v)
		}
		stream = append(stream, strings.Join(parts, ","))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	out["fig9"] = driverRun{sortedAnswers(inc.Answers(), db.Syms), pinStats(inc.Stats())}
	if workers == 1 {
		out["fig9-stream"] = driverRun{answers: strings.Join(stream, " ")}
	}

	if len(prog.inserts) > 0 {
		err := inc.Update(ctx, db, deltaOf(db, prog.inserts...))
		if err != nil {
			t.Fatalf("%s: update: %v", prog.name, err)
		}
		out["update"] = driverRun{sortedAnswers(inc.Answers(), db.Syms), pinStats(inc.Stats())}
	} else if _, fixed := inc.(*fixedState); !fixed {
		t.Fatalf("%s: expected a fixed (rebuild-on-change) state", prog.name)
	}

	db = prog.db()
	for _, k := range []int{1, 4} {
		binds := make([][]ast.Term, k)
		for i := range binds {
			binds[i] = bindOf(prog.batch[i])
		}
		rels, st, err := sp.EvalBatchCtx(ctx, db, binds)
		if err != nil {
			t.Fatal(err)
		}
		per := make([]string, k)
		for i, r := range rels {
			per[i] = "[" + sortedAnswers(r, db.Syms) + "]"
		}
		out[fmt.Sprintf("batch%d", k)] = driverRun{strings.Join(per, " "), pinStats(st)}
	}

	if ans, st, err := plan.EvalCounting(ctx, db, 100); err != nil {
		out["counting"] = driverRun{answers: "error: " + err.Error()}
	} else {
		out["counting"] = driverRun{sortedAnswers(ans, db.Syms), pinStats(st)}
	}
	return out
}

// TestDriverEquivalence pins every context-mode driver — Fig. 9 Open,
// incremental Update after inserts, EvalBatch with k=1 and k=4, and
// Counting on acyclic data — to fixed answers and EvalStats counters,
// sequentially and with a parallel worker pool. The drivers share one
// f-step, one g-step and one answer assembly; this table is what keeps
// them observably identical. The streamed order is pinned for the
// sequential Fig. 9 run.
func TestDriverEquivalence(t *testing.T) {
	for _, prog := range driverPrograms() {
		want := driverWant[prog.name]
		for _, workers := range []int{1, 4} {
			got := runDrivers(t, prog, workers)
			for driver, g := range got {
				w, ok := want[driver]
				if !ok {
					t.Errorf("%s/%s (workers=%d): no pinned value; got %+v", prog.name, driver, workers, g)
					continue
				}
				if g != w {
					t.Errorf("%s/%s (workers=%d):\n got %+v\nwant %+v", prog.name, driver, workers, g, w)
				}
			}
			if got["fig9"].answers != got["counting"].answers {
				t.Errorf("%s (workers=%d): counting %q != Fig. 9 %q", prog.name, workers, got["counting"].answers, got["fig9"].answers)
			}
		}
	}
}

// TestCountingAnchoredGroup: Counting crosses an anchored factor group,
// d(Z), into its answers exactly like Fig. 9.
func TestCountingAnchoredGroup(t *testing.T) {
	d := mustDef(t, anchoredSrc, "p")
	db := storage.NewDatabase()
	db.AddFact("a", "c0", "c1")
	db.AddFact("b", "c1", "x")
	db.AddFact("d", "k1")
	db.AddFact("d", "k2")
	plan, err := CompileSelection(d, parser.MustParseAtom("p(c0, Z)"))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := evalPlan(plan, db)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := plan.EvalCounting(context.Background(), db, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s := sortedAnswers(got, db.Syms); s != "c0,k1 c0,k2" || !got.Equal(want) {
		t.Fatalf("counting %q, Fig. 9 %v", s, AnswerStrings(want, db.Syms))
	}
}

// driverWant pins each driver's answers and counters. Counting keeps
// per-level state, so its Iterations and SeenSize differ from Fig. 9's
// while its answers match on this acyclic data.
var driverWant = map[string]map[string]driverRun{
	"tc": {
		"batch1":      {"[v0x0,sink0 v0x0,sink1]", [5]int{5, 20, 21, 6, 1}},
		"batch4":      {"[v0x0,sink0 v0x0,sink1] [v0x1,sink0 v0x1,sink1] [v2x5,sink0 v2x5,sink1] [v5x3,sink1]", [5]int{5, 31, 35, 6, 4}},
		"counting":    {"v0x0,sink0 v0x0,sink1", [5]int{5, 20, 0, 0, 0}},
		"fig9":        {"v0x0,sink0 v0x0,sink1", [5]int{5, 20, 21, 6, 0}},
		"fig9-stream": {"v0x0,sink0 v0x0,sink1", [5]int{0, 0, 0, 0, 0}},
		"update":      {"v0x0,sink0 v0x0,sink1 v0x0,sink7 v0x0,sink8", [5]int{10, 36, 58, 12, 0}},
	},
	"permissions": {
		"batch1":      {"[n0,u n0,v]", [5]int{14, 73, 74, 15, 1}},
		"batch4":      {"[n0,u n0,v] [n1,u n1,v] [n20,u n20,v] [n26,v]", [5]int{14, 77, 81, 15, 4}},
		"counting":    {"n0,u n0,v", [5]int{39, 483, 0, 0, 0}},
		"fig9":        {"n0,u n0,v", [5]int{14, 73, 74, 15, 0}},
		"fig9-stream": {"n0,u n0,v", [5]int{0, 0, 0, 0, 0}},
		"update":      {"n0,q n0,u n0,v", [5]int{19, 84, 159, 21, 0}},
	},
	"example3.4": {
		"batch1":      {"[x0,u0,w x10,u0,z1 x10,u0,z2 x15,u0,z1 x15,u0,z2 x20,u0,z1 x20,u0,z2 x25,u0,z1 x25,u0,z2 x30,u0,z1 x30,u0,z2 x35,u0,z1 x35,u0,z2 x5,u0,z1 x5,u0,z2]", [5]int{21, 41, 42, 22, 1}},
		"batch4":      {"[x0,u0,w x10,u0,z1 x10,u0,z2 x15,u0,z1 x15,u0,z2 x20,u0,z1 x20,u0,z2 x25,u0,z1 x25,u0,z2 x30,u0,z1 x30,u0,z2 x35,u0,z1 x35,u0,z2 x5,u0,z1 x5,u0,z2] [x10,u3,z1 x10,u3,z2 x15,u3,z1 x15,u3,z2 x20,u3,z1 x20,u3,z2 x25,u3,z1 x25,u3,z2 x30,u3,z1 x30,u3,z2 x35,u3,z1 x35,u3,z2 x5,u3,z1 x5,u3,z2] [x20,u20,w x25,u20,z1 x25,u20,z2 x30,u20,z1 x30,u20,z2 x35,u20,z1 x35,u20,z2] []", [5]int{21, 41, 45, 22, 4}},
		"counting":    {"x0,u0,w x10,u0,z1 x10,u0,z2 x15,u0,z1 x15,u0,z2 x20,u0,z1 x20,u0,z2 x25,u0,z1 x25,u0,z2 x30,u0,z1 x30,u0,z2 x35,u0,z1 x35,u0,z2 x5,u0,z1 x5,u0,z2", [5]int{40, 460, 0, 0, 0}},
		"fig9":        {"x0,u0,w x10,u0,z1 x10,u0,z2 x15,u0,z1 x15,u0,z2 x20,u0,z1 x20,u0,z2 x25,u0,z1 x25,u0,z2 x30,u0,z1 x30,u0,z2 x35,u0,z1 x35,u0,z2 x5,u0,z1 x5,u0,z2", [5]int{21, 41, 42, 22, 0}},
		"fig9-stream": {"x0,u0,w x5,u0,z2 x5,u0,z1 x10,u0,z2 x10,u0,z1 x15,u0,z2 x15,u0,z1 x20,u0,z2 x20,u0,z1 x25,u0,z2 x25,u0,z1 x30,u0,z2 x30,u0,z1 x35,u0,z2 x35,u0,z1", [5]int{0, 0, 0, 0, 0}},
	},
	"anchored": {
		"batch1":      {"[c0,k1 c0,k2]", [5]int{20, 40, 41, 21, 1}},
		"batch4":      {"[c0,k1 c0,k2] [c5,k1 c5,k2] [c40,k0] []", [5]int{20, 40, 44, 21, 4}},
		"counting":    {"c0,k1 c0,k2", [5]int{40, 440, 0, 0, 0}},
		"fig9":        {"c0,k1 c0,k2", [5]int{20, 40, 41, 21, 0}},
		"fig9-stream": {"c0,k1 c0,k2", [5]int{0, 0, 0, 0, 0}},
	},
}
