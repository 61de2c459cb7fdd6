package eval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/storage"
)

// deltaOf builds a Delta from (pred, consts...) fact specs, interning
// through the database's symbol table and inserting into the database
// too (the engine's contract: deltas describe inserts that already
// happened).
func deltaOf(db *storage.Database, facts ...[]string) Delta {
	byPred := make(map[string][]storage.Tuple)
	for _, f := range facts {
		pred, consts := f[0], f[1:]
		db.AddFact(pred, consts...)
		t := make(storage.Tuple, len(consts))
		for i, c := range consts {
			t[i] = db.Syms.Intern(c)
		}
		byPred[pred] = append(byPred[pred], t)
	}
	d := Delta{Add: make(map[string]*storage.Relation, len(byPred))}
	for pred, tuples := range byPred {
		rel := storage.NewRelation(len(tuples[0]), nil)
		for _, t := range tuples {
			rel.Insert(t)
		}
		d.Add[pred] = rel
	}
	return d
}

// prepareIncremental plans query with the one-sided strategy and builds
// the retained state.
func prepareIncremental(t *testing.T, src, pred, query string, db *storage.Database) (Incremental, *Plan) {
	t.Helper()
	d := mustDef(t, src, pred)
	q := parser.MustParseAtom(query)
	plan, err := CompileSelection(d, q)
	if err != nil {
		t.Fatal(err)
	}
	prep := &oneSidedPrepared{plan: plan, verdict: "test", adornment: ast.AdornmentOf(q)}
	inc, err := prep.Open(context.Background(), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, fixed := inc.(*fixedState); fixed {
		t.Fatalf("plan for %s (mode %v) not incremental", query, plan.Mode)
	}
	return inc, plan
}

// checkMaintained asserts the maintained answers equal a from-scratch
// recompute of the query over the current database.
func checkMaintained(t *testing.T, inc Incremental, d *ast.Definition, query string, db *storage.Database) {
	t.Helper()
	q := parser.MustParseAtom(query)
	want, _, err := SelectEval(d.Program(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !inc.Answers().Equal(want) {
		t.Fatalf("maintained answers for %s: %v != scratch %v",
			query, AnswerStrings(inc.Answers(), db.Syms), AnswerStrings(want, db.Syms))
	}
}

// TestIncrementalContextMode drives the Fig. 9 (context) incremental
// state through exit-edge, transition-edge, and seed-edge inserts.
func TestIncrementalContextMode(t *testing.T) {
	ctx := context.Background()
	db := chainDB(5)
	inc, plan := prepareIncremental(t, tcSrc, "t", "t(n0, Y)", db)
	if plan.Mode != ModeContext {
		t.Fatalf("mode = %v, want context", plan.Mode)
	}
	d := mustDef(t, tcSrc, "t")

	// New exit edge reachable mid-chain: answers must grow without a
	// rebuild (g delta over the retained seen-set).
	if err := inc.Update(ctx, db, deltaOf(db, []string{"b", "n3", "extra"})); err != nil {
		t.Fatal(err)
	}
	checkMaintained(t, inc, d, "t(n0, Y)", db)

	// New a-edge branching off a seen context: f delta discovers the new
	// context, the retained loop expands it.
	if err := inc.Update(ctx, db, deltaOf(db, []string{"a", "n2", "side"}, []string{"b", "side", "sideout"})); err != nil {
		t.Fatal(err)
	}
	checkMaintained(t, inc, d, "t(n0, Y)", db)

	// New seed edge from the selection constant itself.
	if err := inc.Update(ctx, db, deltaOf(db, []string{"a", "n0", "jump"}, []string{"b", "jump", "jumpout"})); err != nil {
		t.Fatal(err)
	}
	checkMaintained(t, inc, d, "t(n0, Y)", db)

	// Irrelevant relation: no-op.
	if err := inc.Update(ctx, db, deltaOf(db, []string{"unrelated", "x", "y"})); err != nil {
		t.Fatal(err)
	}
	checkMaintained(t, inc, d, "t(n0, Y)", db)
}

// TestIncrementalContextCycle: inserts that close a cycle must not loop
// the maintenance pass (the retained seen-set is the claim point).
func TestIncrementalContextCycle(t *testing.T) {
	ctx := context.Background()
	db := chainDB(4)
	inc, _ := prepareIncremental(t, tcSrc, "t", "t(n0, Y)", db)
	d := mustDef(t, tcSrc, "t")
	if err := inc.Update(ctx, db, deltaOf(db, []string{"a", "n4", "n0"})); err != nil {
		t.Fatal(err)
	}
	checkMaintained(t, inc, d, "t(n0, Y)", db)
}

// TestIncrementalReducedMode: the fb adornment (persistent bound column)
// maintains through the retained semi-naive fixpoint with re-expansion.
func TestIncrementalReducedMode(t *testing.T) {
	ctx := context.Background()
	db := chainDB(5)
	inc, plan := prepareIncremental(t, tcSrc, "t", "t(X, end)", db)
	if plan.Mode != ModeReduced {
		t.Fatalf("mode = %v, want reduced", plan.Mode)
	}
	d := mustDef(t, tcSrc, "t")
	if err := inc.Update(ctx, db, deltaOf(db, []string{"b", "fresh", "end"}, []string{"a", "pre", "fresh"})); err != nil {
		t.Fatal(err)
	}
	checkMaintained(t, inc, d, "t(X, end)", db)
	// An edge into the existing chain.
	if err := inc.Update(ctx, db, deltaOf(db, []string{"a", "newroot", "n2"})); err != nil {
		t.Fatal(err)
	}
	checkMaintained(t, inc, d, "t(X, end)", db)
}

// TestIncrementalGuardFlip: a context plan whose factor-group guard is
// empty at build time has no depth >= 1 state; a delta that could flip
// the guard must demand a rebuild rather than answer wrong.
func TestIncrementalGuardFlip(t *testing.T) {
	const src = `
		t(X, Y) :- a(X, Z), t(Z, Y), d(W).
		t(X, Y) :- b(X, Y).
	`
	ctx := context.Background()
	db := chainDB(3)
	// d is empty: depth-0 answers only.
	inc, plan := prepareIncremental(t, src, "t", "t(n0, Y)", db)
	if plan.Mode != ModeContext {
		t.Fatalf("mode = %v, want context", plan.Mode)
	}
	def := mustDef(t, src, "t")

	// Exit-only delta while the guard stays empty: maintainable.
	if err := inc.Update(ctx, db, deltaOf(db, []string{"b", "n0", "direct"})); err != nil {
		t.Fatal(err)
	}
	checkMaintained(t, inc, def, "t(n0, Y)", db)

	// Guard flips non-empty: the retained state cannot derive depth >= 1.
	err := inc.Update(ctx, db, deltaOf(db, []string{"d", "on"}))
	if !errors.Is(err, ErrRebuild) {
		t.Fatalf("guard flip returned %v, want ErrRebuild", err)
	}

	// A fresh incremental build over the flipped database is maintainable
	// again — and new guard tuples are now no-ops.
	prep := &oneSidedPrepared{plan: plan, verdict: "test"}
	inc2, err := prep.Open(ctx, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkMaintained(t, inc2, def, "t(n0, Y)", db)
	if err := inc2.Update(ctx, db, deltaOf(db, []string{"d", "again"}, []string{"a", "n3", "n9"}, []string{"b", "n9", "tail"})); err != nil {
		t.Fatal(err)
	}
	checkMaintained(t, inc2, def, "t(n0, Y)", db)
}

// TestIncrementalMagic: the Magic Sets retained fixpoint extends under
// inserts that grow both the magic set and the answers.
func TestIncrementalMagic(t *testing.T) {
	const src = `
		sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).
		sg(X, Y) :- sg0(X, Y).
	`
	ctx := context.Background()
	db := storage.NewDatabase()
	db.AddFact("p", "a", "r")
	db.AddFact("p", "b", "r")
	db.AddFact("sg0", "r", "r")
	prog := mustProgram(t, src)
	q := parser.MustParseAtom("sg(a, Y)")
	mr, err := MagicTransform(prog, q)
	if err != nil {
		t.Fatal(err)
	}
	prep := &magicPrepared{mr: mr}
	inc, err := prep.Open(ctx, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		want, _, err := SelectEval(prog, q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !inc.Answers().Equal(want) {
			t.Fatalf("magic maintained %v != scratch %v",
				AnswerStrings(inc.Answers(), db.Syms), AnswerStrings(want, db.Syms))
		}
	}
	check()
	if err := inc.Update(ctx, db, deltaOf(db, []string{"p", "c", "r"})); err != nil {
		t.Fatal(err)
	}
	check()
	if err := inc.Update(ctx, db, deltaOf(db, []string{"sg0", "s", "s"}, []string{"p", "a", "s"}, []string{"p", "d", "s"})); err != nil {
		t.Fatal(err)
	}
	check()
}

// TestIncrementalEDB: base-relation lookups maintain by filtering the
// delta.
func TestIncrementalEDB(t *testing.T) {
	ctx := context.Background()
	db := storage.NewDatabase()
	db.AddFact("e", "a", "b")
	db.AddFact("e", "a", "c")
	db.AddFact("e", "x", "y")
	q := parser.MustParseAtom("e(a, Y)")
	prep := &edbPrepared{query: q}
	inc, err := prep.Open(ctx, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Answers().Len() != 2 {
		t.Fatalf("initial answers = %d, want 2", inc.Answers().Len())
	}
	if err := inc.Update(ctx, db, deltaOf(db, []string{"e", "a", "d"}, []string{"e", "z", "w"})); err != nil {
		t.Fatal(err)
	}
	if inc.Answers().Len() != 3 {
		t.Fatalf("maintained answers = %d, want 3", inc.Answers().Len())
	}
}

// TestIncrementalRandomized is the eval-layer equivalence property: on a
// random graph, interleave random edge inserts with maintained updates
// and compare against from-scratch recomputation every step.
func TestIncrementalRandomized(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	db := storage.NewDatabase()
	node := func(i int) string { return fmt.Sprintf("v%d", i) }
	const n = 30
	for i := 0; i < 60; i++ {
		db.AddFact("a", node(rng.Intn(n)), node(rng.Intn(n)))
	}
	for i := 0; i < 10; i++ {
		db.AddFact("b", node(rng.Intn(n)), fmt.Sprintf("out%d", i))
	}
	inc, _ := prepareIncremental(t, tcSrc, "t", "t(v0, Y)", db)
	d := mustDef(t, tcSrc, "t")
	for step := 0; step < 40; step++ {
		var facts [][]string
		for j := 0; j <= rng.Intn(3); j++ {
			if rng.Intn(3) == 0 {
				facts = append(facts, []string{"b", node(rng.Intn(n)), fmt.Sprintf("nout%d_%d", step, j)})
			} else {
				facts = append(facts, []string{"a", node(rng.Intn(n)), node(rng.Intn(n))})
			}
		}
		// Duplicate inserts dedup inside deltaOf's AddFact; the delta may
		// carry tuples that were already present — idempotent by contract.
		if err := inc.Update(ctx, db, deltaOf(db, facts...)); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkMaintained(t, inc, d, "t(v0, Y)", db)
	}
}

// TestSNStateUpdateDirect exercises the semi-naive maintenance core on a
// multi-rule program with an IDB-seeded predicate.
func TestSNStateUpdateDirect(t *testing.T) {
	const src = `
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, Z), edge(Z, Y).
		reach(X) :- path(root, X).
	`
	ctx := context.Background()
	db := storage.NewDatabase()
	db.AddFact("edge", "root", "m")
	db.AddFact("edge", "m", "k")
	prog := mustProgram(t, src)
	st, err := newSNState(prog, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.initialFixpoint(ctx); err != nil {
		t.Fatal(err)
	}
	var newReach []string
	if err := st.update(ctx, deltaOf(db, []string{"edge", "k", "z"}), func(pred string, tu storage.Tuple) {
		if pred == "reach" {
			newReach = append(newReach, db.Syms.Name(tu[0]))
		}
	}, nil); err != nil {
		t.Fatal(err)
	}
	if len(newReach) != 1 || newReach[0] != "z" {
		t.Fatalf("new reach tuples = %v, want [z]", newReach)
	}
	// Full equivalence with a scratch run.
	scratch, err := SemiNaive(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{"path", "reach"} {
		if !st.idb.Relation(pred).Equal(scratch.IDB.Relation(pred)) {
			t.Fatalf("maintained %s differs from scratch", pred)
		}
	}
}
