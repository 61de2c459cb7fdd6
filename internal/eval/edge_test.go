package eval

import (
	"testing"

	"repro/internal/parser"
	"repro/internal/storage"
)

// This file collects edge-case and failure-injection tests for the
// evaluation engines: unusual rule shapes, empty relations, constants in
// bodies, and zero-arity predicates.

func TestOneSidedConstantsInRecursiveBody(t *testing.T) {
	// A body constant restricts every level.
	d := mustDef(t, `
		t(X, Y) :- a(X, k0, Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
	`, "t")
	db := storage.NewDatabase()
	db.AddFact("a", "x", "k0", "y")
	db.AddFact("a", "y", "k1", "z") // wrong key: must not be traversed
	db.AddFact("b", "y", "out")
	db.AddFact("b", "z", "far")
	plan, err := CompileSelection(d, parser.MustParseAtom("t(x, Y)"))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := evalPlan(plan, db)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := SelectEval(d.Program(), parser.MustParseAtom("t(x, Y)"), db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("%v != %v", AnswerStrings(got, db.Syms), AnswerStrings(want, db.Syms))
	}
	if got.Len() != 1 {
		t.Fatalf("answers = %v", AnswerStrings(got, db.Syms))
	}
}

func TestOneSidedConstantInRecursiveCall(t *testing.T) {
	// The recursive call pins a column to a constant: a fixed column.
	d := mustDef(t, `
		t(X, Y) :- a(X, Z), t(Z, root), e(Y).
		t(X, Y) :- b(X, Y).
	`, "t")
	for seed := int64(0); seed < 4; seed++ {
		db := randomEDBFor(d.Program(), 5, 12, seed)
		db.AddFact("a", "d0", "root")
		db.AddFact("b", "root", "d1")
		q := parser.MustParseAtom("t(d0, Y)")
		plan, err := CompileSelection(d, q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := evalPlan(plan, db)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := SelectEval(d.Program(), q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("seed %d: %v != %v", seed,
				AnswerStrings(got, db.Syms), AnswerStrings(want, db.Syms))
		}
	}
}

func TestOneSidedRecursiveAtomFirst(t *testing.T) {
	// The recursive atom leads the body (right-linear vs left-linear
	// should not matter).
	d := mustDef(t, `
		t(X, Y) :- t(Z, Y), a(X, Z).
		t(X, Y) :- b(X, Y).
	`, "t")
	db := chainDB(5)
	for _, qs := range []string{"t(n0, Y)", "t(X, end)", "t(n0, end)"} {
		q := parser.MustParseAtom(qs)
		plan, err := CompileSelection(d, q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := evalPlan(plan, db)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := SelectEval(d.Program(), q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: %v != %v", qs, AnswerStrings(got, db.Syms), AnswerStrings(want, db.Syms))
		}
	}
}

func TestOneSidedEmptyRelations(t *testing.T) {
	d := mustDef(t, tcSrc, "t")
	db := storage.NewDatabase() // nothing at all
	for _, qs := range []string{"t(x, Y)", "t(X, y)"} {
		plan, err := CompileSelection(d, parser.MustParseAtom(qs))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := evalPlan(plan, db)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 0 {
			t.Fatalf("%s: expected no answers", qs)
		}
	}
	// Only the exit relation populated: depth-0 answers still flow.
	db.AddFact("b", "x", "y")
	plan, err := CompileSelection(d, parser.MustParseAtom("t(x, Y)"))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := evalPlan(plan, db)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("answers = %v", AnswerStrings(got, db.Syms))
	}
}

func TestOneSidedUnknownConstant(t *testing.T) {
	// A selection constant that appears nowhere in the data.
	d := mustDef(t, tcSrc, "t")
	db := chainDB(3)
	plan, err := CompileSelection(d, parser.MustParseAtom("t(ghost, Y)"))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := evalPlan(plan, db)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("answers = %v", AnswerStrings(got, db.Syms))
	}
}

func TestMagicZeroArityGuard(t *testing.T) {
	// Zero-arity predicates flow through magic and semi-naive.
	p := mustProgram(t, `
		t(X, Y) :- a(X, Z), t(Z, Y), enabled.
		t(X, Y) :- b(X, Y).
		enabled.
	`)
	db := chainDB(3)
	q := parser.MustParseAtom("t(n0, Y)")
	ans, _, err := MagicEval(p, q, db)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := SelectEval(p, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Equal(want) || ans.Len() != 1 {
		t.Fatalf("magic %v want %v", AnswerStrings(ans, db.Syms), AnswerStrings(want, db.Syms))
	}
	// Without the guard fact, the recursive rule is dead but depth-0
	// answers survive.
	p2 := mustProgram(t, `
		t(X, Y) :- a(X, Z), t(Z, Y), enabled.
		t(X, Y) :- b(X, Y).
	`)
	ans2, _, err := SelectEval(p2, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if ans2.Len() != 0 {
		// n0's chain only reaches end via 3 a-steps + b; with the guard
		// missing the recursive rule is disabled, so no answers from n0.
		t.Fatalf("answers without guard = %v", AnswerStrings(ans2, db.Syms))
	}
}

func TestSemiNaiveSelfLoopData(t *testing.T) {
	p := mustProgram(t, tcSrc)
	db := storage.NewDatabase()
	db.AddFact("a", "x", "x") // self loop
	db.AddFact("b", "x", "y")
	res, err := SemiNaive(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.IDB.Relation("t").Len() != 1 {
		t.Fatalf("t = \n%s", res.IDB.Dump())
	}
	if res.Rounds > 4 {
		t.Fatalf("self loop should converge quickly, took %d rounds", res.Rounds)
	}
}

func TestSelectEvalProjectionQueryShapes(t *testing.T) {
	// Queries binding various subsets of a ternary predicate.
	d := mustDef(t, `
		t(X, Y, Z) :- t(X, U, W), e(U, Y), d(Z).
		t(X, Y, Z) :- t0(X, Y, Z).
	`, "t")
	db := storage.NewDatabase()
	db.AddFact("e", "u1", "u0")
	db.AddFact("d", "z")
	db.AddFact("t0", "x", "u1", "w")
	for _, qs := range []string{
		"t(x, u0, z)", "t(x, Y, z)", "t(X, u0, z)", "t(x, u0, Z)",
	} {
		q := parser.MustParseAtom(qs)
		plan, err := CompileSelection(d, q)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		got, _, err := evalPlan(plan, db)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := SelectEval(d.Program(), q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: %v != %v", qs, AnswerStrings(got, db.Syms), AnswerStrings(want, db.Syms))
		}
	}
}

func TestCompileSelectionValidation(t *testing.T) {
	d := mustDef(t, tcSrc, "t")
	if _, err := CompileSelection(d, parser.MustParseAtom("wrong(a, B)")); err == nil {
		t.Fatal("wrong predicate must be rejected")
	}
	if _, err := CompileSelection(d, parser.MustParseAtom("t(a)")); err == nil {
		t.Fatal("wrong arity must be rejected")
	}
}
