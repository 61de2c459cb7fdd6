package eval

import (
	"testing"

	"repro/internal/parser"
	"repro/internal/storage"
)

// TestBoundShuffleSoundness: the bound head variable appears in the
// recursive call at another column whose own head position is also
// carried — supported and sound.
func TestBoundShuffleSoundness(t *testing.T) {
	d := mustDef(t, `
		t(X, Y) :- a(X, Z), t(Y, Z).
		t(X, Y) :- b(X, Y).
	`, "t")
	for seed := int64(0); seed < 6; seed++ {
		db := randomEDBFor(d.Program(), 5, 14, seed)
		q := parser.MustParseAtom("t(X, d1)")
		plan, err := CompileSelection(d, q)
		if err != nil {
			t.Logf("seed %d: compile error (acceptable): %v", seed, err)
			continue
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
			t.Fatalf("seed %d UNSOUND: %v != %v", seed,
				AnswerStrings(got, db.Syms), AnswerStrings(want, db.Syms))
		}
	}
}

// TestBoundShuffleUndetermined: the bound head variable Y flows into call
// column 1, but Y's own head column maps to a fresh call variable, so the
// carried value is undetermined below depth 1. The compiler must reject
// (or evaluate correctly) — never produce garbage. The hand-crafted
// database is a regression case: an early version read an uninitialized
// slot here, which resolves to the first interned symbol (the junk fact),
// silently losing every answer.
func TestBoundShuffleUndetermined(t *testing.T) {
	d := mustDef(t, `
		t(X, Y) :- a(X, Z), t(Y, F).
		t(X, Y) :- b(X, Y).
	`, "t")
	db := storage.NewDatabase()
	db.AddFact("junk", "junk0") // pins symbol 0 to a worthless constant
	db.AddFact("a", "s", "z1")
	db.AddFact("a", "target", "z2")
	db.AddFact("b", "good", "gg")

	q := parser.MustParseAtom("t(X, target)")
	want, _, err := SelectEval(d.Program(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("test setup wrong: ground truth should be nonempty")
	}
	plan, err := CompileSelection(d, q)
	if err != nil {
		return // rejection is the sound outcome
	}
	got, _, err := evalPlan(plan, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("UNSOUND: %v != %v",
			AnswerStrings(got, db.Syms), AnswerStrings(want, db.Syms))
	}
}
