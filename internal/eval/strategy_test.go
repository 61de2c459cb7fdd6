package eval

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/storage"
)

func TestSemiNaiveCtxCancellation(t *testing.T) {
	prog, err := parser.ParseProgram(`
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	for i := 0; i < 100; i++ {
		db.AddFact("a", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
	}
	db.AddFact("b", "n100", "goal")

	// Uncancelled: completes with ~100 rounds.
	res, err := SemiNaive(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 50 {
		t.Fatalf("rounds = %d, want a long fixpoint", res.Rounds)
	}

	// Already-cancelled: fails before the first round.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SemiNaiveCtx(ctx, prog, db); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := NaiveCtx(ctx, prog, db); !errors.Is(err, context.Canceled) {
		t.Fatalf("naive err = %v, want context.Canceled", err)
	}
	magic, err := Magic().Prepare(prog, AdornQuery(mustParseAtom(t, "t(n0, Y)")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := magic.Open(ctx, db, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("magic err = %v, want context.Canceled", err)
	}
}

func TestStrategyAdaptersAgree(t *testing.T) {
	prog, err := parser.ParseProgram(`
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	db.AddFact("a", "x", "y")
	db.AddFact("a", "y", "x")
	db.AddFact("b", "y", "z")
	query := mustParseAtom(t, "t(x, Y)")

	ctx := context.Background()
	var relations []*storage.Relation
	for _, s := range []Strategy{OneSided(), Magic(), SemiNaiveStrategy(), NaiveStrategy()} {
		ps, err := s.Prepare(prog, AdornQuery(query))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if ps.Explain().Strategy != s.Name() {
			t.Fatalf("%s: explain names %q", s.Name(), ps.Explain().Strategy)
		}
		// A prepared plan is reusable: evaluate twice.
		for i := 0; i < 2; i++ {
			rel, _, err := openResult(ps.Open(ctx, db, nil))
			if err != nil {
				t.Fatalf("%s eval %d: %v", s.Name(), i, err)
			}
			relations = append(relations, rel)
		}
	}
	for i := 1; i < len(relations); i++ {
		if !relations[0].Equal(relations[i]) {
			t.Fatalf("strategy answers diverge at %d", i)
		}
	}
}

func TestEDBStrategyDeclinesDerived(t *testing.T) {
	prog, err := parser.ParseProgram(`t(X, Y) :- b(X, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EDBLookup().Prepare(prog, AdornQuery(mustParseAtom(t, "t(a, Y)"))); err == nil {
		t.Fatal("edb strategy accepted a derived predicate")
	}
	if _, err := EDBLookup().Prepare(prog, AdornQuery(mustParseAtom(t, "b(a, Y)"))); err != nil {
		t.Fatalf("edb strategy declined a base predicate: %v", err)
	}
}

func TestOneSidedStrategyDeclinesDerivedBody(t *testing.T) {
	// The recursion's body atom a is itself derived: the Fig. 9 schema's
	// EDB assumption fails and the strategy must decline.
	prog, err := parser.ParseProgram(`
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
		a(X, Y) :- raw(X, Y), ok(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OneSided().Prepare(prog, AdornQuery(mustParseAtom(t, "t(u, Y)"))); err == nil {
		t.Fatal("onesided strategy accepted a derived body atom")
	}
	// Magic handles it.
	db := storage.NewDatabase()
	db.AddFact("raw", "u", "v")
	db.AddFact("ok", "u")
	db.AddFact("b", "v", "goal")
	ps, err := Magic().Prepare(prog, AdornQuery(mustParseAtom(t, "t(u, Y)")))
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err := openResult(ps.Open(context.Background(), db, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := AnswerStrings(rel, db.Syms); len(got) != 1 || got[0] != "u,goal" {
		t.Fatalf("answers = %v, want [u,goal]", got)
	}
}

func mustParseAtom(t *testing.T, s string) ast.Atom {
	t.Helper()
	q, err := parser.ParseAtom(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
