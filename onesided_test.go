package onesided

import (
	"context"
	"strings"
	"testing"
)

const tcSrc = `
	t(X, Y) :- a(X, Z), t(Z, Y).
	t(X, Y) :- b(X, Y).
`

// queryWith answers query on an engine over db whose strategy chain is
// just strategy, and checks the engine used it.
func queryWith(t *testing.T, strategy string, p *Program, db *Database, query string) *Relation {
	t.Helper()
	eng, err := Open(WithDatabase(db), WithProgram(p), WithStrategies(strategy))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rows, err := eng.Query(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Explain().Strategy; got != strategy {
		t.Fatalf("query %s ran strategy %s, want %s", query, got, strategy)
	}
	return rows.Relation()
}

// TestPublicAPIEndToEnd exercises the documented workflow: parse,
// classify, build a database, compile, evaluate.
func TestPublicAPIEndToEnd(t *testing.T) {
	def, err := ParseDefinition(tcSrc, "t")
	if err != nil {
		t.Fatal(err)
	}
	cls, err := Classify(def)
	if err != nil {
		t.Fatal(err)
	}
	if !cls.OneSided || cls.Sidedness != 1 {
		t.Fatalf("classification = %+v", cls)
	}

	db := NewDatabase()
	db.AddFact("a", "paris", "lyon")
	db.AddFact("a", "lyon", "marseille")
	db.AddFact("b", "marseille", "nice")

	q, err := ParseQuery("t(paris, Y)")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompileSelection(def, q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.CarryArity != 1 {
		t.Fatalf("carry arity = %d", plan.CarryArity)
	}
	st, err := plan.Open(context.Background(), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	answers, stats := st.Answers(), st.Stats()
	got := Answers(answers, db)
	if len(got) != 1 || got[0] != "paris,nice" {
		t.Fatalf("answers = %v", got)
	}
	if stats.SeenSize == 0 {
		t.Fatal("stats not populated")
	}
}

func TestPublicAPIDecide(t *testing.T) {
	buys, err := ParseDefinition(`
		buys(X, Y) :- knows(X, W), buys(W, Y), cheap(Y).
		buys(X, Y) :- likes(X, Y), cheap(Y).
	`, "buys")
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decide(buys)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Verdict != VerdictConverted {
		t.Fatalf("verdict = %v", dec.Verdict)
	}
	if len(dec.Removed) != 1 {
		t.Fatalf("removed = %v", dec.Removed)
	}

	sg, err := ParseDefinition(`
		sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).
		sg(X, Y) :- sg0(X, Y).
	`, "sg")
	if err != nil {
		t.Fatal(err)
	}
	dec, err = Decide(sg)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Verdict != VerdictNotOneSided {
		t.Fatalf("sg verdict = %v", dec.Verdict)
	}
}

func TestPublicAPIGraphsAndExpansion(t *testing.T) {
	def, err := ParseDefinition(tcSrc, "t")
	if err != nil {
		t.Fatal(err)
	}
	if g := AVGraph(def); !strings.Contains(g, "A/V graph") {
		t.Fatalf("AVGraph = %q", g)
	}
	if g := FullAVGraph(def); !strings.Contains(g, "full A/V graph") {
		t.Fatalf("FullAVGraph = %q", g)
	}
	ss := ExpandStrings(def, 2)
	if len(ss) != 3 || ss[1] != "a(X, Z0), b(Z0, Y)" {
		t.Fatalf("expansion = %v", ss)
	}
}

func TestPublicAPIParseSource(t *testing.T) {
	p, queries, err := ParseSource(`
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
		a(u, w). b(w, v).
		?- t(u, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	rules := LoadFacts(p, db)
	if len(rules.Rules) != 2 || len(queries) != 1 {
		t.Fatalf("rules=%d queries=%d", len(rules.Rules), len(queries))
	}
	ans := queryWith(t, "magic", rules, db, queries[0].String())
	if got := Answers(ans, db); len(got) != 1 || got[0] != "u,v" {
		t.Fatalf("answers = %v", got)
	}
}

func TestPublicAPIEngineAgreement(t *testing.T) {
	def, err := ParseDefinition(tcSrc, "t")
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	db.AddFact("a", "x", "y")
	db.AddFact("a", "y", "x")
	db.AddFact("b", "y", "z")
	planAns := queryWith(t, "onesided", def.Program(), db, "t(x, Y)")
	magicAns := queryWith(t, "magic", def.Program(), db, "t(x, Y)")
	fullAns := queryWith(t, "seminaive", def.Program(), db, "t(x, Y)")
	if !planAns.Equal(magicAns) || !planAns.Equal(fullAns) {
		t.Fatalf("engines disagree: plan=%v magic=%v full=%v",
			Answers(planAns, db), Answers(magicAns, db), Answers(fullAns, db))
	}
}
