package eval

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/storage"
)

// chainDB builds a database with an a-chain n0 -> n1 -> ... -> n{n} and a
// b-edge from the chain end to "end".
func chainDB(n int) *storage.Database {
	db := storage.NewDatabase()
	for i := 0; i < n; i++ {
		db.AddFact("a", "n"+strconv.Itoa(i), "n"+strconv.Itoa(i+1))
	}
	db.AddFact("b", "n"+strconv.Itoa(n), "end")
	return db
}

const tcSrc = `
	t(X, Y) :- a(X, Z), t(Z, Y).
	t(X, Y) :- b(X, Y).
`

func mustProgram(t testing.TB, src string) *ast.Program {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSemiNaiveTransitiveClosureChain(t *testing.T) {
	p := mustProgram(t, tcSrc)
	db := chainDB(4)
	res, err := SemiNaive(p, db)
	if err != nil {
		t.Fatal(err)
	}
	rel := res.IDB.Relation("t")
	// t(ni, end) for all i in 0..4: 5 tuples.
	if rel.Len() != 5 {
		t.Fatalf("t has %d tuples:\n%s", rel.Len(), res.IDB.Dump())
	}
	end, _ := db.Syms.Lookup("end")
	for i := 0; i <= 4; i++ {
		v, _ := db.Syms.Lookup("n" + strconv.Itoa(i))
		if !rel.Contains(storage.Tuple{v, end}) {
			t.Fatalf("missing t(n%d, end)", i)
		}
	}
}

func TestNaiveMatchesSemiNaive(t *testing.T) {
	p := mustProgram(t, tcSrc)
	db := randomGraphDB(40, 80, 3, 7)
	a, err := Naive(p, db)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SemiNaive(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if !a.IDB.Relation("t").Equal(b.IDB.Relation("t")) {
		t.Fatal("naive and semi-naive disagree")
	}
}

// randomGraphDB builds a random a-graph with n nodes, m edges, and k
// b-edges, seeded deterministically.
func randomGraphDB(n, m, k int, seed int64) *storage.Database {
	rng := rand.New(rand.NewSource(seed))
	db := storage.NewDatabase()
	name := func(i int) string { return "n" + strconv.Itoa(i) }
	for i := 0; i < m; i++ {
		db.AddFact("a", name(rng.Intn(n)), name(rng.Intn(n)))
	}
	for i := 0; i < k; i++ {
		db.AddFact("b", name(rng.Intn(n)), name(rng.Intn(n)))
	}
	return db
}

func TestSemiNaiveCyclicData(t *testing.T) {
	p := mustProgram(t, tcSrc)
	db := storage.NewDatabase()
	db.AddFact("a", "x", "y")
	db.AddFact("a", "y", "x")
	db.AddFact("b", "x", "z")
	res, err := SemiNaive(p, db)
	if err != nil {
		t.Fatal(err)
	}
	// Both x and y reach the b edge: t(x,z), t(y,z).
	if res.IDB.Relation("t").Len() != 2 {
		t.Fatalf("t = \n%s", res.IDB.Dump())
	}
}

func TestSemiNaiveSameGeneration(t *testing.T) {
	p := mustProgram(t, `
		sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).
		sg(X, Y) :- sg0(X, Y).
	`)
	db := storage.NewDatabase()
	// Two parents under a common grandparent; sg0 holds the roots.
	db.AddFact("p", "c1", "p1")
	db.AddFact("p", "c2", "p2")
	db.AddFact("p", "p1", "g")
	db.AddFact("p", "p2", "g")
	db.AddFact("sg0", "g", "g")
	res, err := SemiNaive(p, db)
	if err != nil {
		t.Fatal(err)
	}
	sg := res.IDB.Relation("sg")
	v := func(s string) storage.Value { val, _ := db.Syms.Lookup(s); return val }
	if !sg.Contains(storage.Tuple{v("p1"), v("p2")}) {
		t.Fatalf("missing sg(p1, p2):\n%s", res.IDB.Dump())
	}
	if !sg.Contains(storage.Tuple{v("c1"), v("c2")}) {
		t.Fatalf("missing sg(c1, c2):\n%s", res.IDB.Dump())
	}
	if sg.Contains(storage.Tuple{v("c1"), v("p2")}) {
		t.Fatal("sg(c1, p2) should not hold (different generations)")
	}
}

func TestSemiNaiveNonlinearRules(t *testing.T) {
	// Nonlinear transitive closure: t(X,Y) :- t(X,Z), t(Z,Y).
	p := mustProgram(t, `
		t(X, Y) :- t(X, Z), t(Z, Y).
		t(X, Y) :- a(X, Y).
	`)
	db := chainDB(6)
	res, err := SemiNaive(p, db)
	if err != nil {
		t.Fatal(err)
	}
	// All pairs (i, j) with i < j <= 6: 21 plus nothing else.
	if got := res.IDB.Relation("t").Len(); got != 21 {
		t.Fatalf("t has %d tuples, want 21", got)
	}
	// Cross-check against the linear version.
	p2 := mustProgram(t, `
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- a(X, Y).
	`)
	res2, err := SemiNaive(p2, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IDB.Relation("t").Equal(res2.IDB.Relation("t")) {
		t.Fatal("nonlinear and linear TC disagree")
	}
}

func TestSemiNaiveFactsAndSeeds(t *testing.T) {
	// Program facts seed the IDB; EDB relations with the same name as an
	// IDB predicate also seed it.
	p := mustProgram(t, `
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(a0, b0).
	`)
	db := storage.NewDatabase()
	db.AddFact("a", "x", "a0")
	db.AddFact("t", "seed1", "seed2")
	res, err := SemiNaive(p, db)
	if err != nil {
		t.Fatal(err)
	}
	rel := res.IDB.Relation("t")
	v := func(s string) storage.Value { val, _ := db.Syms.Lookup(s); return val }
	if !rel.Contains(storage.Tuple{v("a0"), v("b0")}) {
		t.Fatal("program fact not seeded")
	}
	if !rel.Contains(storage.Tuple{v("seed1"), v("seed2")}) {
		t.Fatal("EDB seed not loaded")
	}
	if !rel.Contains(storage.Tuple{v("x"), v("b0")}) {
		t.Fatal("derivation from fact missing")
	}
}

func TestSemiNaiveMultipleIDBPredicates(t *testing.T) {
	p := mustProgram(t, `
		odd(X, Y) :- a(X, Y).
		odd(X, Y) :- a(X, Z), even(Z, Y).
		even(X, Y) :- a(X, Z), odd(Z, Y).
	`)
	db := chainDB(5)
	res, err := SemiNaive(p, db)
	if err != nil {
		t.Fatal(err)
	}
	v := func(s string) storage.Value { val, _ := db.Syms.Lookup(s); return val }
	// Path n0 -> n3 has length 3: odd. n0 -> n4: even.
	if !res.IDB.Relation("odd").Contains(storage.Tuple{v("n0"), v("n3")}) {
		t.Fatal("odd(n0, n3) missing")
	}
	if !res.IDB.Relation("even").Contains(storage.Tuple{v("n0"), v("n4")}) {
		t.Fatal("even(n0, n4) missing")
	}
	if res.IDB.Relation("odd").Contains(storage.Tuple{v("n0"), v("n4")}) {
		t.Fatal("odd(n0, n4) should not hold")
	}
}

func TestSemiNaiveRepeatedVarsInBodyAtom(t *testing.T) {
	p := mustProgram(t, `
		loop(X) :- a(X, X).
	`)
	db := storage.NewDatabase()
	db.AddFact("a", "u", "u")
	db.AddFact("a", "u", "w")
	res, err := SemiNaive(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.IDB.Relation("loop").Len() != 1 {
		t.Fatalf("loop = \n%s", res.IDB.Dump())
	}
}

func TestSemiNaiveConstantsInBody(t *testing.T) {
	p := mustProgram(t, `
		r(X) :- a(n0, X).
	`)
	db := chainDB(3)
	res, err := SemiNaive(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.IDB.Relation("r").Len() != 1 {
		t.Fatalf("r = \n%s", res.IDB.Dump())
	}
}

func TestUnsafeRuleRejected(t *testing.T) {
	p := &ast.Program{Rules: []ast.Rule{
		{Head: ast.NewAtom("p", ast.V("X"), ast.V("Y")), Body: []ast.Atom{ast.NewAtom("q", ast.V("X"))}},
	}}
	if _, err := SemiNaive(p, storage.NewDatabase()); err == nil {
		t.Fatal("expected unsafe-rule error")
	}
}

func TestEmptyEDB(t *testing.T) {
	p := mustProgram(t, tcSrc)
	res, err := SemiNaive(p, storage.NewDatabase())
	if err != nil {
		t.Fatal(err)
	}
	if rel := res.IDB.Relation("t"); rel == nil || rel.Len() != 0 {
		t.Fatal("empty EDB should give empty t")
	}
}

func TestLoadFacts(t *testing.T) {
	res, err := parser.Parse(`
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
		a(n0, n1). b(n1, end).
	`)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	rules := LoadFacts(res.Program, db)
	if len(rules.Rules) != 2 {
		t.Fatalf("rules = %d", len(rules.Rules))
	}
	if db.Relation("a").Len() != 1 || db.Relation("b").Len() != 1 {
		t.Fatal("facts not loaded")
	}
}

// TestSemiNaiveRandomizedAgainstNaive property-tests the two engines
// against each other on random programs and data.
func TestSemiNaiveRandomizedAgainstNaive(t *testing.T) {
	srcs := []string{
		tcSrc,
		`t(X, Y) :- a(X, W), t(W, Z), c(Z, Y).
		 t(X, Y) :- b(X, Y).`,
		`sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).
		 sg(X, Y) :- sg0(X, Y).`,
		`t(X, Y, Z) :- t(X, U, W), e(U, Y), d(Z).
		 t(X, Y, Z) :- t0(X, Y, Z).`,
	}
	for seed := int64(0); seed < 4; seed++ {
		for _, src := range srcs {
			p := mustProgram(t, src)
			db := randomEDBFor(p, 12, 30, seed)
			a, err := Naive(p, db)
			if err != nil {
				t.Fatal(err)
			}
			b, err := SemiNaive(p, db)
			if err != nil {
				t.Fatal(err)
			}
			for pred := range headPreds(p) {
				ra, rb := a.IDB.Relation(pred), b.IDB.Relation(pred)
				if (ra == nil) != (rb == nil) {
					t.Fatalf("%s: nil mismatch for %s", src, pred)
				}
				if ra != nil && !ra.Equal(rb) {
					t.Fatalf("%s seed %d: naive/semi-naive disagree on %s", src, seed, pred)
				}
			}
			if b.Rounds > a.Rounds+2 {
				t.Fatalf("semi-naive took %d rounds vs naive %d", b.Rounds, a.Rounds)
			}
		}
	}
}

// randomEDBFor fills every EDB predicate of p with random tuples over a
// small domain.
func randomEDBFor(p *ast.Program, domain, facts int, seed int64) *storage.Database {
	rng := rand.New(rand.NewSource(seed))
	db := storage.NewDatabase()
	arities, _ := p.Arities()
	idb := headPreds(p)
	for pred, ar := range arities {
		if idb[pred] {
			continue
		}
		for i := 0; i < facts; i++ {
			args := make([]string, ar)
			for j := range args {
				args[j] = "d" + strconv.Itoa(rng.Intn(domain))
			}
			db.AddFact(pred, args...)
		}
	}
	return db
}
