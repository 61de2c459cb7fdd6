package eval

import (
	"sort"
	"strconv"
	"testing"

	"repro/internal/parser"
	"repro/internal/storage"
)

func valueNames(vals []storage.Value, syms *storage.SymbolTable) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = syms.Name(v)
	}
	sort.Strings(out)
	return out
}

// TestExpE10Fig7Literal checks the literal Fig. 7 transcription against
// semi-naive ground truth on chains, cycles, and random graphs.
func TestExpE10Fig7Literal(t *testing.T) {
	p := mustProgram(t, tcSrc)
	dbs := map[string]*storage.Database{
		"chain":  chainDB(8),
		"random": randomGraphDB(30, 70, 6, 11),
	}
	cyc := storage.NewDatabase()
	cyc.AddFact("a", "x", "y")
	cyc.AddFact("a", "y", "x")
	cyc.AddFact("b", "x", "end")
	dbs["cycle"] = cyc

	for name, db := range dbs {
		res, err := SemiNaive(p, db)
		if err != nil {
			t.Fatal(err)
		}
		trel := res.IDB.Relation("t")
		// Pick every constant appearing in b's second column as n0.
		for _, bt := range db.Relation("b").Tuples() {
			n0 := db.Syms.Name(bt[1])
			got := valueNames(Fig7AhoUllman(db, "a", "b", n0), db.Syms)
			var want []string
			for _, tt := range trel.Tuples() {
				if db.Syms.Name(tt[1]) == n0 {
					want = append(want, db.Syms.Name(tt[0]))
				}
			}
			sort.Strings(want)
			if strings := got; !equalStrings(strings, want) {
				t.Fatalf("%s t(X, %s): Fig7 %v != %v", name, n0, got, want)
			}
		}
	}
}

// TestExpE11Fig8Literal checks the literal Fig. 8 transcription likewise.
func TestExpE11Fig8Literal(t *testing.T) {
	p := mustProgram(t, tcSrc)
	dbs := []*storage.Database{chainDB(8), randomGraphDB(25, 60, 5, 3)}
	cyc := storage.NewDatabase()
	cyc.AddFact("a", "x", "y")
	cyc.AddFact("a", "y", "x")
	cyc.AddFact("b", "y", "out")
	dbs = append(dbs, cyc)

	for _, db := range dbs {
		res, err := SemiNaive(p, db)
		if err != nil {
			t.Fatal(err)
		}
		trel := res.IDB.Relation("t")
		starts := make(map[string]bool)
		for _, at := range db.Relation("a").Tuples() {
			starts[db.Syms.Name(at[0])] = true
		}
		for n0 := range starts {
			got := valueNames(Fig8HenschenNaqvi(db, "a", "b", n0), db.Syms)
			var want []string
			for _, tt := range trel.Tuples() {
				if db.Syms.Name(tt[0]) == n0 {
					want = append(want, db.Syms.Name(tt[1]))
				}
			}
			sort.Strings(want)
			if !equalStrings(got, want) {
				t.Fatalf("t(%s, Y): Fig8 %v != %v", n0, got, want)
			}
		}
	}
}

// TestFig8MatchesCompiledPlan: the Fig. 9 compiler instantiated on the
// canonical recursion computes the same answers as the literal Fig. 8.
func TestFig8MatchesCompiledPlan(t *testing.T) {
	d := mustDef(t, tcSrc, "t")
	db := randomGraphDB(20, 50, 8, 9)
	starts := map[string]bool{}
	for _, at := range db.Relation("a").Tuples() {
		starts[db.Syms.Name(at[0])] = true
	}
	for n0 := range starts {
		q := parser.MustParseAtom("t(" + n0 + ", Y)")
		plan, err := CompileSelection(d, q)
		if err != nil {
			t.Fatal(err)
		}
		rel, _, err := evalPlan(plan, db)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, tt := range rel.Tuples() {
			got = append(got, db.Syms.Name(tt[1]))
		}
		sort.Strings(got)
		want := valueNames(Fig8HenschenNaqvi(db, "a", "b", n0), db.Syms)
		if !equalStrings(got, want) {
			t.Fatalf("t(%s, Y): plan %v != Fig8 %v", n0, got, want)
		}
	}
}

// TestExpE19CountingAcyclic: counting agrees with ground truth on acyclic
// data and reports divergence on cycles.
func TestExpE19CountingAcyclic(t *testing.T) {
	db := chainDB(10)
	want := valueNames(Fig8HenschenNaqvi(db, "a", "b", "n0"), db.Syms)
	got, err := CountingTC(db, "a", "b", "n0", 100)
	if err != nil {
		t.Fatal(err)
	}
	if !equalStrings(valueNames(got, db.Syms), want) {
		t.Fatalf("counting %v != %v", valueNames(got, db.Syms), want)
	}

	cyc := storage.NewDatabase()
	cyc.AddFact("a", "x", "y")
	cyc.AddFact("a", "y", "x")
	cyc.AddFact("b", "y", "out")
	if _, err := CountingTC(cyc, "a", "b", "x", 50); err == nil {
		t.Fatal("counting should report divergence on cyclic data")
	}
}

// lemma42DB builds the database family from Lemma 4.2: a = {(v1,v1)},
// b = {(v1,v0)}, c = the chain v0 -> v1 -> ... -> v2k.
func lemma42DB(k int) *storage.Database {
	db := storage.NewDatabase()
	db.AddFact("a", "v1", "v1")
	db.AddFact("b", "v1", "v0")
	for i := 0; i < 2*k; i++ {
		db.AddFact("c", "v"+strconv.Itoa(i), "v"+strconv.Itoa(i+1))
	}
	return db
}

// TestExpE15Lemma42 reproduces Lemma 4.2: on the adversarial family the
// unary-carry chain algorithm (Properties 2 and 3 enforced) is incomplete
// for the canonical two-sided recursion, while Magic Sets and the
// context-mode plan (which widens its carry) remain correct.
func TestExpE15Lemma42(t *testing.T) {
	src := `
		t(X, Y) :- a(X, W), t(W, Z), c(Z, Y).
		t(X, Y) :- b(X, Y).
	`
	p := mustProgram(t, src)
	d := mustDef(t, src, "t")
	for _, k := range []int{1, 2, 4} {
		db := lemma42DB(k)
		q := parser.MustParseAtom("t(v1, Y)")
		want, _, err := SelectEval(p, q, db)
		if err != nil {
			t.Fatal(err)
		}
		// Ground truth contains v0..v2k reachable answers; in particular
		// t(v1, v2k) holds and its only proof reuses v1 in a's first
		// column 2k times.
		v2k, _ := db.Syms.Lookup("v" + strconv.Itoa(2*k))
		v1, _ := db.Syms.Lookup("v1")
		if !want.Contains(storage.Tuple{v1, v2k}) {
			t.Fatalf("k=%d: ground truth missing t(v1, v%d)", k, 2*k)
		}

		// The naive unary-carry algorithm misses it.
		naive := Fig8StyleAnswers(db, q, NaiveChainTwoSided(db, "a", "b", "c", "v1"))
		if naive.Contains(storage.Tuple{v1, v2k}) {
			t.Fatalf("k=%d: naive chain algorithm unexpectedly found the deep answer", k)
		}
		if naive.Len() >= want.Len() {
			t.Fatalf("k=%d: naive found %d answers, ground truth %d — expected incompleteness",
				k, naive.Len(), want.Len())
		}

		// Magic stays correct.
		magic, _, err := MagicEval(p, q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !magic.Equal(want) {
			t.Fatalf("k=%d: magic incorrect", k)
		}

		// The context-mode plan stays correct by widening the carry.
		plan, err := CompileSelection(d, q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := evalPlan(plan, db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("k=%d: context plan incorrect: %v != %v", k,
				AnswerStrings(got, db.Syms), AnswerStrings(want, db.Syms))
		}
		if plan.CarryArity <= 1 {
			t.Fatalf("k=%d: two-sided recursion compiled to unary state", k)
		}
	}
}

// Fig8StyleAnswers lifts a unary Y-answer list into a binary answer
// relation for the query's bound first column.
func Fig8StyleAnswers(db *storage.Database, q interface{ String() string }, ys []storage.Value) *storage.Relation {
	rel := storage.NewRelation(2, nil)
	v1, _ := db.Syms.Lookup("v1")
	for _, y := range ys {
		rel.Insert(storage.Tuple{v1, y})
	}
	return rel
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestExpE14Lemma41 checks Lemma 4.1 operationally: for the canonical
// one-sided recursion the seen-dedup discipline loses no answers — the
// unary-carry evaluation (Fig. 8) equals ground truth on every database in
// a randomized family, including ones with long cycles where tuples would
// otherwise repeat.
func TestExpE14Lemma41(t *testing.T) {
	p := mustProgram(t, tcSrc)
	for seed := int64(0); seed < 8; seed++ {
		db := randomGraphDB(15, 40, 6, seed)
		res, err := SemiNaive(p, db)
		if err != nil {
			t.Fatal(err)
		}
		trel := res.IDB.Relation("t")
		starts := map[string]bool{}
		for _, at := range db.Relation("a").Tuples() {
			starts[db.Syms.Name(at[0])] = true
		}
		for n0 := range starts {
			got := valueNames(Fig8HenschenNaqvi(db, "a", "b", n0), db.Syms)
			var want []string
			for _, tt := range trel.Tuples() {
				if db.Syms.Name(tt[0]) == n0 {
					want = append(want, db.Syms.Name(tt[1]))
				}
			}
			sort.Strings(want)
			if !equalStrings(got, want) {
				t.Fatalf("seed %d t(%s, Y): dedup lost answers: %v != %v", seed, n0, got, want)
			}
		}
	}
}
