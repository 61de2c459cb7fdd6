package eval

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/parser"
	"repro/internal/storage"
)

// TestEvalStreamFirstAnswerBeforeFixpointEnds pins the streaming
// contract: a context-mode plan must emit its first answer before the
// Fig. 9 while loop has run to completion. The emit callback is invoked
// synchronously by the evaluation, so recording the iteration counter
// (via TestIterHook) at emit time is deterministic — no scheduling races.
func TestEvalStreamFirstAnswerBeforeFixpointEnds(t *testing.T) {
	db := storage.NewDatabase()
	first, last := datagen.Chain(db, "a", "n", 400)
	db.AddFact("b", first, "z0")  // depth-0 answer: emitted before the loop
	db.AddFact("b", last, "zend") // deepest answer: emitted at the last level
	d := mustDef(t, `
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
	`, "t")
	plan, err := CompileSelection(d, parser.MustParseAtom("t("+first+", Y)"))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mode != ModeContext {
		t.Fatalf("mode = %v, want context", plan.Mode)
	}
	plan.Workers = 1 // single driver goroutine: hook and emit stay ordered

	iters := 0
	plan.TestIterHook = func(i int) { iters = i }
	emitIters := []int{}
	ans, stats, err := openResult(plan.Open(context.Background(), db, func(tup storage.Tuple) bool {
		emitIters = append(emitIters, iters)
		return true
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(emitIters) != 2 || ans.Len() != 2 {
		t.Fatalf("emitted %d answers (relation has %d), want 2", len(emitIters), ans.Len())
	}
	if emitIters[0] != 0 {
		t.Fatalf("first answer emitted after %d iterations, want 0 (before the loop)", emitIters[0])
	}
	if stats.Iterations < 399 {
		t.Fatalf("fixpoint ran %d iterations, expected the full chain", stats.Iterations)
	}
	if emitIters[0] >= stats.Iterations {
		t.Fatalf("first answer at iteration %d, not before the final iteration %d", emitIters[0], stats.Iterations)
	}
	if last := emitIters[len(emitIters)-1]; last < 399 {
		t.Fatalf("deepest answer emitted at iteration %d, expected the last level", last)
	}
}

// TestEvalStreamEmitStop checks that emit returning false stops the
// evaluation early without error, and that the partial state it leaves
// refuses maintenance.
func TestEvalStreamEmitStop(t *testing.T) {
	db := storage.NewDatabase()
	first, _ := datagen.Chain(db, "a", "n", 100)
	for i := 0; i < 100; i++ {
		db.AddFact("b", "n"+itoa(i), "sink"+itoa(i))
	}
	d := mustDef(t, `
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- b(X, Y).
	`, "t")
	plan, err := CompileSelection(d, parser.MustParseAtom("t("+first+", Y)"))
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	inc, err := plan.Open(context.Background(), db, func(storage.Tuple) bool {
		got++
		return got < 3
	})
	if err != nil {
		t.Fatalf("early stop returned error: %v", err)
	}
	if got != 3 {
		t.Fatalf("emit called %d times after stop at 3", got)
	}
	if err := inc.Update(context.Background(), db, Delta{}); !errors.Is(err, ErrRebuild) {
		t.Fatalf("Update on a stopped state = %v, want ErrRebuild", err)
	}
}

func itoa(i int) string {
	return string(rune('0'+i/10%10)) + string(rune('0'+i%10))
}

// TestParallelContextMatchesSequential evaluates the same context-mode
// selections with one worker and with a pool over a sharded database,
// and requires identical answer sets, seen sizes, and iteration counts.
// GOMAXPROCS is raised so the pool really runs concurrently even on
// single-CPU machines.
func TestParallelContextMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	defs := []struct{ name, src, pred string }{
		{"tc", `
			t(X, Y) :- a(X, Z), t(Z, Y).
			t(X, Y) :- b(X, Y).`, "t"},
		{"permissions", `
			t(X, Y) :- a(X, Z), t(Z, Y), p(X, Y).
			t(X, Y) :- b(X, Y).`, "t"},
	}
	workloads := map[string]*storage.Database{
		"random": datagen.RandomTC(1500, 6000, 40, 3).DB,
		"cyclic": datagen.CyclicTC(800).DB,
	}
	// The permissions definition also needs a p relation.
	for _, db := range workloads {
		datagen.RandomGraph(db, "p", "n", 1500, 9000, 5)
	}
	for _, dc := range defs {
		d := mustDef(t, dc.src, dc.pred)
		for wname, db := range workloads {
			db.SetShards(8)
			q := parser.MustParseAtom("t(n0, Y)")
			seq, err := CompileSelection(d, q)
			if err != nil {
				t.Fatal(err)
			}
			seq.Workers = 1
			par, err := CompileSelection(d, q)
			if err != nil {
				t.Fatal(err)
			}
			par.Workers = 8
			sGot, sStats, err := evalPlan(seq, db)
			if err != nil {
				t.Fatal(err)
			}
			pGot, pStats, err := evalPlan(par, db)
			if err != nil {
				t.Fatal(err)
			}
			if !sGot.Equal(pGot) {
				t.Fatalf("%s/%s: parallel answers differ: seq %d vs par %d tuples",
					dc.name, wname, sGot.Len(), pGot.Len())
			}
			if sStats.SeenSize != pStats.SeenSize || sStats.Iterations != pStats.Iterations {
				t.Fatalf("%s/%s: stats diverge: seq %+v par %+v", dc.name, wname, sStats, pStats)
			}
			if pStats.Workers != 8 || pStats.Shards != 8 || pStats.Batches != pStats.Iterations+1 {
				t.Fatalf("%s/%s: parallel stats not reported: %+v", dc.name, wname, pStats)
			}
		}
	}
}

// TestParallelSemiNaiveMatchesSequential runs a multi-rule program —
// several (rule, variant) jobs per round, so the parallel round path is
// exercised — and checks the derived database against the single-worker
// result.
func TestParallelSemiNaiveMatchesSequential(t *testing.T) {
	prog := parser.MustParseProgram(`
		t(X, Y) :- rail(X, Z), t(Z, Y).
		t(X, Y) :- bus(X, Z), t(Z, Y).
		t(X, Y) :- home(X, Y).
		r(X, Y) :- t(X, Y).
		r(X, Y) :- t(Y, X).
	`)
	db := storage.NewDatabase()
	db.SetShards(8)
	datagen.RandomGraph(db, "rail", "s", 300, 900, 41)
	datagen.RandomGraph(db, "bus", "s", 300, 900, 43)
	db.AddFact("home", "s7", "depot")

	old := runtime.GOMAXPROCS(1)
	seqRes, seqErr := SemiNaive(prog, db)
	runtime.GOMAXPROCS(8)
	parRes, parErr := SemiNaive(prog, db)
	runtime.GOMAXPROCS(old)
	if seqErr != nil || parErr != nil {
		t.Fatalf("errors: %v, %v", seqErr, parErr)
	}
	for _, pred := range []string{"t", "r"} {
		s, p := seqRes.IDB.Relation(pred), parRes.IDB.Relation(pred)
		if s == nil || p == nil || !s.Equal(p) {
			t.Fatalf("%s: parallel semi-naive diverges from sequential", pred)
		}
	}
}
