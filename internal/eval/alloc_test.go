package eval

import (
	"context"
	"testing"

	"repro/internal/parser"
)

// TestFig9IterationAllocs: on a deep chain every Fig. 9 iteration
// carries one context, so the fixed cost of an iteration is the cost of
// the query. With the scratch, level buffers and operator assembly
// owned by the evaluation and single-chunk batches run inline, an
// iteration allocates nothing once the buffers have grown; what remains
// is per-query setup, amortized over the chain.
func TestFig9IterationAllocs(t *testing.T) {
	d := mustDef(t, tcSrc, "t")
	db := chainDB(2000)
	plan, err := CompileSelection(d, parser.MustParseAtom("t(n0, Y)"))
	if err != nil {
		t.Fatal(err)
	}
	plan.Workers = 4
	ctx := context.Background()
	iters := 0
	allocs := testing.AllocsPerRun(10, func() {
		inc, err := plan.Open(ctx, db, nil)
		if err != nil {
			t.Fatal(err)
		}
		iters = inc.Stats().Iterations
	})
	if iters < 2000 {
		t.Fatalf("%d iterations, want >= 2000", iters)
	}
	if per := allocs / float64(iters); per >= 1.5 {
		t.Fatalf("%.0f allocs over %d iterations = %.2f per iteration, want < 1.5", allocs, iters, per)
	}
}
