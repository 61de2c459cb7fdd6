package eval

import (
	"context"
	"testing"

	"repro/internal/parser"
)

// BenchmarkLayer/eval/* measures the evaluator layer in isolation, over
// a database built once per sub-benchmark:
//
//   - fig9-iter: one context-mode Fig. 9 evaluation of t(n0, Y) on a
//     2,000-node chain, where every iteration carries one context — the
//     per-iteration fixed cost, reported as ns/iter next to the per-query
//     ns/op and allocs/op.
//   - magic-concurrent: cold same-generation queries through Magic Sets
//     (sequential semi-naive rounds) on a depth-9 binary tree, issued
//     from b.RunParallel's GOMAXPROCS goroutines against one shared
//     database: a 2-thread number on a 2-vCPU box. It shows whether
//     concurrent queries contend on shared state such as the database's
//     probe counters.
//
// Reproduce with:
//
//	go test -run '^$' -bench 'BenchmarkLayer' ./internal/eval
func BenchmarkLayer(b *testing.B) {
	ctx := context.Background()
	b.Run("eval/fig9-iter", func(b *testing.B) {
		d := mustDef(b, tcSrc, "t")
		db := chainDB(2000)
		plan, err := CompileSelection(d, parser.MustParseAtom("t(n0, Y)"))
		if err != nil {
			b.Fatal(err)
		}
		iters := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inc, err := plan.Open(ctx, db, nil)
			if err != nil {
				b.Fatal(err)
			}
			iters += inc.Stats().Iterations
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(iters), "ns/iter")
	})
	b.Run("eval/magic-concurrent", func(b *testing.B) {
		db := sgTree(9)
		prog := mustProgram(b, sgSrc)
		var plans []*MagicResult
		for _, leaf := range []string{"nllllllll", "nrrrrrrrr", "nlrlrlrlr", "nrlrlrlrl"} {
			mr, err := MagicTransform(prog, parser.MustParseAtom("sg("+leaf+", Y)"))
			if err != nil {
				b.Fatal(err)
			}
			plans = append(plans, mr)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				mr := plans[i%len(plans)]
				inc, err := newSelectIncrementalFor(ctx, mr.Program, mr.AnswerPred, mr.Query, db, 1)
				if err != nil {
					b.Error(err)
					return
				}
				if _, err := inc.open(ctx, nil); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
