package eval

import (
	"context"
	"fmt"

	"repro/internal/storage"
)

// EvalCounting runs a context-mode plan with the Counting method's state
// discipline [BMSU86, SZ86] instead of the Fig. 9 seen-set: carry tuples
// are kept per derivation level, deduplicated within a level but not
// across levels, and the answer join runs over every level. On acyclic
// context graphs this matches Open exactly; on cyclic ones it diverges,
// which is why the paper positions Counting as an alternative whose
// applicability is narrower.
//
// This is also the executable form of the paper's Section 4 open question
// (raised in [NRSU89] and by a referee): deleting the counting fields from
// the counting-transformed program yields exactly the Fig. 9 seen-set
// evaluation. The two share every compiled operator and the per-context
// f and g steps; only the state kept between levels differs.
//
// maxDepth bounds the number of levels; exceeding it returns an error
// (divergence on cyclic data). Cancellation is checked and gas charged
// per level, depth-0 answers included.
func (p *Plan) EvalCounting(ctx context.Context, edb *storage.Database, maxDepth int) (*storage.Relation, EvalStats, error) {
	if p.Mode != ModeContext {
		return nil, EvalStats{}, fmt.Errorf("eval: counting evaluation requires a context-mode plan (have %v)", p.Mode)
	}
	stats := EvalStats{CarryArity: p.CarryArity}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	syms := edb.Syms
	resolve := func(pred string, alt bool) *storage.Relation { return edb.Relation(pred) }
	ans := storage.NewRelation(p.Def.Arity(), &edb.Stats)
	insert := func(t storage.Tuple) bool {
		ans.Insert(t)
		return true
	}
	meter := MeterFrom(ctx)

	p.compileD0(syms, -1).run(p, syms, resolve, insert)
	if err := meter.Charge(ans.Len()); err != nil {
		return nil, stats, err
	}
	charged := ans.Len()
	groups, ok := p.evalFactoredGroups(syms, resolve)
	if !ok {
		return ans, stats, nil
	}

	// The counting discipline: carry tuples are deduplicated within a
	// level only, never against earlier levels.
	nAnchors, width := len(p.foldedAnchors), len(p.foldedAnchors)+len(p.ctxCols)
	var level, next []storage.Tuple
	dedup := storage.NewRelation(width, nil)
	keep := func(tup storage.Tuple) {
		if dedup.Insert(tup) {
			next = append(next, tup.Clone())
		}
	}
	p.compileSeed(syms, -1).run(p, resolve, keep)

	f, g := p.compileF(syms, -1), p.compileG(syms, -1)
	asm := assembler{srcs: fillQueryConsts(g.srcs, p.queryConsts(syms)), groups: groups, sink: insert}
	fs, gs := f.scratch(nAnchors), g.scratch(p.Def.Arity())
	answer := func(s []storage.Value, anchors storage.Tuple) bool { return asm.emit(s, anchors, gs.out) }
	for depth := 0; len(next) > 0; depth++ {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		if depth > maxDepth {
			return nil, stats, fmt.Errorf("eval: counting exceeded depth %d (cyclic context graph)", maxDepth)
		}
		level, next = next, nil
		stats.Iterations++
		stats.SeenSize += len(level)
		for _, c := range level {
			g.step(resolve, c, nAnchors, &gs, answer)
		}
		if err := meter.Charge(len(level) + ans.Len() - charged); err != nil {
			return nil, stats, err
		}
		charged = ans.Len()
		dedup = storage.NewRelation(width, nil)
		for _, c := range level {
			f.step(resolve, c, nAnchors, &fs, keep)
		}
	}
	return ans, stats, nil
}
