package eval

import (
	"context"

	"repro/internal/ast"
	"repro/internal/bitset"
	"repro/internal/storage"
)

// This file implements batched multi-query evaluation — the paper's
// Section 5 observation made operational: several selections of the same
// adornment share one traversal. For context-mode Fig. 9 plans the
// carried contexts reachable from the queries' seeds are explored with
// per-query owner bitmasks, so a context reached by many queries is
// expanded (f) per owner wave but g-joined exactly once; for Magic Sets
// the queries' seed facts are unioned into one rewritten program and a
// single semi-naive fixpoint computes every query's magic set and
// answers together.

// BatchPrepared is implemented by prepared skeleton plans that can
// evaluate several bound instances in one shared traversal. binds holds
// one slot table per query (each of the skeleton's width); the i-th
// returned relation answers the i-th query. The returned EvalStats
// describes the shared evaluation as a whole — in particular GProbes
// counts distinct g-joins performed, which for overlapping queries is
// strictly below the sum of per-query evaluations.
type BatchPrepared interface {
	PreparedStrategy
	EvalBatch(ctx context.Context, edb *storage.Database, binds [][]ast.Term) ([]*storage.Relation, EvalStats, error)
}

// Owner masks are multi-word bitmasks of batch query ordinals: bit q
// marks query q as an owner. One shared traversal serves a batch of any
// size — masks grow by the word, there is no 64-query chunking. The
// representation lives in internal/bitset (Mask), shared with the
// evaluator's other bit-vector sets.

// ctxIndex maps context tuples to their dense ordinal via open
// addressing over tuple hashes — the owner table's interner, with no
// string keys on the batch hot path. slots holds ordinal+1 (0 = empty);
// hashes holds each occupied slot's full tuple hash so growth rehashes
// without re-reading tuples.
type ctxIndex struct {
	slots  []int32
	hashes []uint32
	ctxs   []storage.Tuple
}

// ordinalOf returns tup's ordinal, interning a clone when absent; fresh
// reports whether the context is new.
func (ix *ctxIndex) ordinalOf(tup storage.Tuple) (ord int, fresh bool) {
	if 4*(len(ix.ctxs)+1) > 3*len(ix.slots) {
		newCap := 2 * len(ix.slots)
		if newCap < 16 {
			newCap = 16
		}
		slots := make([]int32, newCap)
		hashes := make([]uint32, newCap)
		mask := uint32(newCap - 1)
		for i, s := range ix.slots {
			if s == 0 {
				continue
			}
			h := ix.hashes[i]
			j := h & mask
			for slots[j] != 0 {
				j = (j + 1) & mask
			}
			slots[j], hashes[j] = s, h
		}
		ix.slots, ix.hashes = slots, hashes
	}
	h := storage.HashTuple(tup)
	mask := uint32(len(ix.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s == 0 {
			ord = len(ix.ctxs)
			ix.ctxs = append(ix.ctxs, tup.Clone())
			ix.slots[i] = int32(ord + 1)
			ix.hashes[i] = h
			return ord, true
		}
		if ix.hashes[i] == h && tuplesEqual(ix.ctxs[s-1], tup) {
			return int(s - 1), false
		}
	}
}

// tuplesEqual compares two same-arity tuples.
func tuplesEqual(a, b storage.Tuple) bool {
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}

// EvalBatch implements BatchPrepared for the one-sided planner.
func (o *oneSidedPrepared) EvalBatch(ctx context.Context, edb *storage.Database, binds [][]ast.Term) ([]*storage.Relation, EvalStats, error) {
	return o.plan.EvalBatchCtx(ctx, edb, binds)
}

// EvalBatchCtx evaluates len(binds) same-skeleton selections, sharing
// one Fig. 9 traversal when the plan is context-mode and its reduced
// definition is constant-free (no bound persistent columns): contexts
// are owner-tagged with multi-word bitmasks, so overlapping queries
// expand and g-join the shared part of the context graph once, however
// large the batch. Other modes fall back to per-query evaluation (for
// an all-free adornment the queries are identical and evaluate once).
func (p *Plan) EvalBatchCtx(ctx context.Context, edb *storage.Database, binds [][]ast.Term) ([]*storage.Relation, EvalStats, error) {
	k := len(binds)
	if k == 0 {
		return nil, EvalStats{}, nil
	}
	bound := make([]*Plan, k)
	for i, b := range binds {
		bp, err := p.Bind(b)
		if err != nil {
			return nil, EvalStats{}, err
		}
		bound[i] = bp
	}
	if !p.batchShareable() {
		return evalBatchFallback(ctx, edb, bound, p.NSlots == 0)
	}
	rels, stats, err := p.evalContextBatch(ctx, edb, bound)
	if err != nil {
		return nil, stats, err
	}
	stats.BatchQueries = k
	return rels, stats, nil
}

// batchShareable reports whether one traversal can serve many bound
// instances: the plan must be context-mode and its reduced definition
// slot-free. Bound persistent columns substitute their (per-query)
// constants into the reduced rules themselves, which would specialize
// the shared f and g operators — those adornments evaluate per query.
func (p *Plan) batchShareable() bool {
	return p.Mode == ModeContext &&
		!p.reduced.Recursive.HasSlots() &&
		!p.reduced.Exit.HasSlots()
}

// evalBatchFallback evaluates bound plans one by one. When the skeleton
// has no slots every bound plan is the same plan; it evaluates once and
// every query shares the answer relation.
func evalBatchFallback(ctx context.Context, edb *storage.Database, bound []*Plan, identical bool) ([]*storage.Relation, EvalStats, error) {
	k := len(bound)
	rels := make([]*storage.Relation, k)
	var stats EvalStats
	if identical {
		inc, err := bound[0].Open(ctx, edb, nil)
		if err != nil {
			return nil, stats, err
		}
		for i := range rels {
			rels[i] = inc.Answers()
		}
		st := inc.Stats()
		st.BatchQueries = k
		return rels, st, nil
	}
	for i, bp := range bound {
		inc, err := bp.Open(ctx, edb, nil)
		if err != nil {
			return nil, stats, err
		}
		rels[i] = inc.Answers()
		stats = addBatchStats(stats, inc.Stats())
	}
	stats.BatchQueries = k
	return rels, stats, nil
}

// addBatchStats merges per-chunk (or per-query fallback) statistics:
// work counters add, environment bounds take the maximum.
func addBatchStats(a, b EvalStats) EvalStats {
	out := a
	out.Iterations += b.Iterations
	out.SeenSize += b.SeenSize
	out.GProbes += b.GProbes
	out.Batches += b.Batches
	if b.CarryArity > out.CarryArity {
		out.CarryArity = b.CarryArity
	}
	if b.Workers > out.Workers {
		out.Workers = b.Workers
	}
	if b.Shards > out.Shards {
		out.Shards = b.Shards
	}
	return out
}

// ownerItem is one frontier entry of the shared traversal: a context
// (by index) plus the owners that newly reached it.
type ownerItem struct {
	idx  int
	mask bitset.Mask
}

// taggedCtx is a successor context produced by a parallel f worker,
// merged sequentially into the owner table after the level.
type taggedCtx struct {
	tup  storage.Tuple
	mask bitset.Mask
}

// evalContextBatch is the shared Fig. 9 traversal for arbitrarily many
// bound instances of one context-mode skeleton. Per query it evaluates
// the depth-0 join, the factor groups, and the seed conjunction (those
// mention the query's constants); the f and g operators are compiled
// once from the shared reduced definition. The traversal is a
// multi-source label propagation: a context re-enters the frontier only
// when a new owner reaches it, and the final g phase joins each distinct
// context exactly once, fanning its answers out to every owner.
func (p *Plan) evalContextBatch(ctx context.Context, edb *storage.Database, bound []*Plan) ([]*storage.Relation, EvalStats, error) {
	k := len(bound)
	syms := edb.Syms
	nshards := edb.Shards()
	resolve := func(pred string, alt bool) *storage.Relation { return edb.Relation(pred) }
	workers := p.effectiveWorkers()
	stats := EvalStats{CarryArity: p.CarryArity, Workers: workers, Shards: nshards}
	f := p.compileF(syms, -1)
	g := p.compileG(syms, -1)

	// Per query: the answer relation and the assembler that fills it
	// from the shared g-join solutions, with the query's constants and
	// factor groups. A query with an empty factor group has depth-0
	// answers only, so it never seeds the traversal.
	ans := make([]*storage.Relation, k)
	asms := make([]assembler, k)
	alive := make([]bool, k)
	for q, bp := range bound {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		rel := storage.NewShardedRelation(p.Def.Arity(), &edb.Stats, nshards)
		ans[q] = rel
		insert := func(t storage.Tuple) bool {
			rel.Insert(t)
			return true
		}
		// Depth-0 answers use the query's own constants; no sharing.
		stats.GProbes++
		bp.compileD0(syms, -1).run(bp, syms, resolve, insert)
		groups, ok := bp.evalFactoredGroups(syms, resolve)
		if !ok {
			continue
		}
		asms[q] = assembler{srcs: fillQueryConsts(g.srcs, bp.queryConsts(syms)), groups: groups, sink: insert}
		alive[q] = true
	}

	nAnchors := len(p.foldedAnchors)

	// Owner table: every distinct context with the (multi-word) bitmask
	// of queries that reach it.
	var ix ctxIndex
	var masks []bitset.Mask
	next := make(map[int]bitset.Mask)
	merge := func(tup storage.Tuple, mask bitset.Mask) {
		i, fresh := ix.ordinalOf(tup)
		if fresh {
			masks = append(masks, bitset.NewMask(k))
		}
		if nb := masks[i].OrNew(mask); nb != nil {
			if nm, ok := next[i]; ok {
				nm.OrInto(nb)
			} else {
				next[i] = nb
			}
		}
	}

	for q, bp := range bound {
		if !alive[q] {
			continue
		}
		bit := bitset.Bit(k, q)
		bp.compileSeed(syms, -1).run(bp, resolve, func(tup storage.Tuple) { merge(tup, bit) })
	}

	var frontier []ownerItem
	flush := func() {
		frontier = frontier[:0]
		for i, m := range next {
			frontier = append(frontier, ownerItem{idx: i, mask: m})
		}
		clear(next)
	}
	flush()

	meter := MeterFrom(ctx)
	stats.Batches++ // the seed batch
	// One scratch per worker and operator, reused across levels; each
	// chunk resolves it when it starts and flushes its tallies when it
	// ends.
	fws, gws := make([]stepScratch, workers), make([]stepScratch, workers)
	for len(frontier) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		// Gas: the frontier holds the contexts newly reached (or newly
		// re-owned) this round — the shared traversal's unit of derivation.
		if err := meter.Charge(len(frontier)); err != nil {
			return nil, stats, err
		}
		stats.Iterations++
		stats.Batches++
		results := make([][]taggedCtx, workers)
		parallelFor(workers, len(frontier), func(w, lo, hi int) {
			ws := &fws[w]
			f.prepare(ws, nAnchors, resolve)
			var local []taggedCtx
			var mask bitset.Mask
			tag := func(tup storage.Tuple) {
				local = append(local, taggedCtx{tup: tup.Clone(), mask: mask})
			}
			for _, it := range frontier[lo:hi] {
				mask = it.mask
				f.step(ix.ctxs[it.idx], nAnchors, ws, tag)
			}
			ws.sc.flush()
			results[w] = local
		})
		for _, r := range results {
			for _, sc := range r {
				merge(sc.tup, sc.mask)
			}
		}
		flush()
	}

	// g phase: one probe per distinct context, answers fanned out to the
	// owners — the probe count this whole refactor exists to cut.
	stats.GProbes += len(ix.ctxs)
	stats.SeenSize = len(ix.ctxs)
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	parallelFor(workers, len(ix.ctxs), func(w, lo, hi int) {
		ws := &gws[w]
		g.prepare(ws, p.Def.Arity(), resolve)
		var mask bitset.Mask
		fanOut := func(s []storage.Value, anchors storage.Tuple) bool {
			for q := range asms {
				if mask.Test(q) {
					asms[q].emit(s, anchors, ws.out)
				}
			}
			return true
		}
		for i := lo; i < hi; i++ {
			mask = masks[i]
			g.step(ix.ctxs[i], nAnchors, ws, fanOut)
		}
		ws.sc.flush()
	})
	answers := 0
	for _, r := range ans {
		answers += r.Len()
	}
	if err := meter.Charge(answers); err != nil {
		return nil, stats, err
	}
	return ans, stats, nil
}

// EvalBatch implements BatchPrepared for Magic Sets: the rewritten
// program is shared and every query contributes its seed fact, so one
// semi-naive fixpoint computes the union of the magic sets (the
// Section 5 "sharing magic sets across bb queries" remark) and every
// query's answers; each query then selects its tuples from the shared
// answer predicate.
func (m *magicPrepared) EvalBatch(ctx context.Context, edb *storage.Database, binds [][]ast.Term) ([]*storage.Relation, EvalStats, error) {
	k := len(binds)
	if k == 0 {
		return nil, EvalStats{}, nil
	}
	want := m.mr.Query.SlotCount()
	seed := m.mr.Program.Rules[m.mr.SeedIndex]
	rules := make([]ast.Rule, 0, len(m.mr.Program.Rules)+k-1)
	rules = append(rules, m.mr.Program.Rules[:m.mr.SeedIndex]...)
	rules = append(rules, m.mr.Program.Rules[m.mr.SeedIndex+1:]...)
	queries := make([]ast.Atom, k)
	for i, b := range binds {
		if err := checkSlotTable(want, b); err != nil {
			return nil, EvalStats{}, err
		}
		rules = append(rules, ast.BindRule(seed, b))
		queries[i] = ast.BindAtom(m.mr.Query, b)
	}
	res, err := SemiNaiveCtx(ctx, &ast.Program{Rules: rules}, edb)
	if err != nil {
		return nil, EvalStats{}, err
	}
	rels := make([]*storage.Relation, k)
	for i := range rels {
		rels[i] = storage.NewRelation(m.mr.Query.Arity(), &edb.Stats)
	}
	if rel := res.IDB.Relation(m.mr.AnswerPred); rel != nil {
		for _, t := range rel.Tuples() {
			for i, q := range queries {
				if matchesQuery(t, q, edb.Syms) {
					rels[i].Insert(t)
				}
			}
		}
	}
	return rels, EvalStats{Iterations: res.Rounds, SeenSize: res.IDB.TupleCount(), BatchQueries: k}, nil
}
