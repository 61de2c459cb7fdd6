package eval

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ast"
	"repro/internal/storage"
)

// This file is the incremental-maintenance layer: prepared plans whose
// evaluation can be RETAINED and then extended with base-relation deltas
// instead of recomputed from scratch. The paper's Fig. 9 algorithms
// already walk the expansion strings from the selection end; under
// inserts the walk is monotone, so a retained seen-set plus
// delta-restricted versions of the seed/f/g operators (standard
// semi-naive view maintenance, specialized to the one-sided schema)
// extend the fixpoint with exactly the new carry batches. Deletions
// maintain through DRed (delete-rederive) on the semi-naive-backed
// states — see snState.retractPass — and fall back to ErrRebuild on the
// context-mode state, whose unary seen-sets cannot un-claim work.

// Delta describes the base-relation changes since a retained
// evaluation's build epoch, signed: Add holds one relation of newly
// inserted tuples per predicate and Del one relation of retracted
// tuples (each indexed like any relation, so delta-restricted
// conjunction atoms probe them). Predicates absent from a map are
// unchanged in that direction. An Add entry may overlap state the
// evaluation already saw — replaying overlap is idempotent under set
// semantics — and a Del entry may name tuples the base never held;
// both directions net out against the maintained state.
type Delta struct {
	Add map[string]*storage.Relation
	Del map[string]*storage.Relation
}

// Empty reports whether the delta carries no change in either
// direction.
func (d Delta) Empty() bool { return len(d.Add) == 0 && len(d.Del) == 0 }

// HasDel reports whether any predicate has retracted tuples.
func (d Delta) HasDel() bool { return len(d.Del) > 0 }

// ErrRebuild is returned by Incremental.Update when the retained state
// cannot absorb the delta — an empty factor-group guard may have
// flipped, or a relation shape changed. The caller falls back to a full
// re-evaluation; answers are never silently wrong.
var ErrRebuild = errors.New("eval: retained state cannot absorb the delta; re-evaluate")

// Incremental is the state PreparedStrategy.Open returns: the
// materialized answer relation plus whatever fixpoint state Update
// needs to maintain it under base-relation deltas. Answers returns the
// live relation — Update changes it in place. An Incremental is not
// safe for concurrent use; callers serialize Update (the engine's
// result cache holds one lock per cached entry).
//
// A non-nil Update error — ErrRebuild or a context cancellation —
// POISONS the state: the pass may have claimed work into its retained
// seen-sets without finishing it, so a retried Update would silently
// skip answers. Discard the Incremental and re-evaluate.
type Incremental interface {
	Answers() *storage.Relation
	Stats() EvalStats
	Update(ctx context.Context, edb *storage.Database, delta Delta) error
}

// fixedState is the state of an evaluation that retains nothing to
// maintain: its answers are final, and every Update asks for a rebuild.
type fixedState struct {
	ans   *storage.Relation
	stats EvalStats
}

func (f *fixedState) Answers() *storage.Relation { return f.ans }
func (f *fixedState) Stats() EvalStats           { return f.stats }

func (f *fixedState) Update(context.Context, *storage.Database, Delta) error { return ErrRebuild }

// stopped ends an Open whose emit returned false: a cancellation when
// ctx fired, otherwise a clean early stop whose answers so far come
// back as a fixed state.
func stopped(ctx context.Context, ans *storage.Relation, stats EvalStats) (Incremental, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &fixedState{ans: ans, stats: stats}, nil
}

// streamed finishes the Open of a plan that materializes its answers
// before it can emit any: ans streams through emit (nil when unused),
// and st is the state returned.
func streamed(ctx context.Context, ans *storage.Relation, emit func(storage.Tuple) bool, st Incremental) (Incremental, error) {
	if emit != nil {
		for _, t := range ans.Tuples() {
			if !emit(t) {
				return stopped(ctx, ans, st.Stats())
			}
		}
	}
	return st, nil
}

// ---------------------------------------------------------------------------
// Context-mode (Fig. 9) incremental state.

// incContext maintains a context-mode evaluation: the retained
// contextEval (seen-set, answers, compiled full operators) plus
// lazily compiled delta variants of the d0, seed, f, and g
// conjunctions, cached by body-atom index so repeated maintenance
// passes — the hot insert→re-query cycle — pay compilation once. The
// caches start nil: a one-shot evaluation never pays for them.
type incContext struct {
	plan  *Plan
	ce    *contextEval
	fVars map[int]*fOps
	gVars map[int]*gOps
	dVars map[int]d0Ops
	sVars map[int]seedOps
}

func (ic *incContext) Answers() *storage.Relation { return ic.ce.ans }
func (ic *incContext) Stats() EvalStats           { return ic.ce.stats }

// cachedVar returns the delta variant cached in *m under body index i,
// compiling (and caching) it on first use.
func cachedVar[V any](m *map[int]V, i int, compile func() V) V {
	if v, ok := (*m)[i]; ok {
		return v
	}
	if *m == nil {
		*m = make(map[int]V)
	}
	v := compile()
	(*m)[i] = v
	return v
}

// fVar returns the f delta variant for recursive-body index i.
func (ic *incContext) fVar(i int) *fOps {
	return cachedVar(&ic.fVars, i, func() *fOps {
		f := ic.plan.compileF(ic.ce.syms, i)
		return &f
	})
}

// gVar returns the g delta variant for exit-body index i, its
// query-constant sources filled (they reference the variant's own slot
// space, so they cannot be shared with the loop's g).
func (ic *incContext) gVar(i int) *gOps {
	return cachedVar(&ic.gVars, i, func() *gOps {
		g := ic.plan.compileG(ic.ce.syms, i)
		g.srcs = fillQueryConsts(g.srcs, ic.plan.queryConsts(ic.ce.syms))
		return &g
	})
}

// d0Var returns the d0 delta variant for exit-body index i.
func (ic *incContext) d0Var(i int) d0Ops {
	return cachedVar(&ic.dVars, i, func() d0Ops { return ic.plan.compileD0(ic.ce.syms, i) })
}

// seedVar returns the seed delta variant for seed-atom index i.
func (ic *incContext) seedVar(i int) seedOps {
	return cachedVar(&ic.sVars, i, func() seedOps { return ic.plan.compileSeed(ic.ce.syms, i) })
}

// Update extends the retained Fig. 9 fixpoint with the delta:
//
//  1. depth-0 answers that use a new exit-body tuple (d0 delta variants);
//  2. new seed contexts from delta-restricted seed conjunctions;
//  3. new transitions out of already-seen contexts: fBatch with an f
//     delta variant over the pre-update seen-set — the delta atom keeps
//     each probe tiny;
//  4. the ordinary Fig. 9 loop over the genuinely new contexts, using
//     the retained full operators and the retained seen-set as the
//     dedup/claim point;
//  5. new answers for already-seen contexts that use a new exit-body
//     tuple: gBatch with a g delta variant over the pre-update contexts.
//
// Anchor-free factor groups are pure nonemptiness guards: new tuples in
// them change nothing while the group stays non-empty, and a flip from
// empty (noDepth) is reported as ErrRebuild.
//
// Deletions: the retained seen-set is a claim table, not a derivation
// count — contexts and answers cannot be un-claimed without replaying
// the carry graph. A Del entry touching any predicate the definition
// reads (or the defined predicate itself, whose same-name EDB facts
// seed answers) therefore reports ErrRebuild, the sanctioned safe
// fallback; deletions confined to unrelated predicates are ignored.
func (ic *incContext) Update(ctx context.Context, edb *storage.Database, delta Delta) error {
	p, ce := ic.plan, ic.ce
	if delta.HasDel() {
		if delta.Del[p.Def.Pred()] != nil {
			return ErrRebuild
		}
		for _, a := range p.Def.Recursive.Body {
			if delta.Del[a.Pred] != nil {
				return ErrRebuild
			}
		}
		for _, a := range p.Def.Exit.Body {
			if delta.Del[a.Pred] != nil {
				return ErrRebuild
			}
		}
	}
	syms := ce.syms
	dres := func(pred string, alt bool) *storage.Relation {
		if alt {
			return delta.Add[pred]
		}
		return edb.Relation(pred)
	}
	exitBody := p.reduced.Exit.Body
	recBody := p.reduced.NonrecursiveBody()
	touches := func(atoms []ast.Atom) bool {
		for _, a := range atoms {
			if delta.Add[a.Pred] != nil {
				return true
			}
		}
		return false
	}
	exitChanged, recChanged := touches(exitBody), touches(recBody)
	if !exitChanged && !recChanged {
		return nil
	}

	// Gas: like the initial run, the maintenance pass charges the growth
	// of the retained seen-set plus answers at batch granularity. An
	// exhausted budget poisons the state exactly as a cancellation does.
	meter := MeterFrom(ctx)

	if ce.noDepth && recChanged {
		// Depth-0-only state: a delta touching the recursive body (which
		// includes every factor-group guard) could flip an empty guard
		// and enable depth >= 1 derivations nothing retained can derive.
		return ErrRebuild
	}

	// 1. Depth-0 delta answers.
	for i, a := range exitBody {
		if delta.Add[a.Pred] == nil {
			continue
		}
		ce.stats.GProbes++
		ic.d0Var(i).run(p, syms, dres, ce.emitAnswer)
	}
	if err := ce.charge(meter); err != nil || ce.noDepth {
		return err
	}

	// Snapshot the contexts known before this update: the f/g delta
	// variants below must cover exactly these; genuinely new contexts go
	// through the full operators instead.
	old := ce.seen.Tuples()

	// 2. New seed contexts.
	var frontier []storage.Tuple
	for i, a := range p.seedAtoms() {
		if delta.Add[a.Pred] == nil {
			continue
		}
		ic.seedVar(i).run(p, dres, func(tup storage.Tuple) {
			if ce.seen.Offer(tup) {
				frontier = append(frontier, tup.Clone())
			}
		})
	}

	// 3. New transitions out of already-seen contexts. The delta
	// variants of steps 3 and 5 run on one worker: each probe is a
	// sub-microsecond lookup in the same small unsharded delta relation,
	// and split across workers the maintained-insert benchmark ran
	// slower.
	for i, a := range recBody {
		if delta.Add[a.Pred] == nil {
			continue
		}
		frontier = append(frontier, ce.fBatch(ic.fVar(i), dres, 1, old)...)
	}

	// 4. Fig. 9 loop over the new contexts, on the retained state.
	if len(frontier) > 0 {
		if err := ce.loop(ctx, meter, frontier); err != nil {
			return err
		}
	}

	// 5. New answers for old contexts through new exit tuples.
	for i, a := range exitBody {
		if delta.Add[a.Pred] == nil {
			continue
		}
		ce.gBatch(ic.gVar(i), dres, 1, old)
	}

	ce.stats.SeenSize = ce.seen.Len()
	if err := ce.charge(meter); err != nil {
		return err
	}
	return ctx.Err()
}

// ---------------------------------------------------------------------------
// Semi-naive-backed incremental states (reduced/full one-sided plans,
// the multi-rule reduction, Magic Sets, and the plain semi-naive
// strategy).

// incSemiNaive maintains a retained semi-naive fixpoint plus an answer
// relation folded from one watched derived predicate.
type incSemiNaive struct {
	st    *snState
	watch string
	// apply folds one watched tuple into the answers, returning the
	// answer tuple and whether it is new.
	apply func(t storage.Tuple) (storage.Tuple, bool)
	// applyDel removes one retracted watched tuple from the answers —
	// the DRed settle phase's counterpart of apply.
	applyDel func(t storage.Tuple)
	ans      *storage.Relation
	// seenSize recomputes the SeenSize statistic.
	seenSize func() int
	stats    EvalStats
}

func (s *incSemiNaive) Answers() *storage.Relation { return s.ans }
func (s *incSemiNaive) Stats() EvalStats           { return s.stats }

func (s *incSemiNaive) Update(ctx context.Context, edb *storage.Database, delta Delta) error {
	err := s.st.update(ctx, delta, func(pred string, t storage.Tuple) {
		if pred == s.watch {
			s.apply(t)
		}
	}, func(pred string, t storage.Tuple) {
		if pred == s.watch {
			s.applyDel(t)
		}
	})
	if err != nil {
		return err
	}
	s.stats.Iterations = s.st.rounds
	s.stats.SeenSize = s.seenSize()
	return nil
}

// open finishes an Open over the initial fixpoint: the watched
// relation's tuples fold into the answers, each new answer streaming
// through emit (nil when unused).
func (s *incSemiNaive) open(ctx context.Context, emit func(storage.Tuple) bool) (Incremental, error) {
	folded := foldAnswers(s.st.idb.Relation(s.watch), s.apply, emit)
	s.stats.Iterations = s.st.rounds
	s.stats.SeenSize = s.seenSize()
	if !folded {
		return stopped(ctx, s.ans, s.stats)
	}
	return s, nil
}

// foldAnswers applies every tuple of rel (nil when the predicate
// derived nothing), streaming each new answer through emit; false when
// emit stopped the fold.
func foldAnswers(rel *storage.Relation, apply func(storage.Tuple) (storage.Tuple, bool), emit func(storage.Tuple) bool) bool {
	if rel == nil {
		return true
	}
	for _, t := range rel.Tuples() {
		if out, fresh := apply(t); fresh && emit != nil && !emit(out) {
			return false
		}
	}
	return true
}

// Open evaluates the plan into its maintainable state: the Fig. 9 loop
// in context mode, the reduced recursion's semi-naive fixpoint in
// reduced mode, and the whole definition's in full mode. Context plans
// with anchored factor groups would need the g-join solutions retained
// per context to cross new group tuples in; they return a fixed state
// instead.
func (p *Plan) Open(ctx context.Context, edb *storage.Database, emit func(storage.Tuple) bool) (Incremental, error) {
	if p.NSlots > 0 {
		return nil, errUnboundSkeleton(p.Query)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch p.Mode {
	case ModeContext:
		ce := p.newContextEval(edb, emit)
		if err := ce.run(ctx); err != nil {
			return nil, err
		}
		ce.emit = nil
		if ce.aborted.Load() {
			return &fixedState{ans: ce.ans, stats: ce.stats}, nil
		}
		for _, fg := range p.factored {
			if len(fg.anchors) > 0 {
				return &fixedState{ans: ce.ans, stats: ce.stats}, nil
			}
		}
		return &incContext{plan: p, ce: ce}, nil
	case ModeReduced:
		r := Reduction{Program: p.reduced.Program(), Pred: p.reduced.Pred(), Query: p.Query, Keep: p.keepCols, Workers: p.effectiveWorkers()}
		return r.Open(ctx, edb, emit)
	case ModeFull:
		inc, err := newSelectIncrementalFor(ctx, p.Def.Program(), p.Query.Pred, p.Query, edb, p.effectiveWorkers())
		if err != nil {
			return nil, err
		}
		inc.seenSize = inc.ans.Len
		inc.stats = EvalStats{CarryArity: p.CarryArity, Workers: p.effectiveWorkers(), Shards: edb.Shards()}
		return inc.open(ctx, emit)
	}
	return nil, fmt.Errorf("eval: invalid plan mode")
}

// Reduction is a selection evaluated through the persistent-column
// reduction (Section 4): the bound columns' constants substituted into
// the rules and the columns dropped. Program holds the reduced rules
// and Pred their reduced predicate; Keep maps each reduced column to
// its original column, and Query, the bound query, supplies the
// constants of the dropped ones. Workers bounds the semi-naive round
// parallelism (0 means GOMAXPROCS). One-sided plans in reduced mode and
// the multi-rule reduction both evaluate through it.
type Reduction struct {
	Program *ast.Program
	Pred    string
	Query   ast.Atom
	Keep    []int
	Workers int
}

// Open evaluates the reduced program semi-naively and re-expands each
// reduced tuple through the dropped constant columns. The fixpoint is
// retained, so the answers maintain under signed deltas (DRed for
// retractions) as new reduced tuples appear or go.
func (r Reduction) Open(ctx context.Context, edb *storage.Database, emit func(storage.Tuple) bool) (Incremental, error) {
	st, err := newSNFixpoint(ctx, r.Program, edb, r.Workers)
	if err != nil {
		return nil, err
	}
	arity := r.Query.Arity()
	ans := storage.NewShardedRelation(arity, &edb.Stats, edb.Shards())
	// out is shared by both hooks: Update runs them sequentially.
	out := make(storage.Tuple, arity)
	for i, a := range r.Query.Args {
		if a.IsConst() {
			out[i] = edb.Syms.Intern(a.Name)
		}
	}
	expand := func(t storage.Tuple) storage.Tuple {
		for ri, oi := range r.Keep {
			out[oi] = t[ri]
		}
		return out
	}
	inc := &incSemiNaive{
		st: st, watch: r.Pred, ans: ans,
		apply: func(t storage.Tuple) (storage.Tuple, bool) {
			o := expand(t)
			return o, ans.Insert(o)
		},
		applyDel: func(t storage.Tuple) { ans.Retract(expand(t)) },
		seenSize: func() int {
			if rel := st.idb.Relation(r.Pred); rel != nil {
				return rel.Len()
			}
			return 0
		},
		stats: EvalStats{CarryArity: len(r.Keep), Workers: r.Workers, Shards: edb.Shards()},
	}
	return inc.open(ctx, emit)
}

// newSelectIncrementalFor is the materialize-then-select fold shared by
// one-sided plans in full mode, Magic Sets, and the semi-naive strategy:
// a retained fixpoint over prog, with the tuples of the watched
// predicate that match the query's constants folded into the answers.
// The watched predicate may differ from the query's: Magic Sets watches
// its answer predicate while selecting with the original query atom.
// The caller opens the returned state.
func newSelectIncrementalFor(ctx context.Context, prog *ast.Program, watch string, query ast.Atom, edb *storage.Database, workers int) (*incSemiNaive, error) {
	st, err := newSNFixpoint(ctx, prog, edb, workers)
	if err != nil {
		return nil, err
	}
	ans := storage.NewRelation(query.Arity(), &edb.Stats)
	return &incSemiNaive{
		st: st, watch: watch, ans: ans,
		apply: selectInto(ans, query, edb.Syms),
		applyDel: func(t storage.Tuple) {
			if matchesQuery(t, query, edb.Syms) {
				ans.Retract(t)
			}
		},
		seenSize: st.idb.TupleCount,
	}, nil
}

// selectInto returns the fold step that inserts a tuple matching the
// query's constants into ans.
func selectInto(ans *storage.Relation, query ast.Atom, syms *storage.SymbolTable) func(storage.Tuple) (storage.Tuple, bool) {
	return func(t storage.Tuple) (storage.Tuple, bool) {
		return t, matchesQuery(t, query, syms) && ans.Insert(t)
	}
}

// ---------------------------------------------------------------------------
// EDB lookup strategy.

// incEDB maintains a base-relation selection: delta tuples of the query
// predicate that match the selection join (Add) or leave (Del) the
// answer set.
type incEDB struct {
	query ast.Atom
	syms  *storage.SymbolTable
	ans   *storage.Relation
	stats EvalStats
}

func (e *incEDB) Answers() *storage.Relation { return e.ans }
func (e *incEDB) Stats() EvalStats           { return e.stats }

func (e *incEDB) Update(ctx context.Context, edb *storage.Database, delta Delta) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d := delta.Del[e.query.Pred]; d != nil {
		if d.Arity() != e.query.Arity() {
			return ErrRebuild
		}
		for _, t := range d.Tuples() {
			if matchesQuery(t, e.query, e.syms) {
				e.ans.Retract(t)
			}
		}
	}
	if d := delta.Add[e.query.Pred]; d != nil {
		if d.Arity() != e.query.Arity() {
			return ErrRebuild
		}
		for _, t := range d.Tuples() {
			if matchesQuery(t, e.query, e.syms) {
				e.ans.Insert(t)
			}
		}
	}
	e.stats.SeenSize = e.ans.Len()
	return nil
}
