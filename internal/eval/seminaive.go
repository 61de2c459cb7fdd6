package eval

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/ast"
	"repro/internal/storage"
)

// ruleVariant is one delta version of a rule body, with the head compiled
// against the variant's own slot space.
type ruleVariant struct {
	conj *compiledConj
	head []argRef
}

// compiledRule is a rule prepared for bottom-up evaluation.
type compiledRule struct {
	src ast.Rule
	// variants are the delta versions of the body: variant i marks the
	// i-th IDB body occurrence as the delta atom. For rules without IDB
	// body atoms there is a single variant with no delta atom.
	variants []ruleVariant
	headPred string
	// edbVariants maps a body index holding an EDB atom to the variant
	// that marks it as the delta atom — the incremental-maintenance
	// counterpart of variants, built lazily on the first Update (see
	// snState.update).
	edbVariants map[int]ruleVariant
	// check is the head-bound satisfiability variant DRed's rederive
	// phase probes ("is this head tuple still derivable by this rule?"),
	// built lazily on the first retraction (see rederiver.derivable).
	check *headCheck
}

// headCheck is a rule compiled for head-bound satisfiability: the head
// argument slots are interned first and pre-bound from a candidate
// tuple, and the body conjunction — fully existential, since no
// solution values are read — stops at the first witness.
type headCheck struct {
	conj *compiledConj
	head []argRef
}

// compileHeadCheck builds the head-bound satisfiability variant of a
// rule.
func compileHeadCheck(r ast.Rule, idb map[string]bool, syms *storage.SymbolTable) *headCheck {
	ss := newSlotSpace()
	head := make([]argRef, len(r.Head.Args))
	bound := make(map[string]bool)
	for i, t := range r.Head.Args {
		if t.IsConst() {
			head[i] = argRef{isConst: true, val: syms.Intern(t.Name)}
			continue
		}
		head[i] = argRef{slot: ss.slot(t.Name)}
		bound[t.Name] = true
	}
	idbFlags := make([]bool, len(r.Body))
	for i, a := range r.Body {
		idbFlags[i] = idb[a.Pred]
	}
	conj := compileConj(r.Body, &compileConjOpts{idbFlags: idbFlags}, ss, syms, bound, map[string]bool{})
	return &headCheck{conj: conj, head: head}
}

// variantFor returns the delta variant of cr that marks body index i as
// the delta atom, compiling (and caching) EDB variants on demand.
func (cr *compiledRule) variantFor(i int, cp *program, syms *storage.SymbolTable) ruleVariant {
	if cp.idb[cr.src.Body[i].Pred] {
		k := 0
		for j := 0; j < i; j++ {
			if cp.idb[cr.src.Body[j].Pred] {
				k++
			}
		}
		return cr.variants[k]
	}
	if cr.edbVariants == nil {
		cr.edbVariants = make(map[int]ruleVariant)
	}
	v, ok := cr.edbVariants[i]
	if !ok {
		v = compileRuleVariant(cr.src, cp.idb, syms, i)
		cr.edbVariants[i] = v
	}
	return v
}

// program holds the compiled rules and the IDB/EDB split used by the
// bottom-up engines.
type program struct {
	rules []*compiledRule
	idb   map[string]bool
	arity map[string]int
	facts []ast.Rule
}

// headPreds returns the set of predicates defined by any rule or fact of p
// (the IDB in the engine's sense: everything it may derive or seed).
func headPreds(p *ast.Program) map[string]bool {
	s := make(map[string]bool)
	for _, r := range p.Rules {
		s[r.Head.Pred] = true
	}
	return s
}

// compileProgram validates and compiles every rule.
func compileProgram(p *ast.Program, syms *storage.SymbolTable) (*program, error) {
	arity, err := p.Arities()
	if err != nil {
		return nil, err
	}
	cp := &program{idb: headPreds(p), arity: arity}
	for _, r := range p.Rules {
		if len(r.Body) == 0 {
			if !r.IsFact() {
				return nil, fmt.Errorf("eval: rule %v has an empty body but a non-ground head", r)
			}
			cp.facts = append(cp.facts, r)
			continue
		}
		// Safety: every head variable must occur in the body.
		bodyVars := make(map[string]bool)
		for _, a := range r.Body {
			for _, t := range a.Args {
				if t.IsVar() {
					bodyVars[t.Name] = true
				}
			}
		}
		for _, t := range r.Head.Args {
			if t.IsVar() && !bodyVars[t.Name] {
				return nil, fmt.Errorf("eval: rule %v is unsafe: head variable %s not in body", r, t.Name)
			}
		}
		cr := &compiledRule{src: r, headPred: r.Head.Pred}
		// Build the non-delta variant (used by the first round and by
		// Naive) and one delta variant per IDB body occurrence.
		var idbIdx []int
		for i, a := range r.Body {
			if cp.idb[a.Pred] {
				idbIdx = append(idbIdx, i)
			}
		}
		if len(idbIdx) == 0 {
			cr.variants = []ruleVariant{compileRuleVariant(r, cp.idb, syms, -1)}
		} else {
			for _, i := range idbIdx {
				cr.variants = append(cr.variants, compileRuleVariant(r, cp.idb, syms, i))
			}
		}
		cp.rules = append(cp.rules, cr)
	}
	return cp, nil
}

// compileRuleVariant compiles one delta variant of a rule: body index
// delta (when >= 0) is marked as the alt atom the resolver redirects to
// a delta relation. The variant works for IDB deltas (semi-naive rounds)
// and EDB deltas (incremental maintenance) alike — the resolver decides
// what the alt relation is.
func compileRuleVariant(r ast.Rule, idb map[string]bool, syms *storage.SymbolTable, delta int) ruleVariant {
	ss := newSlotSpace()
	flags := make([]bool, len(r.Body))
	if delta >= 0 {
		flags[delta] = true
	}
	idbFlags := make([]bool, len(r.Body))
	for i, a := range r.Body {
		idbFlags[i] = idb[a.Pred]
	}
	conj := compileConj(r.Body, &compileConjOpts{altFlags: flags, idbFlags: idbFlags}, ss, syms, nil, r.Head.VarSet())
	// Head compiled against the same slot space; head variables
	// occur in the body (safety), so their slots already exist.
	head := make([]argRef, len(r.Head.Args))
	for i, t := range r.Head.Args {
		if t.IsConst() {
			head[i] = argRef{isConst: true, val: syms.Intern(t.Name)}
		} else {
			head[i] = argRef{slot: ss.slot(t.Name)}
		}
	}
	return ruleVariant{conj: conj, head: head}
}

// Result is the outcome of bottom-up evaluation: the derived (IDB)
// database plus iteration statistics.
type Result struct {
	// IDB holds the derived relations (sharing the input symbol table).
	IDB *storage.Database
	// Rounds is the number of fixpoint iterations performed.
	Rounds int
}

// SemiNaive evaluates the program bottom-up with the semi-naive strategy
// over the EDB database. Predicates defined by rules or facts of the
// program are derived into a fresh database; a relation in edb with the
// same name as a derived predicate seeds it (this is what uniform
// containment needs, and it is harmless otherwise).
func SemiNaive(p *ast.Program, edb *storage.Database) (*Result, error) {
	return SemiNaiveCtx(context.Background(), p, edb)
}

// SemiNaiveCtx is SemiNaive with cancellation: the fixpoint loop checks
// ctx between rounds and returns ctx.Err() when it fires. Rounds
// parallelize across GOMAXPROCS workers.
func SemiNaiveCtx(ctx context.Context, p *ast.Program, edb *storage.Database) (*Result, error) {
	st, err := newSNFixpoint(ctx, p, edb, 0)
	if err != nil {
		return nil, err
	}
	return st.result(), nil
}

// newSNFixpoint compiles p over edb and runs its initial semi-naive
// fixpoint, with the per-round parallelism bounded to workers (0 means
// GOMAXPROCS, 1 forces sequential rounds).
func newSNFixpoint(ctx context.Context, p *ast.Program, edb *storage.Database, workers int) (*snState, error) {
	st, err := newSNState(p, edb, workers)
	if err != nil {
		return nil, err
	}
	if err := st.initialFixpoint(ctx); err != nil {
		return nil, err
	}
	return st, nil
}

// snState is a retained semi-naive evaluation: the compiled program, the
// derived database, and the round counter. After initialFixpoint it can
// be extended in place with base-relation deltas (update) — the
// delta-driven maintenance pass the engine's result cache runs instead
// of recomputing the fixpoint from scratch. An snState is not safe for
// concurrent use; callers serialize initialFixpoint/update.
type snState struct {
	cp      *program
	edb     *storage.Database
	idb     *storage.Database
	workers int
	rounds  int

	// Deletion-maintenance machinery, built lazily by ensureStrata on
	// the first retraction: the SCC condensation of the IDB dependency
	// graph in dependencies-first order, which predicates sit in a cycle,
	// the rules indexed by head, and the program's ground facts as
	// relations (a fact survives any retraction).
	strata      [][]string
	recursive   map[string]bool
	rulesByHead map[string][]*compiledRule
	factRels    map[string]*storage.Relation
}

// newSNState compiles the program and seeds the derived database with
// the program's facts and same-name EDB relations.
func newSNState(p *ast.Program, edb *storage.Database, workers int) (*snState, error) {
	cp, err := compileProgram(p, edb.Syms)
	if err != nil {
		return nil, err
	}
	st := &snState{cp: cp, edb: edb, idb: storage.NewDatabaseWith(edb.Syms), workers: workers}
	// Seed: program facts and same-name EDB relations. The seeds need no
	// delta bookkeeping because the first round evaluates every rule
	// against the full (seeded) relations.
	for pred := range cp.idb {
		arity, ok := cp.arity[pred]
		if !ok {
			continue
		}
		rel := st.idb.Ensure(pred, arity)
		if seed := edb.Relation(pred); seed != nil {
			for _, t := range seed.Tuples() {
				rel.Insert(t)
			}
		}
	}
	for _, f := range cp.facts {
		t := make(storage.Tuple, len(f.Head.Args))
		for i, c := range f.Head.Args {
			t[i] = edb.Syms.Intern(c.Name)
		}
		st.idb.Ensure(f.Head.Pred, len(t)).Insert(t)
	}
	return st, nil
}

// result wraps the current derived state.
func (st *snState) result() *Result { return &Result{IDB: st.idb, Rounds: st.rounds} }

// resolve builds a resolver over the retained state with the given delta
// table serving alt (delta-atom) lookups.
func (st *snState) resolve(useDelta map[string]*storage.Relation) resolver {
	return func(pred string, alt bool) *storage.Relation {
		if alt {
			return useDelta[pred]
		}
		if st.cp.idb[pred] {
			return st.idb.Relation(pred)
		}
		return st.edb.Relation(pred)
	}
}

// freshDelta pre-creates one delta relation per derived predicate of
// known arity so the map is read-only while a round's jobs run in
// parallel (and so update's direct IDB-seed inserts always have a delta
// relation to record into).
func (st *snState) freshDelta() map[string]*storage.Relation {
	m := make(map[string]*storage.Relation, len(st.cp.idb))
	for pred := range st.cp.idb {
		if arity, ok := st.cp.arity[pred]; ok {
			m[pred] = storage.NewShardedRelation(arity, nil, st.idb.Shards())
		}
	}
	return m
}

// initialFixpoint runs the full semi-naive evaluation: one unrestricted
// first round, then delta rounds to fixpoint.
func (st *snState) initialFixpoint(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	newDelta := st.freshDelta()
	var first []roundJob
	for _, cr := range st.cp.rules {
		first = append(first, roundJob{cr: cr, variants: cr.variants[0:1]})
	}
	runRound(first, st.resolve(nil), st.idb, newDelta, true, st.workers)
	st.rounds++
	return st.deltaLoop(ctx, newDelta, nil)
}

// deltaLoop drives delta rounds until no new tuples appear. onNew, when
// non-nil, observes every genuinely new derived tuple (including the
// contents of the caller's seeding round) — the hook incremental
// answer-relation maintenance rides on.
func (st *snState) deltaLoop(ctx context.Context, newDelta map[string]*storage.Relation, onNew func(pred string, t storage.Tuple)) error {
	meter := MeterFrom(ctx)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Promote.
		delta := newDelta
		empty := true
		fresh := 0
		for pred, d := range delta {
			if d.Len() == 0 {
				continue
			}
			empty = false
			fresh += d.Len()
			if onNew != nil {
				for _, t := range d.Tuples() {
					onNew(pred, t)
				}
			}
		}
		if empty {
			return nil
		}
		// Gas: the promoted delta is exactly the round's genuinely new
		// derived tuples — one charge per semi-naive round.
		if err := meter.Charge(fresh); err != nil {
			return err
		}
		newDelta = st.freshDelta()
		var jobs []roundJob
		for _, cr := range st.cp.rules {
			if len(cr.variants) == 0 {
				continue
			}
			// Rules with no IDB body atom produce nothing new after round 1.
			hasDelta := false
			for _, a := range cr.src.Body {
				if st.cp.idb[a.Pred] {
					hasDelta = true
				}
			}
			if !hasDelta {
				continue
			}
			for i := range cr.variants {
				jobs = append(jobs, roundJob{cr: cr, variants: cr.variants[i : i+1]})
			}
		}
		runRound(jobs, st.resolve(delta), st.idb, newDelta, false, st.workers)
		st.rounds++
	}
}

// update extends the retained fixpoint with a signed base-relation
// delta — the delta-driven maintenance pass. Retractions run first
// through retractPass (DRed: over-delete, re-derive, propagate); then,
// for every rule body occurrence of a changed EDB predicate, the rule
// evaluates with that occurrence restricted to the insert delta (the
// other atoms see the already-updated full relations; under set
// semantics this covers every new combination), and same-name EDB
// deltas of derived predicates seed directly. The new head tuples then
// propagate through ordinary delta rounds. The program is negation-free,
// so once retractions have settled the insert pass is monotone.
//
// onNew observes every genuinely new derived tuple and onDel every
// tuple that actually left the fixpoint (over-deleted tuples that
// re-derive are reported through neither); either hook may be nil.
func (st *snState) update(ctx context.Context, delta Delta, onNew, onDel func(pred string, t storage.Tuple)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if delta.HasDel() {
		if err := st.retractPass(ctx, delta.Del, onNew, onDel); err != nil {
			return err
		}
	}
	if len(delta.Add) == 0 {
		return nil
	}
	newDelta := st.freshDelta()
	// Same-name EDB deltas of derived predicates seed the IDB directly
	// (the uniform-containment seeding, maintained).
	for pred, rel := range delta.Add {
		if !st.cp.idb[pred] {
			continue
		}
		arity, ok := st.cp.arity[pred]
		if !ok || rel.Arity() != arity {
			continue
		}
		idbRel := st.idb.Ensure(pred, arity)
		for _, t := range rel.Tuples() {
			if idbRel.Insert(t) {
				if nd := newDelta[pred]; nd != nil {
					nd.Insert(t)
				}
			}
		}
	}
	// EDB-delta variants: one job per (rule, changed EDB occurrence).
	var jobs []roundJob
	for _, cr := range st.cp.rules {
		for i, a := range cr.src.Body {
			if st.cp.idb[a.Pred] || delta.Add[a.Pred] == nil {
				continue
			}
			jobs = append(jobs, roundJob{cr: cr, variants: []ruleVariant{cr.variantFor(i, st.cp, st.edb.Syms)}})
		}
	}
	if len(jobs) > 0 {
		runRound(jobs, st.resolve(delta.Add), st.idb, newDelta, false, st.workers)
		st.rounds++
	}
	return st.deltaLoop(ctx, newDelta, onNew)
}

// ensureStrata lazily builds the deletion-maintenance indexes: Tarjan's
// SCC over the IDB dependency graph (an edge from each rule head to
// each derived body predicate), whose pop order is dependencies-first —
// exactly the order retractPass wants — plus the recursive-component
// marks, the head index, and the ground-fact relations.
func (st *snState) ensureStrata() {
	if st.strata != nil {
		return
	}
	st.rulesByHead = make(map[string][]*compiledRule)
	adj := make(map[string][]string)
	for _, cr := range st.cp.rules {
		st.rulesByHead[cr.headPred] = append(st.rulesByHead[cr.headPred], cr)
		for _, a := range cr.src.Body {
			if st.cp.idb[a.Pred] {
				adj[cr.headPred] = append(adj[cr.headPred], a.Pred)
			}
		}
	}
	preds := make([]string, 0, len(st.cp.idb))
	for pred := range st.cp.idb {
		preds = append(preds, pred)
	}
	sort.Strings(preds)
	index := make(map[string]int, len(preds))
	low := make(map[string]int, len(preds))
	onstack := make(map[string]bool)
	var stack []string
	counter := 0
	var strong func(v string)
	strong = func(v string) {
		index[v], low[v] = counter, counter
		counter++
		stack = append(stack, v)
		onstack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onstack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onstack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			st.strata = append(st.strata, comp)
		}
	}
	for _, v := range preds {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}
	st.recursive = make(map[string]bool, len(preds))
	for _, comp := range st.strata {
		rec := len(comp) > 1
		if !rec {
			for _, w := range adj[comp[0]] {
				if w == comp[0] {
					rec = true
					break
				}
			}
		}
		for _, pred := range comp {
			st.recursive[pred] = rec
		}
	}
	st.factRels = make(map[string]*storage.Relation)
	for _, f := range st.cp.facts {
		t := make(storage.Tuple, len(f.Head.Args))
		for i, c := range f.Head.Args {
			t[i] = st.edb.Syms.Intern(c.Name)
		}
		fr := st.factRels[f.Head.Pred]
		if fr == nil {
			fr = storage.NewRelation(len(t), nil)
			st.factRels[f.Head.Pred] = fr
		}
		fr.Insert(t)
	}
}

// retractPass is DRed (delete-rederive) over the retained fixpoint,
// stratified: components of the dependency graph settle in
// dependencies-first order, so by the time a component runs, every
// deletion below it is final — a non-recursive component needs exactly
// one over-delete pass and a per-tuple support recheck (the on-demand
// form of counting maintenance: a tuple dies exactly when its last
// derivation does), while a recursive component additionally cascades
// candidates within itself and rederives through the ordinary delta
// rounds. Within a component: (1) collect over-delete candidates from
// the settled deletions, with non-delta atoms reading the OLD state
// (pre-deletion unions for settled predicates, the untouched idb for
// in-component ones); (2) retract all candidates; (3) re-insert every
// candidate still derivable from what remains and propagate those
// survivors; (4) report the tuples that actually died and publish them
// as settled deletions for the components above.
func (st *snState) retractPass(ctx context.Context, del map[string]*storage.Relation, onNew, onDel func(pred string, t storage.Tuple)) error {
	st.ensureStrata()
	meter := MeterFrom(ctx)
	syms := st.edb.Syms

	// deleted holds the FINAL per-predicate deletions: the caller's Del
	// sets for EDB predicates, and — filled in as each component
	// settles — the tuples that actually left each derived predicate.
	deleted := make(map[string]*storage.Relation, len(del))
	for pred, rel := range del {
		if !st.cp.idb[pred] && rel.Len() > 0 {
			deleted[pred] = rel
		}
	}
	// oldRel resolves a non-delta atom to the pre-deletion state: for
	// settled predicates the live relation unioned with what left it;
	// for in-component predicates the idb relation, untouched until
	// step (2). Unions are cached — `deleted` entries never mutate once
	// published.
	unions := make(map[string]*storage.Relation)
	oldRel := func(pred string) *storage.Relation {
		if u, ok := unions[pred]; ok {
			return u
		}
		var base *storage.Relation
		if st.cp.idb[pred] {
			base = st.idb.Relation(pred)
		} else {
			base = st.edb.Relation(pred)
		}
		d := deleted[pred]
		if d == nil || base == nil {
			return base
		}
		u := unionRels(base, d)
		unions[pred] = u
		return u
	}

	for _, comp := range st.strata {
		if err := ctx.Err(); err != nil {
			return err
		}
		rec := st.recursive[comp[0]]
		cand := make(map[string]*storage.Relation)
		roundDel := make(map[string]*storage.Relation)
		addCand := func(pred string, t storage.Tuple) {
			rel := st.idb.Relation(pred)
			if rel == nil || !rel.Contains(t) {
				return
			}
			c := cand[pred]
			if c == nil {
				c = storage.NewRelation(st.cp.arity[pred], nil)
				cand[pred] = c
			}
			if c.Insert(t) {
				rd := roundDel[pred]
				if rd == nil {
					rd = storage.NewRelation(st.cp.arity[pred], nil)
					roundDel[pred] = rd
				}
				rd.Insert(t)
			}
		}
		// Same-name removals of a derived predicate un-seed it directly
		// (the uniform-containment seeding, maintained).
		for _, pred := range comp {
			if d := del[pred]; d != nil && d.Arity() == st.cp.arity[pred] {
				for _, t := range d.Tuples() {
					addCand(pred, t)
				}
			}
		}
		// (1) Candidates from the settled deletions below.
		for _, pred := range comp {
			for _, cr := range st.rulesByHead[pred] {
				for i, a := range cr.src.Body {
					d := deleted[a.Pred]
					if d == nil || d.Len() == 0 {
						continue
					}
					v := cr.variantFor(i, st.cp, syms)
					res := func(p string, alt bool) *storage.Relation {
						if alt {
							return d
						}
						return oldRel(p)
					}
					deriveVariant(v, res, len(cr.src.Head.Args), func(t storage.Tuple) {
						addCand(cr.headPred, t)
					})
				}
			}
		}
		// In-component cascade: candidates beget candidates through the
		// component's own cycles.
		for rec && len(roundDel) > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			fresh := 0
			for _, rd := range roundDel {
				fresh += rd.Len()
			}
			if err := meter.Charge(fresh); err != nil {
				return err
			}
			cur := roundDel
			roundDel = make(map[string]*storage.Relation)
			for _, pred := range comp {
				for _, cr := range st.rulesByHead[pred] {
					for i, a := range cr.src.Body {
						d := cur[a.Pred]
						if d == nil || d.Len() == 0 {
							continue
						}
						v := cr.variantFor(i, st.cp, syms)
						res := func(p string, alt bool) *storage.Relation {
							if alt {
								return d
							}
							return oldRel(p)
						}
						deriveVariant(v, res, len(cr.src.Head.Args), func(t storage.Tuple) {
							addCand(cr.headPred, t)
						})
					}
				}
			}
		}
		total := 0
		for _, c := range cand {
			total += c.Len()
		}
		if total == 0 {
			continue
		}
		// (2) Over-delete: retract every candidate.
		for pred, c := range cand {
			rel := st.idb.Relation(pred)
			for _, t := range c.Tuples() {
				rel.Retract(t)
			}
		}
		// (3) Re-derive: a candidate survives when some derivation
		// remains in the post-deletion state; survivors propagate like
		// any insert delta (rederiving in-component dependents).
		if err := meter.Charge(total); err != nil {
			return err
		}
		rederived := st.freshDelta()
		rd := st.newRederiver()
		any := false
		for pred, c := range cand {
			rel := st.idb.Relation(pred)
			for _, t := range c.Tuples() {
				if rd.derivable(pred, t) && rel.Insert(t) {
					rederived[pred].Insert(t)
					any = true
				}
			}
		}
		rd.flush()
		if any {
			if err := st.deltaLoop(ctx, rederived, onNew); err != nil {
				return err
			}
		}
		// (4) Settle: report and publish what actually died.
		for pred, c := range cand {
			rel := st.idb.Relation(pred)
			var dead *storage.Relation
			for _, t := range c.Tuples() {
				if rel.Contains(t) {
					continue
				}
				if dead == nil {
					dead = storage.NewRelation(st.cp.arity[pred], nil)
				}
				dead.Insert(t)
				if onDel != nil {
					onDel(pred, t)
				}
			}
			if dead != nil {
				deleted[pred] = dead
			}
		}
	}
	return ctx.Err()
}

// rederiver is one rederive pass's derivability test: per rule, the
// head-bound check's scratch — slots, bound flags and lookup state —
// allocated and resolved against the post-deletion state on the rule's
// first candidate, then reused for every other candidate of the pass.
type rederiver struct {
	st  *snState
	res resolver
	ws  map[*compiledRule]*stepScratch
}

func (st *snState) newRederiver() *rederiver {
	return &rederiver{st: st, res: st.resolve(nil), ws: make(map[*compiledRule]*stepScratch)}
}

// derivable reports whether t still has a derivation for pred in the
// current state: a same-name EDB seed, a program fact, or a rule body
// witness found by the head-bound satisfiability check.
func (rd *rederiver) derivable(pred string, t storage.Tuple) bool {
	st := rd.st
	if seed := st.edb.Relation(pred); seed != nil && seed.Arity() == len(t) && seed.Contains(t) {
		return true
	}
	if fr := st.factRels[pred]; fr != nil && fr.Contains(t) {
		return true
	}
	for _, cr := range st.rulesByHead[pred] {
		hc, ws := rd.check(cr)
		clear(ws.bound)
		ok := true
		for i, h := range hc.head {
			if h.isConst {
				if t[i] != h.val {
					ok = false
					break
				}
				continue
			}
			if ws.bound[h.slot] {
				if ws.slots[h.slot] != t[i] {
					ok = false
					break
				}
				continue
			}
			ws.slots[h.slot] = t[i]
			ws.bound[h.slot] = true
		}
		if !ok {
			continue
		}
		found := false
		hc.conj.runS(ws.slots, ws.bound, &ws.sc, func([]storage.Value) bool {
			found = true
			return false
		})
		if found {
			return true
		}
	}
	return false
}

// check returns cr's head check, compiled on first use, and the pass's
// scratch for it.
func (rd *rederiver) check(cr *compiledRule) (*headCheck, *stepScratch) {
	if cr.check == nil {
		cr.check = compileHeadCheck(cr.src, rd.st.cp.idb, rd.st.edb.Syms)
	}
	ws := rd.ws[cr]
	if ws == nil {
		c := cr.check.conj
		w := newStepScratch(c, c.nslots, 0)
		w.sc.resolve(c, rd.res)
		ws = &w
		rd.ws[cr] = ws
	}
	return cr.check, ws
}

// flush publishes the pass's probe tallies.
func (rd *rederiver) flush() {
	for _, ws := range rd.ws {
		ws.sc.flush()
	}
}

// deriveVariant runs one delta variant of a rule, feeding every derived
// head tuple (projected into a reused buffer) to sink — applyRule's
// read-only cousin, used by the over-delete phase, which must not
// insert.
func deriveVariant(v ruleVariant, res resolver, arity int, sink func(t storage.Tuple)) {
	slots := make([]storage.Value, v.conj.nslots)
	bound := make([]bool, v.conj.nslots)
	tuple := make(storage.Tuple, arity)
	v.conj.run(res, slots, bound, func(s []storage.Value) bool {
		for i, h := range v.head {
			if h.isConst {
				tuple[i] = h.val
			} else {
				tuple[i] = s[h.slot]
			}
		}
		sink(tuple)
		return true
	})
}

// unionRels materializes a ∪ b — the pre-deletion image of a relation
// that has since lost b's tuples.
func unionRels(a, b *storage.Relation) *storage.Relation {
	u := storage.NewRelation(a.Arity(), nil)
	for _, t := range a.Tuples() {
		u.Insert(t)
	}
	for _, t := range b.Tuples() {
		u.Insert(t)
	}
	return u
}

// roundJob is one unit of a semi-naive round: a rule restricted to a
// subset of its delta variants.
type roundJob struct {
	cr       *compiledRule
	variants []ruleVariant
}

// runRound evaluates one semi-naive round's jobs, in parallel across at
// most `workers` goroutines (0 means GOMAXPROCS) when there are several.
// Jobs only append to the shared (sharded, concurrency-safe) idb and
// delta relations, and bottom-up evaluation is monotone, so any
// interleaving derives the same round result: a tuple seen "early"
// (inserted by a sibling job mid-round) can only add derivations that
// dedup away or would otherwise arrive via the next round's delta.
func runRound(jobs []roundJob, res resolver, idb *storage.Database, newDelta map[string]*storage.Relation, firstRound bool, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for _, j := range jobs {
			applyRule(j.cr, j.variants, res, idb, newDelta, firstRound)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan roundJob)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				applyRule(j.cr, j.variants, res, idb, newDelta, firstRound)
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
}

// applyRule runs the given variants of a rule, inserting derived heads into
// idb and recording genuinely new tuples in newDelta (when the head's delta
// relation exists; Naive passes none). When firstRound is true, delta atoms
// resolve to the full relation (the first round evaluates everything
// unrestricted). Safe to call concurrently for different jobs of one round:
// it only reads the compiled rule and appends to concurrency-safe
// relations.
func applyRule(cr *compiledRule, variants []ruleVariant, res resolver, idb *storage.Database, newDelta map[string]*storage.Relation, firstRound bool) {
	arity := len(cr.src.Head.Args)
	headRel := idb.Ensure(cr.headPred, arity)
	resolveVariant := res
	if firstRound {
		resolveVariant = func(pred string, alt bool) *storage.Relation {
			return res(pred, false)
		}
	}
	for _, v := range variants {
		slots := make([]storage.Value, v.conj.nslots)
		bound := make([]bool, v.conj.nslots)
		tuple := make(storage.Tuple, arity)
		v.conj.run(resolveVariant, slots, bound, func(s []storage.Value) bool {
			for i, h := range v.head {
				if h.isConst {
					tuple[i] = h.val
				} else {
					tuple[i] = s[h.slot]
				}
			}
			if headRel.Insert(tuple) {
				if nd := newDelta[cr.headPred]; nd != nil {
					nd.Insert(tuple)
				}
			}
			return true
		})
	}
}

// Naive evaluates the program with the naive strategy: every rule against
// full relations each round, until no new tuples appear. It is the
// baseline the paper's Section 1 contrasts specialized algorithms with.
func Naive(p *ast.Program, edb *storage.Database) (*Result, error) {
	return NaiveCtx(context.Background(), p, edb)
}

// NaiveCtx is Naive with cancellation, checked between rounds.
func NaiveCtx(ctx context.Context, p *ast.Program, edb *storage.Database) (*Result, error) {
	cp, err := compileProgram(p, edb.Syms)
	if err != nil {
		return nil, err
	}
	idb := storage.NewDatabaseWith(edb.Syms)
	res := &Result{IDB: idb}
	for pred := range cp.idb {
		if arity, ok := cp.arity[pred]; ok {
			rel := idb.Ensure(pred, arity)
			if seed := edb.Relation(pred); seed != nil {
				for _, t := range seed.Tuples() {
					rel.Insert(t)
				}
			}
		}
	}
	for _, f := range cp.facts {
		t := make(storage.Tuple, len(f.Head.Args))
		for i, c := range f.Head.Args {
			t[i] = edb.Syms.Intern(c.Name)
		}
		idb.Ensure(f.Head.Pred, len(t)).Insert(t)
	}
	res0 := func(pred string, alt bool) *storage.Relation {
		if cp.idb[pred] {
			return idb.Relation(pred)
		}
		return edb.Relation(pred)
	}
	meter := MeterFrom(ctx)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		before := idb.TupleCount()
		for _, cr := range cp.rules {
			applyRule(cr, cr.variants[0:1], res0, idb, map[string]*storage.Relation{}, true)
		}
		res.Rounds++
		after := idb.TupleCount()
		// Gas: charge the round's genuinely new tuples.
		if err := meter.Charge(after - before); err != nil {
			return nil, err
		}
		if after == before {
			break
		}
	}
	return res, nil
}

// LoadFacts inserts the ground facts of a parsed program into the
// database, returning the program without them. Convenience for tests and
// the CLI, where data and rules arrive in one source text.
func LoadFacts(p *ast.Program, db *storage.Database) *ast.Program {
	rest := ast.NewProgram()
	for _, r := range p.Rules {
		if r.IsFact() {
			names := make([]string, len(r.Head.Args))
			for i, t := range r.Head.Args {
				names[i] = t.Name
			}
			db.AddFact(r.Head.Pred, names...)
			continue
		}
		rest.Rules = append(rest.Rules, r)
	}
	return rest
}
