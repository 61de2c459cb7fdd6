package eval

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/bitset"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// Mode identifies which instantiation of the Fig. 9 schema a compiled
// selection uses.
type Mode int

const (
	// ModeFull: the query binds no column; plain semi-naive evaluation.
	ModeFull Mode = iota
	// ModeReduced: every bound column is persistent (the same variable in
	// that position of the head and the recursive body atom). The constant
	// is substituted into both rules, the column dropped, and the reduced
	// recursion evaluated bottom-up — the Aho–Ullman (Fig. 7) shape: the
	// selection constant surfaces in the exit-rule instances and evaluation
	// proceeds from that end of the expansion strings.
	ModeReduced
	// ModeContext: some bound column is not persistent. The evaluation
	// walks the expansion strings from the selection end, carrying the
	// distinct bindings of the recursive call's constrained columns — the
	// Henschen–Naqvi (Fig. 8) shape.
	ModeContext
)

func (m Mode) String() string {
	switch m {
	case ModeFull:
		return "full"
	case ModeReduced:
		return "reduced"
	case ModeContext:
		return "context"
	}
	return "unknown"
}

// ErrUnsupported is returned by CompileSelection for queries outside the
// compiler's class (repeated query variables, or recursions that shuffle a
// free head variable into a different recursive-call column — a shape that
// Theorem 3.1 excludes from the one-sided class).
type ErrUnsupported struct{ Reason string }

func (e *ErrUnsupported) Error() string { return "eval: unsupported selection: " + e.Reason }

// Plan is a compiled selection on a recursion, an instantiation of the
// paper's Fig. 9 schema.
//
// A plan compiled from a skeleton query (ast.SlotConst placeholders at
// bound columns) is an adornment-keyed template: NSlots > 0, and Bind
// must instantiate the slot table before evaluation. All the structural
// analysis — mode choice, carry columns, anchors, factoring — depends
// only on which columns are bound, so the template is shared across
// every ground query of the shape.
type Plan struct {
	// Def is the original definition.
	Def *ast.Definition
	// Query is the selection atom (constants at bound columns).
	Query ast.Atom
	// NSlots is the number of late-bound constant slots (0 for a ground
	// plan, which evaluates directly).
	NSlots int
	// Mode is the chosen schema instantiation.
	Mode Mode
	// CarryArity is the arity of the carry/seen state the plan maintains:
	// the paper's headline metric (1 for the canonical recursion, 2 for
	// transitive closure with permissions, wider for many-sided shapes).
	CarryArity int
	// Workers caps the parallel workers the Fig. 9 evaluation may split a
	// carry batch across; 0 means GOMAXPROCS. The g-join probes of one
	// batch are independent per carry tuple, which is what makes the
	// batch safely partitionable.
	Workers int
	// TestIterHook, when non-nil, is called after each completed Fig. 9
	// while-loop iteration with the 1-based iteration number. It exists
	// so tests can observe fixpoint progress relative to streamed
	// answers; production callers leave it nil.
	TestIterHook func(iter int)

	// Reduction (ModeReduced/ModeContext): the definition after persistent
	// bound columns were substituted and dropped.
	reduced  *ast.Definition
	keepCols []int // original column index of each reduced column

	// Context mode internals.
	ctxCols       []int          // reduced recursive-call columns carried, sorted
	fixedCols     map[int]string // reduced call columns holding constants
	foldedAnchors []string       // anchor variables carried with the context
	factored      []factorGroup
	boundCols     map[int]string // reduced head columns bound by the query
}

// factorGroup is a set of recursive-rule EDB atoms independent of the
// context columns; it is evaluated once and cross-multiplied into the
// answers (the d(Z) case of Example 3.4).
type factorGroup struct {
	atoms   []ast.Atom
	anchors []string // anchor variables bound by this group (may be empty)
}

// EvalStats reports the work a plan evaluation performed.
type EvalStats struct {
	// Iterations is the number of Fig. 9 while-loop iterations.
	Iterations int
	// SeenSize is the number of tuples accumulated in seen (state size).
	SeenSize int
	// GProbes is the number of g-join probes a context-mode evaluation
	// performed: one per depth-0 exit join plus one per carried context
	// joined against the exit rule. A batched evaluation g-joins each
	// distinct context once no matter how many queries reach it, so its
	// GProbes undercut the sum of the per-query counts — the measurable
	// form of the Section 5 sharing observation.
	GProbes int
	// BatchQueries is the number of same-skeleton queries a batched
	// evaluation served (0 for single-query evaluations).
	BatchQueries int
	// CarryArity echoes the plan's state arity.
	CarryArity int
	// Workers is the parallel-worker bound the evaluation ran with.
	Workers int
	// Shards is the database's relation shard count, which the
	// evaluation also uses for its seen and answer relations.
	Shards int
	// Batches is the number of carry batches dispatched to the worker
	// pool: the seed batch plus one per Fig. 9 iteration (context mode
	// only).
	Batches int
}

// CompileSelection compiles a "column = constant" selection (possibly
// binding several columns) on the recursion into a Fig. 9 plan. The query
// atom must use the definition's predicate with constants at bound columns
// and distinct variables elsewhere.
func CompileSelection(d *ast.Definition, query ast.Atom) (*Plan, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if query.Pred != d.Pred() || query.Arity() != d.Arity() {
		return nil, fmt.Errorf("eval: query %v does not match predicate %s/%d", query, d.Pred(), d.Arity())
	}
	seenVar := make(map[string]bool)
	for _, a := range query.Args {
		if a.IsVar() {
			if seenVar[a.Name] {
				return nil, &ErrUnsupported{Reason: fmt.Sprintf("repeated query variable %s", a.Name)}
			}
			seenVar[a.Name] = true
		}
	}

	p := &Plan{Def: d, Query: query.Clone(), NSlots: query.SlotCount()}
	split := analysis.SplitBinding(d, ast.AdornmentOf(query))
	if len(split.Persistent) == 0 && len(split.Context) == 0 {
		p.Mode = ModeFull
		p.CarryArity = d.Arity()
		p.reduced = d.Clone()
		p.keepCols = identityCols(d.Arity())
		return p, nil
	}

	// Reduce persistent bound columns: substitute the constant (or slot
	// placeholder, for a skeleton) for the head variable in each rule,
	// then drop the column everywhere.
	p.reduced, p.keepCols = rewrite.ReducePersistent(d, split.Persistent,
		func(col int) ast.Term { return query.Args[col] })

	if len(split.Context) == 0 {
		p.Mode = ModeReduced
		p.CarryArity = p.reduced.Arity()
		return p, nil
	}

	p.Mode = ModeContext
	if err := p.compileContext(split.Context, query); err != nil {
		return nil, err
	}
	return p, nil
}

func identityCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// compileContext performs the context-mode analysis on the reduced
// definition: which recursive-call columns to carry, which free head
// variables are anchors, and which atom groups factor out.
func (p *Plan) compileContext(otherBoundOrig []int, query ast.Atom) error {
	red := p.reduced
	head := red.Recursive.Head
	rec := red.RecursiveAtom()
	edbAtoms := red.NonrecursiveBody()
	persistent := red.PersistentColumns()

	// Reduced column index of each original bound column.
	origToRed := make(map[int]int)
	for ri, oi := range p.keepCols {
		origToRed[oi] = ri
	}
	p.boundCols = make(map[int]string)
	for _, oc := range otherBoundOrig {
		p.boundCols[origToRed[oc]] = query.Args[oc].Name
	}

	boundHeadVars := make(map[string]bool)
	for rc := range p.boundCols {
		if v := head.Args[rc]; v.IsVar() {
			boundHeadVars[v.Name] = true
		}
	}
	edbVars := make(map[string]bool)
	for _, a := range edbAtoms {
		for _, t := range a.Args {
			if t.IsVar() {
				edbVars[t.Name] = true
			}
		}
	}

	// Carried call columns and fixed (constant) call columns.
	p.fixedCols = make(map[int]string)
	inS := make(map[int]bool)
	for j, t := range rec.Args {
		if t.IsConst() {
			p.fixedCols[j] = t.Name
			continue
		}
		if edbVars[t.Name] || boundHeadVars[t.Name] {
			p.ctxCols = append(p.ctxCols, j)
			inS[j] = true
		}
	}
	sort.Ints(p.ctxCols)

	// A carried variable that no EDB atom constrains is only determined
	// below depth 1 if its own head column is also carried (its value then
	// flows from the context); otherwise the deeper value is existential
	// and the selection cannot drive this recursion from this side.
	headCol := make(map[string]int)
	for i, t := range head.Args {
		if t.IsVar() {
			headCol[t.Name] = i
		}
	}
	for _, j := range p.ctxCols {
		v := rec.Args[j].Name
		if edbVars[v] {
			continue
		}
		if i, ok := headCol[v]; !ok || !inS[i] {
			return &ErrUnsupported{Reason: fmt.Sprintf(
				"carried call column %d holds head variable %s whose deeper value is existential", j+1, v)}
		}
	}

	// Classify head columns; collect anchors.
	inCall := make(map[string]bool)
	for _, t := range rec.Args {
		if t.IsVar() {
			inCall[t.Name] = true
		}
	}
	var anchors []string
	for i, t := range head.Args {
		if !t.IsVar() {
			continue
		}
		if _, bound := p.boundCols[i]; bound {
			continue
		}
		if persistent[i] {
			continue
		}
		if edbVars[t.Name] {
			anchors = append(anchors, t.Name)
			continue
		}
		if inCall[t.Name] {
			return &ErrUnsupported{Reason: fmt.Sprintf(
				"free head variable %s flows into a different recursive-call column (many-sided shuffle)", t.Name)}
		}
		return &ErrUnsupported{Reason: fmt.Sprintf("free head variable %s unreachable from the body", t.Name)}
	}

	// Factor the EDB atoms into connectivity components; bound head
	// variables act as constants and do not connect atoms.
	comps := atomComponents(edbAtoms, boundHeadVars)
	ctxVars := make(map[string]bool)
	for _, j := range p.ctxCols {
		ctxVars[rec.Args[j].Name] = true
	}
	anchorSet := make(map[string]bool)
	for _, a := range anchors {
		anchorSet[a] = true
	}
	for _, comp := range comps {
		touchesCtx := false
		var compAnchors []string
		vars := make(map[string]bool)
		for _, a := range comp {
			for _, t := range a.Args {
				if t.IsVar() {
					vars[t.Name] = true
				}
			}
		}
		for v := range vars {
			if ctxVars[v] {
				touchesCtx = true
			}
			if anchorSet[v] {
				compAnchors = append(compAnchors, v)
			}
		}
		sort.Strings(compAnchors)
		if touchesCtx {
			p.foldedAnchors = append(p.foldedAnchors, compAnchors...)
			continue
		}
		p.factored = append(p.factored, factorGroup{atoms: comp, anchors: compAnchors})
	}
	sort.Strings(p.foldedAnchors)
	p.CarryArity = len(p.foldedAnchors) + len(p.ctxCols)
	return nil
}

// atomComponents groups atoms into connected components, where two atoms
// connect when they share a variable not in the excluded set.
func atomComponents(atoms []ast.Atom, exclude map[string]bool) [][]ast.Atom {
	n := len(atoms)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	byVar := make(map[string]int)
	for i, a := range atoms {
		for _, t := range a.Args {
			if !t.IsVar() || exclude[t.Name] {
				continue
			}
			if j, ok := byVar[t.Name]; ok {
				parent[find(i)] = find(j)
			} else {
				byVar[t.Name] = i
			}
		}
	}
	groups := make(map[int][]ast.Atom)
	var order []int
	for i, a := range atoms {
		r := find(i)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], a)
	}
	out := make([][]ast.Atom, 0, len(groups))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

// carryNeeded names the variables the carry projection reads: the folded
// anchors plus the context-column variables of the (substituted) call
// atom. Conjunction atoms binding only other variables become existential
// semijoins.
func (p *Plan) carryNeeded(rec ast.Atom) map[string]bool {
	out := make(map[string]bool)
	for _, v := range p.foldedAnchors {
		out[v] = true
	}
	for _, j := range p.ctxCols {
		if t := rec.Args[j]; t.IsVar() {
			out[t.Name] = true
		}
	}
	return out
}

// substBound returns atoms with bound head variables replaced by their
// query constants.
func (p *Plan) substBound(atoms []ast.Atom) []ast.Atom {
	s := make(ast.Subst)
	head := p.reduced.Recursive.Head
	for rc, c := range p.boundCols {
		if v := head.Args[rc]; v.IsVar() {
			s[v.Name] = ast.C(c)
		}
	}
	return s.ApplyAtoms(atoms)
}

// effectiveWorkers resolves the plan's worker bound (0 = GOMAXPROCS).
func (p *Plan) effectiveWorkers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// groupResult is a factored group's materialized anchor bindings.
type groupResult struct {
	anchors []string
	tuples  []storage.Tuple // values of the group's anchors (deduped)
}

// colSrc says where one answer column's value comes from during g-join
// assembly.
type colSrc struct {
	kind int // 0 const, 1 exit slot, 2 folded anchor, 3 factored group
	val  storage.Value
	idx  int // slot / anchor index / group index
	pos  int // position within the factored group
}

// contextEval is one evaluation of a context-mode plan: the compiled
// f (carry transition) and g (answer join) operators plus the shared
// seen-set and answer state the parallel batch workers update. The
// compiled operators are immutable during the run; workers share them
// and keep private scratch (see stepScratch).
type contextEval struct {
	p       *Plan
	syms    *storage.SymbolTable
	resolve resolver
	workers int

	ans      *storage.Relation
	seen     seenSet
	nAnchors int

	// emit, when non-nil, receives each distinct answer tuple once;
	// emitMu serializes calls from parallel g workers. aborted latches a
	// false return from emit and drains the remaining work.
	emit    func(storage.Tuple) bool
	emitMu  sync.Mutex
	aborted atomic.Bool

	// noDepth records that an empty factor group killed every depth >= 1
	// derivation: the answers are depth-0 only and no loop state was
	// compiled. An update whose delta could change that must rebuild.
	noDepth bool

	stats EvalStats
	// charged is the seen-set plus answer size last charged to the gas
	// meter (see charge).
	charged int

	// f and g are the loop's operators, g's query-constant sources
	// filled; groups are the materialized factor groups g's answers
	// cross in, and asm assembles g's solutions into answers.
	f      fOps
	g      gOps
	groups []groupResult
	asm    assembler

	// fws and gws hold one scratch per worker for f and g, reused across
	// every level of run and of Update's loops. fout holds the per-worker
	// successor buffers of a split f batch, and slabs the two alternating
	// level buffers of loop: level n+1 is built in one while level n,
	// its input, is read from the other. The buffers are dropped when a
	// loop ends, so a retained state does not pin its widest level.
	fws, gws []stepScratch
	fout     []carrySlab
	slabs    [2]carrySlab
}

// carrySlab is a reusable buffer of carry tuples: their values laid out
// back to back and a tuple view of each. Pushing copies the tuple in;
// reset keeps the capacity, so a slab that has grown to a level's size
// takes the next level without allocating.
type carrySlab struct {
	vals []storage.Value
	tups []storage.Tuple
}

func (s *carrySlab) reset() {
	s.vals, s.tups = s.vals[:0], s.tups[:0]
}

// push appends a copy of t. Views taken before a growth keep pointing at
// the previous backing array, whose values stay intact until reset.
func (s *carrySlab) push(t storage.Tuple) {
	off := len(s.vals)
	s.vals = append(s.vals, t...)
	s.tups = append(s.tups, s.vals[off:len(s.vals):len(s.vals)])
}

// altFlagsFor builds the compileConj altFlags slice marking index
// altIdx (no flags when altIdx < 0).
func altFlagsFor(n, altIdx int) []bool {
	if altIdx < 0 {
		return nil
	}
	flags := make([]bool, n)
	flags[altIdx] = true
	return flags
}

// conjOptsFor wraps altFlagsFor in compileConjOpts (nil when unused).
func conjOptsFor(n, altIdx int) *compileConjOpts {
	if altIdx < 0 {
		return nil
	}
	return &compileConjOpts{altFlags: altFlagsFor(n, altIdx)}
}

// d0Ops is the compiled depth-0 exit join of a bound context-mode plan:
// the exit rule with the bound head columns substituted. Immutable after
// compilation, so delta variants can be cached across maintenance
// passes.
type d0Ops struct {
	conj     *compiledConj
	headRefs catom
	nslots   int
}

// compileD0 builds the depth-0 join. altIdx >= 0 marks that index of
// the exit body as the delta atom (resolved with alt=true) — the
// incremental-maintenance variant that derives only answers using at
// least one newly inserted tuple of that atom's relation.
func (p *Plan) compileD0(syms *storage.SymbolTable, altIdx int) d0Ops {
	exitHead := p.reduced.Exit.Head
	exitSubst := make(ast.Subst)
	for rc, c := range p.boundCols {
		if v := exitHead.Args[rc]; v.IsVar() {
			exitSubst[v.Name] = ast.C(c)
		}
	}
	d0Atoms := exitSubst.ApplyAtoms(p.reduced.Exit.Body)
	d0Head := exitSubst.ApplyAtom(exitHead)
	ss := newSlotSpace()
	conj := compileConj(d0Atoms, conjOptsFor(len(d0Atoms), altIdx), ss, syms, nil, d0Head.VarSet())
	headRefs := compileAtom(d0Head, ss, syms, false)
	return d0Ops{conj: conj, headRefs: headRefs, nslots: len(ss.varSlot)}
}

// run evaluates the compiled depth-0 join, feeding each assembled answer
// tuple to sink. The tuple is scratch; sink copies what it keeps and
// returns false to stop.
func (d d0Ops) run(p *Plan, syms *storage.SymbolTable, resolve resolver, sink func(storage.Tuple) bool) {
	slots := make([]storage.Value, d.nslots)
	bound := make([]bool, d.nslots)
	out := p.queryConsts(syms)
	d.conj.run(resolve, slots, bound, func(s []storage.Value) bool {
		return sink(d.assemble(p, s, out))
	})
}

// assemble writes one exit-join solution's answer columns into out,
// whose bound columns already hold the query constants.
func (d d0Ops) assemble(p *Plan, s []storage.Value, out storage.Tuple) storage.Tuple {
	for ri, oi := range p.keepCols {
		if ref := d.headRefs.args[ri]; ref.isConst {
			out[oi] = ref.val
		} else {
			out[oi] = s[ref.slot]
		}
	}
	return out
}

// runParallel splits the depth-0 join's outer scan across the worker
// pool, exactly as seedOps.runParallel splits the seed conjunction.
// sink must be safe for concurrent calls (ce.emitAnswer is); the tuple
// passed to it is per-worker scratch. A sink returning false stops the
// whole evaluation: the latching stop flag ends every worker's row loop
// at its next row, so a few in-flight answers may still be delivered —
// sink must tolerate calls after it first returns false.
func (d d0Ops) runParallel(p *Plan, syms *storage.SymbolTable, resolve resolver, workers int, sink func(storage.Tuple) bool) {
	c := d.conj
	rows, arity, ok := outerScan(c, resolve, workers)
	if !ok {
		d.run(p, syms, resolve, sink)
		return
	}
	var stop atomic.Bool
	parallelFor(workers, len(rows)/arity, func(w, lo, hi int) {
		slots := make([]storage.Value, d.nslots)
		bound := make([]bool, d.nslots)
		out := p.queryConsts(syms)
		sc := c.newScratch()
		sc.resolve(c, resolve)
		// Worker-local dedup in front of the shared sink: projections
		// are duplicate-heavy (most join solutions collapse onto answers
		// already produced), and re-offering them would have every
		// worker hammering the shared answer set's shard locks. The
		// local filter is uncontended, so only first sightings cross
		// into shared state.
		local := storage.NewRelation(p.Def.Arity(), nil)
		emit := func(s []storage.Value) bool {
			if !local.Insert(d.assemble(p, s, out)) {
				return true
			}
			if !sink(out) {
				stop.Store(true)
				return false
			}
			return true
		}
		for ri := lo; ri < hi && !stop.Load(); ri++ {
			t := storage.Tuple(rows[ri*arity : (ri+1)*arity])
			if bindOuter(c.atoms[0], t, slots, bound) {
				c.step(1, slots, bound, sc, emit)
			}
		}
		sc.flush()
	})
}

// evalFactoredGroups materializes the plan's factor groups with the
// selection constants substituted. ok is false when some group is empty,
// in which case no depth >= 1 derivation exists and the caller stops
// after depth 0.
func (p *Plan) evalFactoredGroups(syms *storage.SymbolTable, resolve resolver) (groups []groupResult, ok bool) {
	for _, fg := range p.factored {
		atoms := p.substBound(fg.atoms)
		ss := newSlotSpace()
		needed := make(map[string]bool)
		for _, v := range fg.anchors {
			needed[v] = true
		}
		conj := compileConj(atoms, nil, ss, syms, nil, needed)
		anchorSlots := make([]int, len(fg.anchors))
		for i, v := range fg.anchors {
			anchorSlots[i] = ss.slot(v)
		}
		rel := storage.NewRelation(len(fg.anchors), nil)
		slots := make([]storage.Value, len(ss.varSlot))
		bound := make([]bool, len(ss.varSlot))
		tup := make(storage.Tuple, len(fg.anchors))
		conj.run(resolve, slots, bound, func(s []storage.Value) bool {
			for i, sl := range anchorSlots {
				tup[i] = s[sl]
			}
			rel.Insert(tup)
			return true
		})
		if rel.Len() == 0 {
			return nil, false
		}
		groups = append(groups, groupResult{anchors: fg.anchors, tuples: rel.Tuples()})
	}
	return groups, true
}

// seedAtoms returns the seed conjunction's atoms: the reduced recursive
// rule's non-factored EDB atoms, before bound-variable substitution
// (substitution preserves predicates, so delta-variant indices computed
// against this list line up with the compiled conjunction).
func (p *Plan) seedAtoms() []ast.Atom {
	body := p.reduced.NonrecursiveBody()
	if len(p.factored) == 0 {
		return body
	}
	factoredIdx := make(map[string]bool)
	for _, fg := range p.factored {
		for _, a := range fg.atoms {
			factoredIdx[a.String()] = true
		}
	}
	out := body[:0]
	for _, a := range body {
		if !factoredIdx[a.String()] {
			out = append(out, a)
		}
	}
	return out
}

// seedOps is the compiled seed conjunction — all non-factored EDB atoms
// with the selection constants substituted — plus the carry projection.
// Immutable after compilation.
type seedOps struct {
	conj   *compiledConj
	proj   *carryProj
	nslots int
}

// compileSeed builds the seed conjunction. altIdx >= 0 marks that seed
// atom (index into seedAtoms) as the delta atom (see compileD0).
func (p *Plan) compileSeed(syms *storage.SymbolTable, altIdx int) seedOps {
	seedAtoms := p.substBound(p.seedAtoms())
	// Bound head variables may occur in the recursive call too; the
	// projection must see them as constants at seed depth.
	seedRec := p.substBound([]ast.Atom{p.reduced.RecursiveAtom()})[0]
	ss := newSlotSpace()
	conj := compileConj(seedAtoms, conjOptsFor(len(seedAtoms), altIdx), ss, syms, nil, p.carryNeeded(seedRec))
	return seedOps{conj: conj, proj: p.carryProjection(ss, seedRec, syms), nslots: len(ss.varSlot)}
}

// run evaluates the compiled seed conjunction, yielding each projected
// carry tuple (anchors then context columns). Tuples are scratch and
// may repeat; the caller deduplicates.
func (so seedOps) run(p *Plan, resolve resolver, yield func(storage.Tuple)) {
	slots := make([]storage.Value, so.nslots)
	bound := make([]bool, so.nslots)
	tup := make(storage.Tuple, len(p.foldedAnchors)+len(p.ctxCols))
	so.conj.run(resolve, slots, bound, func(s []storage.Value) bool {
		so.proj.project(s, tup)
		yield(tup)
		return true
	})
}

// runParallel evaluates the seed conjunction with the outermost atom's
// matches partitioned across the worker pool — the cold-fixpoint twin
// of fBatch: the outer scan is materialized once, then each worker owns
// a contiguous range of its rows plus private slots and scratch and
// recurses through the remaining atoms. Rows are collected in shard
// iteration order, so contiguous ranges keep each worker's posting-list
// probes on a warm shard. yield receives the worker ordinal and a
// scratch tuple (copy to retain) and must tolerate concurrent calls
// from distinct workers; as with run, tuples may repeat and the caller
// deduplicates. Falls back to the serial run (worker 0) when splitting
// cannot help or would change the traversal: one worker, no atoms, an
// arity-0 outer atom, or an existential outer atom (its first match is
// supposed to decide the whole evaluation).
func (so seedOps) runParallel(p *Plan, resolve resolver, workers int, yield func(worker int, tup storage.Tuple)) {
	c := so.conj
	rows, arity, ok := outerScan(c, resolve, workers)
	if !ok {
		so.run(p, resolve, func(tup storage.Tuple) { yield(0, tup) })
		return
	}
	parallelFor(workers, len(rows)/arity, func(w, lo, hi int) {
		slots := make([]storage.Value, so.nslots)
		bound := make([]bool, so.nslots)
		tup := make(storage.Tuple, len(p.foldedAnchors)+len(p.ctxCols))
		sc := c.newScratch()
		sc.resolve(c, resolve)
		emit := func(s []storage.Value) bool {
			so.proj.project(s, tup)
			yield(w, tup)
			return true
		}
		for ri := lo; ri < hi; ri++ {
			t := storage.Tuple(rows[ri*arity : (ri+1)*arity])
			if bindOuter(c.atoms[0], t, slots, bound) {
				c.step(1, slots, bound, sc, emit)
			}
		}
		sc.flush()
	})
}

// outerScan materializes the conjunction's outermost atom matches as
// flattened rows for range splitting across workers. ok is false when
// the split cannot help or would change the traversal — one worker, no
// atoms, an arity-0 outer atom, or an existential outer atom (its first
// match is supposed to decide the whole evaluation) — or when the
// relation is absent (then rows is empty and the caller's fallback
// visits nothing either). Rows keep shard iteration order, so
// contiguous ranges keep each worker's probes on a warm shard.
func outerScan(c *compiledConj, resolve resolver, workers int) (rows []storage.Value, arity int, ok bool) {
	if len(c.atoms) > 0 {
		arity = len(c.atoms[0].args)
	}
	if workers <= 1 || arity == 0 || (len(c.existential) > 0 && c.existential[0]) {
		return nil, 0, false
	}
	at := c.atoms[0]
	rel := resolve(at.pred, at.alt)
	if rel == nil {
		return nil, arity, true
	}
	var bindings []storage.Binding
	for col, a := range at.args {
		if a.isConst {
			bindings = append(bindings, storage.Binding{Col: col, Val: a.val})
		}
	}
	rel.Lookup(bindings, func(t storage.Tuple) bool {
		rows = append(rows, t...)
		return true
	})
	return rows, arity, true
}

// bindOuter binds the outer atom's free slots from one of its matched
// tuples, resetting bound first. Repeated free variables within the
// atom must agree (constant columns were already filtered by the
// lookup bindings); it reports whether the binding is consistent.
func bindOuter(at catom, t storage.Tuple, slots []storage.Value, bound []bool) bool {
	for i := range bound {
		bound[i] = false
	}
	for col, a := range at.args {
		if a.isConst {
			continue
		}
		if bound[a.slot] {
			if slots[a.slot] != t[col] {
				return false
			}
			continue
		}
		slots[a.slot] = t[col]
		bound[a.slot] = true
	}
	return true
}

// fOps is the compiled carry-transition operator f: one application of
// the recursive rule deeper, with the context columns bound from the
// carried tuple.
type fOps struct {
	conj      *compiledConj
	proj      *carryProj
	headSlots []int
	nslots    int
}

// compileF builds the f operator. It reads only the reduced definition
// and the fixed call columns — never the selection constants at bound
// head columns (those flow through the carried context) — so for a
// slot-free reduced definition the operator is shared verbatim by every
// query of the adornment. altIdx >= 0 compiles the delta variant that
// restricts the altIdx-th EDB body atom to newly inserted tuples (the
// incremental transition from already-seen contexts).
func (p *Plan) compileF(syms *storage.SymbolTable, altIdx int) fOps {
	head := p.reduced.Recursive.Head
	rec := p.reduced.RecursiveAtom()
	edbAtoms := p.reduced.NonrecursiveBody()
	fSS := newSlotSpace()
	// Bind order: context slots first so compileConj treats them as bound.
	initBound := make(map[string]bool)
	for _, j := range p.ctxCols {
		if v := head.Args[j]; v.IsVar() {
			initBound[v.Name] = true
		}
	}
	fixedHead := make(ast.Subst)
	for j, c := range p.fixedCols {
		if v := head.Args[j]; v.IsVar() {
			fixedHead[v.Name] = ast.C(c)
		}
	}
	fAtoms := fixedHead.ApplyAtoms(edbAtoms)
	f := fOps{}
	f.conj = compileConj(fAtoms, conjOptsFor(len(fAtoms), altIdx), fSS, syms, initBound, p.carryNeeded(fixedHead.ApplyAtom(rec)))
	f.proj = p.carryProjection(fSS, fixedHead.ApplyAtom(rec), syms)
	f.headSlots = make([]int, len(p.ctxCols))
	for i, j := range p.ctxCols {
		f.headSlots[i] = fSS.slot(head.Args[j].Name)
	}
	f.nslots = len(fSS.varSlot)
	return f
}

// stepScratch is one worker's reusable state for the per-context f and
// g steps: the operator conjunction's slots, bound flags and lookup
// scratch, plus out, the tuple the step writes (a successor carry tuple
// for f, an answer for g). Drivers keep one per worker and reuse it
// across contexts — the Fig. 9 loop across every level of a run and of
// Update's loop. A chunk resolves its relations when it starts and
// flushes its probe tallies when it ends (see conjScratch). It must not
// be shared across goroutines.
type stepScratch struct {
	slots []storage.Value
	bound []bool
	sc    conjScratch
	out   storage.Tuple
}

func newStepScratch(c *compiledConj, nslots, width int) stepScratch {
	return stepScratch{
		slots: make([]storage.Value, nslots),
		bound: make([]bool, nslots),
		sc:    *c.newScratch(),
		out:   make(storage.Tuple, width),
	}
}

// bind resets the bound flags and binds the context columns of carry
// tuple c — the values after its nAnchors anchors — into ctxSlots. It
// returns c's anchor part.
func (ws *stepScratch) bind(ctxSlots []int, c storage.Tuple, nAnchors int) storage.Tuple {
	for i := range ws.bound {
		ws.bound[i] = false
	}
	for i, sl := range ctxSlots {
		ws.slots[sl] = c[nAnchors+i]
		ws.bound[sl] = true
	}
	return c[:nAnchors]
}

// prepare readies a worker's scratch for a chunk of f steps over carry
// tuples with nAnchors anchors: allocated on first use, then resolved
// through res.
func (f *fOps) prepare(ws *stepScratch, nAnchors int, res resolver) {
	if ws.slots == nil {
		*ws = newStepScratch(f.conj, f.nslots, nAnchors+len(f.headSlots))
	}
	ws.sc.resolve(f.conj, res)
}

// step applies f to one carried context c: the recursive rule one level
// deeper, with c's context columns bound, probing the relations ws was
// resolved to. Each successor carry tuple (c's anchors passed through,
// then the new context columns) goes to yield as ws.out scratch — copy
// to retain; successors may repeat and the driver deduplicates.
func (f *fOps) step(c storage.Tuple, nAnchors int, ws *stepScratch, yield func(storage.Tuple)) {
	anchors := ws.bind(f.headSlots, c, nAnchors)
	f.conj.runS(ws.slots, ws.bound, &ws.sc, func(s []storage.Value) bool {
		f.proj.projectCtx(s, anchors, ws.out)
		yield(ws.out)
		return true
	})
}

// gOps is the compiled answer-join operator g: the exit rule probed per
// carried context, plus the head-assembly map. Sources of kind 0 (query
// constants) carry no value — the evaluation fills them per query (see
// colSrc), which is what lets a batch share one compiled g across
// queries with different constants.
type gOps struct {
	conj     *compiledConj
	ctxSlots []int
	nslots   int
	srcs     []colSrc
}

// compileG builds the g operator against the reduced exit rule. altIdx
// >= 0 compiles the delta variant restricting the altIdx-th exit body
// atom to newly inserted tuples (the incremental answer join for
// already-seen contexts).
func (p *Plan) compileG(syms *storage.SymbolTable, altIdx int) gOps {
	head := p.reduced.Recursive.Head
	exitHead := p.reduced.Exit.Head
	gSS := newSlotSpace()
	gInitBound := make(map[string]bool)
	for _, j := range p.ctxCols {
		if v := exitHead.Args[j]; v.IsVar() {
			gInitBound[v.Name] = true
		}
	}
	gFixed := make(ast.Subst)
	for j, c := range p.fixedCols {
		if v := exitHead.Args[j]; v.IsVar() {
			gFixed[v.Name] = ast.C(c)
		}
	}
	gAtoms := gFixed.ApplyAtoms(p.reduced.Exit.Body)
	g := gOps{}
	g.conj = compileConj(gAtoms, conjOptsFor(len(gAtoms), altIdx), gSS, syms, gInitBound, exitHead.VarSet())
	g.ctxSlots = make([]int, len(p.ctxCols))
	for i, j := range p.ctxCols {
		g.ctxSlots[i] = gSS.slot(exitHead.Args[j].Name)
	}

	// Head assembly: for each original column, where does the value come
	// from? Group indices follow p.factored order, which every per-query
	// evaluation of the groups preserves.
	g.srcs = make([]colSrc, p.Def.Arity())
	foldedIdx := make(map[string]int)
	for i, v := range p.foldedAnchors {
		foldedIdx[v] = i
	}
	groupIdx := make(map[string][2]int)
	for gi, fg := range p.factored {
		for pi, v := range fg.anchors {
			groupIdx[v] = [2]int{gi, pi}
		}
	}
	redOf := make(map[int]int)
	for ri, oi := range p.keepCols {
		redOf[oi] = ri
	}
	for oi := 0; oi < p.Def.Arity(); oi++ {
		if a := p.Query.Args[oi]; a.IsConst() {
			g.srcs[oi] = colSrc{kind: 0}
			continue
		}
		ri := redOf[oi]
		hv := head.Args[ri]
		if hv.IsVar() {
			if i, ok := foldedIdx[hv.Name]; ok {
				g.srcs[oi] = colSrc{kind: 2, idx: i}
				continue
			}
			if gp, ok := groupIdx[hv.Name]; ok {
				g.srcs[oi] = colSrc{kind: 3, idx: gp[0], pos: gp[1]}
				continue
			}
		}
		// Persistent column: the exit rule binds it.
		ev := exitHead.Args[ri]
		g.srcs[oi] = colSrc{kind: 1, idx: gSS.slot(ev.Name)}
	}
	g.nslots = len(gSS.varSlot)
	return g
}

// prepare readies a worker's scratch for a chunk of g steps: allocated
// on first use, with out the arity-wide answer tuple assembler.emit
// writes, then resolved through res.
func (g *gOps) prepare(ws *stepScratch, arity int, res resolver) {
	if ws.slots == nil {
		*ws = newStepScratch(g.conj, g.nslots, arity)
	}
	ws.sc.resolve(g.conj, res)
}

// step joins one carried context c with the exit rule, probing the
// relations ws was resolved to: each join solution goes to solution
// with c's anchor part, and a false return stops the join. One step is
// one g-probe.
func (g *gOps) step(c storage.Tuple, nAnchors int, ws *stepScratch, solution func(s []storage.Value, anchors storage.Tuple) bool) {
	anchors := ws.bind(g.ctxSlots, c, nAnchors)
	g.conj.runS(ws.slots, ws.bound, &ws.sc, func(s []storage.Value) bool {
		return solution(s, anchors)
	})
}

// assembler turns g-join solutions into one query's answers: srcs says
// where each answer column comes from (query constants filled, see
// fillQueryConsts), groups are the query's materialized factor groups,
// crossed into every solution, and sink receives each assembled answer
// as scratch and returns false to stop.
type assembler struct {
	srcs   []colSrc
	groups []groupResult
	sink   func(storage.Tuple) bool
}

// emit assembles the answers of g-join solution s for a context with
// anchor part anchors into out, the caller's scratch tuple. It returns
// false once the sink has asked to stop.
func (a *assembler) emit(s []storage.Value, anchors, out storage.Tuple) bool {
	return a.cross(0, s, anchors, out)
}

// cross fills factor group gi's columns from each of its tuples in turn
// and recurses into the next group; past the last group it fills the
// remaining columns and hands the answer to the sink.
func (a *assembler) cross(gi int, s []storage.Value, anchors, out storage.Tuple) bool {
	if gi == len(a.groups) {
		for oi, src := range a.srcs {
			switch src.kind {
			case 0:
				out[oi] = src.val
			case 1:
				out[oi] = s[src.idx]
			case 2:
				out[oi] = anchors[src.idx]
			}
		}
		return a.sink(out)
	}
	for _, gt := range a.groups[gi].tuples {
		for oi, src := range a.srcs {
			if src.kind == 3 && src.idx == gi {
				out[oi] = gt[src.pos]
			}
		}
		if !a.cross(gi+1, s, anchors, out) {
			return false
		}
	}
	return true
}

// queryConsts returns, for each original column whose source is a query
// constant (colSrc kind 0), the interned value; other columns are zero.
func (p *Plan) queryConsts(syms *storage.SymbolTable) storage.Tuple {
	out := make(storage.Tuple, p.Def.Arity())
	for i, a := range p.Query.Args {
		if a.IsConst() {
			out[i] = syms.Intern(a.Name)
		}
	}
	return out
}

// newContextEval constructs the evaluation state for a bound
// context-mode plan: the answer and seen relations plus the environment
// the compiled operators run in. run executes the Fig. 9 loop; the state
// can be retained afterwards and extended with update.
func (p *Plan) newContextEval(edb *storage.Database, emit func(storage.Tuple) bool) *contextEval {
	syms := edb.Syms
	nshards := edb.Shards()
	ce := &contextEval{
		p:        p,
		syms:     syms,
		resolve:  func(pred string, alt bool) *storage.Relation { return edb.Relation(pred) },
		workers:  p.effectiveWorkers(),
		emit:     emit,
		ans:      storage.NewShardedRelation(p.Def.Arity(), &edb.Stats, nshards),
		nAnchors: len(p.foldedAnchors),
	}
	if width := ce.nAnchors + len(p.ctxCols); width == 1 {
		// Unary carry: the seen-set is a concurrent bitset over the dense
		// interned Value space — the Fig. 9 membership test becomes a word
		// operation. Sized to the symbol table now; values interned later
		// (incremental updates) fall into the bitset's overflow.
		ce.seen = &bitsetSeen{set: bitset.NewConcurrent(syms.Len())}
	} else {
		ce.seen = storage.NewShardedRelation(width, nil, nshards)
	}
	ce.stats = EvalStats{CarryArity: p.CarryArity, Workers: ce.workers, Shards: nshards}
	return ce
}

// seenSet is the carry-loop dedup/claim set: Offer returns true exactly
// once per tuple under concurrent calls (the duplicate-tolerant claim
// point parallel workers hammer), Len reports the distinct context
// count, and Tuples materializes the members (the incremental layer
// snapshots the pre-update contexts through it).
// *storage.Relation implements it directly; bitsetSeen replaces the
// relation for unary carries.
type seenSet interface {
	Offer(storage.Tuple) bool
	Len() int
	Tuples() []storage.Tuple
}

// bitsetSeen adapts bitset.Concurrent to seenSet for width-1 carry
// tuples.
type bitsetSeen struct {
	set *bitset.Concurrent
}

func (b *bitsetSeen) Offer(t storage.Tuple) bool { return b.set.Add(int(t[0])) }

func (b *bitsetSeen) Len() int { return b.set.Len() }

func (b *bitsetSeen) Tuples() []storage.Tuple {
	members := b.set.Members()
	arena := make([]storage.Value, len(members))
	out := make([]storage.Tuple, len(members))
	for i, v := range members {
		arena[i] = storage.Value(v)
		out[i] = arena[i : i+1]
	}
	return out
}

// run executes the Fig. 9 loop over the state: seed the carry from the
// first application of the recursive rule (restricted by the selection
// constants), then per batch join the new contexts with the exit rule
// (g, emitting answers incrementally) and apply the recursive rule one
// level deeper (f) until no new contexts appear. Each batch is split
// across a bounded worker pool; the sharded seen-set deduplicates
// concurrently discovered contexts, and the depth-0 answers from the
// exit rule alone are emitted before the loop starts.
func (ce *contextEval) run(ctx context.Context) error {
	p, syms := ce.p, ce.syms

	// An already-expired context must fail even when the evaluation would
	// finish without entering the while loop (empty carry): the serving
	// layer relies on deadline errors surfacing deterministically.
	if err := ctx.Err(); err != nil {
		return err
	}
	meter := MeterFrom(ctx)

	// Depth-0: exit rule with the bound head columns substituted. These
	// are the first streamed answers — no fixpoint work precedes them.
	// The exit join's outer scan splits across the worker pool: for
	// exit-heavy selections this join IS the evaluation, and emitAnswer
	// is already safe for concurrent workers (sharded answer insert,
	// mutex-guarded streaming emit).
	ce.stats.GProbes++
	p.compileD0(syms, -1).runParallel(p, syms, ce.resolve, ce.workers, ce.emitAnswer)
	if ce.aborted.Load() {
		return ce.finish(ctx)
	}
	if err := ce.charge(meter); err != nil {
		return err
	}

	// Factored groups: evaluate once with the selection constants; any
	// empty group kills all depth>=1 derivations.
	groups, ok := p.evalFactoredGroups(syms, ce.resolve)
	if !ok {
		// No depth>=1 derivations are possible; answers are depth-0 only.
		ce.noDepth = true
		return ce.finish(ctx)
	}
	ce.groups = groups

	// Seed contexts, deduplicated through the shared seen-set. The seed
	// conjunction's outer scan is split across the worker pool (the
	// seen-set's Offer is the concurrent claim point, exactly as in
	// fBatch); per-worker slices keep the merge allocation-cheap.
	seedLocal := make([][]storage.Tuple, ce.workers)
	p.compileSeed(syms, -1).runParallel(p, ce.resolve, ce.workers, func(w int, tup storage.Tuple) {
		if ce.seen.Offer(tup) {
			seedLocal[w] = append(seedLocal[w], tup.Clone())
		}
	})
	var carry []storage.Tuple
	for _, l := range seedLocal {
		carry = append(carry, l...)
	}

	ce.f = p.compileF(syms, -1)
	ce.g = p.compileG(syms, -1)
	ce.g.srcs = fillQueryConsts(ce.g.srcs, p.queryConsts(syms))
	ce.asm = assembler{srcs: ce.g.srcs, groups: groups, sink: ce.emitAnswer}
	ce.fws = make([]stepScratch, ce.workers)
	ce.gws = make([]stepScratch, ce.workers)
	if err := ce.loop(ctx, meter, carry); err != nil {
		return err
	}
	if err := ce.charge(meter); err != nil {
		return err
	}
	return ce.finish(ctx)
}

// loop is the Fig. 9 while loop from a batch of new contexts, one
// parallel batch per level: g joins the level's contexts (streaming
// their answers) and f produces the next level into the slab the level
// before last used, until no new contexts appear. Gas is charged once
// per iteration.
func (ce *contextEval) loop(ctx context.Context, meter *Meter, carry []storage.Tuple) error {
	defer ce.dropLevels()
	ce.stats.Batches++
	ce.gBatch(&ce.g, &ce.asm, ce.gws, ce.resolve, carry)
	for len(carry) > 0 && !ce.aborted.Load() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := ce.charge(meter); err != nil {
			return err
		}
		ce.stats.Iterations++
		ce.stats.Batches++
		next := &ce.slabs[ce.stats.Iterations&1]
		next.reset()
		ce.fBatch(&ce.f, ce.fws, ce.resolve, carry, next)
		carry = next.tups
		if hook := ce.p.TestIterHook; hook != nil {
			hook(ce.stats.Iterations)
		}
		ce.gBatch(&ce.g, &ce.asm, ce.gws, ce.resolve, carry)
	}
	return nil
}

// dropLevels releases the level buffers when a loop ends.
func (ce *contextEval) dropLevels() {
	ce.fout, ce.slabs = nil, [2]carrySlab{}
}

// charge meters the derived-tuple budget at batch granularity: the
// growth of the seen-set plus the answer set since the last charge, so
// one check per Fig. 9 iteration bounds a runaway recursion.
func (ce *contextEval) charge(meter *Meter) error {
	cur := ce.seen.Len() + ce.ans.Len()
	err := meter.Charge(cur - ce.charged)
	ce.charged = cur
	return err
}

// fillQueryConsts copies a g operator's source table with the kind-0
// (query constant) entries holding the plan's interned values.
func fillQueryConsts(srcs []colSrc, qc storage.Tuple) []colSrc {
	out := make([]colSrc, len(srcs))
	copy(out, srcs)
	for oi := range out {
		if out[oi].kind == 0 {
			out[oi].val = qc[oi]
		}
	}
	return out
}

// finish closes out a context-mode evaluation. An abort latched by the
// emit sink is a clean early stop when the consumer asked for it, but a
// cancellation when ctx fired — the two reach emitAnswer the same way,
// so the distinction is recovered from ctx itself.
func (ce *contextEval) finish(ctx context.Context) error {
	ce.stats.SeenSize = ce.seen.Len()
	if ce.aborted.Load() {
		return ctx.Err()
	}
	return nil
}

// fBatch applies f — the loop's operator or a delta variant, resolved
// through res — to a carry batch, split across up to len(ws) workers
// (ws holds one scratch per worker, dedicated to f), and appends the
// genuinely new contexts to dst. Workers claim contexts through the
// shared seen-set (Offer returns true exactly once per tuple), so the
// level is a set no matter how the batch was partitioned. A batch the
// split rule leaves in one chunk runs on the calling goroutine,
// straight into dst.
func (ce *contextEval) fBatch(f *fOps, ws []stepScratch, res resolver, carry []storage.Tuple, dst *carrySlab) {
	if len(carry) == 0 {
		return
	}
	if inline(len(ws), len(carry)) {
		ce.fChunk(f, &ws[0], res, carry, dst)
		return
	}
	if len(ce.fout) < len(ws) {
		ce.fout = make([]carrySlab, len(ws))
	}
	for w := range ce.fout {
		ce.fout[w].reset()
	}
	parallelFor(len(ws), len(carry), func(w, lo, hi int) {
		ce.fChunk(f, &ws[w], res, carry[lo:hi], &ce.fout[w])
	})
	for w := range ce.fout {
		for _, t := range ce.fout[w].tups {
			dst.push(t)
		}
	}
}

// fChunk is one worker's share of an f batch: it prepares the worker's
// scratch, steps each context, pushes the successors it claims to out,
// and flushes the probe tallies.
func (ce *contextEval) fChunk(f *fOps, ws *stepScratch, res resolver, carry []storage.Tuple, out *carrySlab) {
	f.prepare(ws, ce.nAnchors, res)
	claim := func(tup storage.Tuple) {
		if ce.seen.Offer(tup) {
			out.push(tup)
		}
	}
	for _, c := range carry {
		if ce.aborted.Load() {
			break
		}
		f.step(c, ce.nAnchors, ws, claim)
	}
	ws.sc.flush()
}

// gBatch joins a batch of contexts with g — the loop's operator or a
// delta variant, resolved through res — and emits the answers asm
// assembles, split across up to len(ws) workers (one scratch per
// worker, dedicated to g). Each context's probe is independent, so
// partitioning is safe; answer dedup happens in the sharded answer
// relation. A batch the split rule leaves in one chunk runs on the
// calling goroutine.
func (ce *contextEval) gBatch(g *gOps, asm *assembler, ws []stepScratch, res resolver, batch []storage.Tuple) {
	ce.stats.GProbes += len(batch)
	if len(batch) == 0 {
		return
	}
	if inline(len(ws), len(batch)) {
		ce.gChunk(g, asm, &ws[0], res, batch)
		return
	}
	parallelFor(len(ws), len(batch), func(w, lo, hi int) {
		ce.gChunk(g, asm, &ws[w], res, batch[lo:hi])
	})
}

// gChunk is one worker's share of a g batch: prepare, step each
// context, flush.
func (ce *contextEval) gChunk(g *gOps, asm *assembler, ws *stepScratch, res resolver, batch []storage.Tuple) {
	g.prepare(ws, ce.p.Def.Arity(), res)
	answer := func(s []storage.Value, anchors storage.Tuple) bool {
		return asm.emit(s, anchors, ws.out)
	}
	for _, c := range batch {
		if ce.aborted.Load() {
			break
		}
		g.step(c, ce.nAnchors, ws, answer)
	}
	ws.sc.flush()
}

// emitAnswer records one answer tuple, forwarding genuinely new tuples to
// the streaming sink (serialized across workers). Returns false once the
// sink has asked to stop.
func (ce *contextEval) emitAnswer(out storage.Tuple) bool {
	// Offer, not Insert: answer emission is duplicate-heavy, and the
	// read-locked duplicate check keeps parallel workers off the answer
	// shards' write locks.
	if !ce.ans.Offer(out) {
		return !ce.aborted.Load()
	}
	if ce.emit == nil {
		return !ce.aborted.Load()
	}
	ce.emitMu.Lock()
	ok := !ce.aborted.Load() && ce.emit(out)
	ce.emitMu.Unlock()
	if !ok {
		ce.aborted.Store(true)
	}
	return ok
}

// carryProj maps conjunction solutions to carry tuples.
type carryProj struct {
	anchorSlots []int
	ctxRefs     []argRef
}

// carryProjection computes slot references for the folded anchors and the
// context columns of the recursive call.
func (p *Plan) carryProjection(ss *slotSpace, rec ast.Atom, syms *storage.SymbolTable) *carryProj {
	cp := &carryProj{}
	for _, v := range p.foldedAnchors {
		cp.anchorSlots = append(cp.anchorSlots, ss.slot(v))
	}
	for _, j := range p.ctxCols {
		t := rec.Args[j]
		if t.IsConst() {
			cp.ctxRefs = append(cp.ctxRefs, argRef{isConst: true, val: syms.Intern(t.Name)})
		} else {
			cp.ctxRefs = append(cp.ctxRefs, argRef{slot: ss.slot(t.Name)})
		}
	}
	return cp
}

// project fills a carry tuple (anchors then ctx) from a solution.
func (cp *carryProj) project(s []storage.Value, tup storage.Tuple) {
	for i, sl := range cp.anchorSlots {
		tup[i] = s[sl]
	}
	cp.fillCtx(s, tup, len(cp.anchorSlots))
}

// projectCtx fills a carry tuple using a fixed anchor part.
func (cp *carryProj) projectCtx(s []storage.Value, anchorPart storage.Tuple, tup storage.Tuple) {
	copy(tup, anchorPart)
	cp.fillCtx(s, tup, len(anchorPart))
}

func (cp *carryProj) fillCtx(s []storage.Value, tup storage.Tuple, off int) {
	for i, r := range cp.ctxRefs {
		if r.isConst {
			tup[off+i] = r.val
		} else {
			tup[off+i] = s[r.slot]
		}
	}
}
