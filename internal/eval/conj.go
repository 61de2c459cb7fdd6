package eval

import (
	"sort"

	"repro/internal/ast"
	"repro/internal/storage"
)

// argRef is a compiled atom argument: a constant value or a variable slot.
type argRef struct {
	isConst bool
	val     storage.Value
	slot    int
}

// catom is a compiled atom: predicate plus argument references. alt marks
// the atom to be resolved against the alternate (delta) relation by the
// resolver; idb marks derived predicates (used as an ordering tie-break:
// derived relations — magic sets in particular — are skewed toward the
// query constants and are poor probe targets).
type catom struct {
	pred string
	args []argRef
	alt  bool
	idb  bool
}

// compiledConj is a conjunction compiled against a variable-slot space and
// ordered for evaluation.
type compiledConj struct {
	nslots  int
	varSlot map[string]int
	atoms   []catom
	// existential[i] marks atoms none of whose variable bindings are read
	// by later atoms or by the caller's projection: the first matching
	// tuple suffices (a semijoin). This is what keeps the Example 3.4
	// d-lookup a nonemptiness check instead of a scan per iteration.
	existential []bool
	// argOff[i] is atom i's segment offset into the scratch backing
	// arrays (see conjScratch); totalArgs is the arrays' length and
	// maxArity the widest atom (the lookup buffer size).
	argOff    []int
	totalArgs int
	maxArity  int
}

// conjScratch is the reusable per-traversal state of a conjunction
// evaluation: per-atom binding and newly-bound segments carved out of
// two backing arrays, the buffer storage lookups yield rows into, and
// each atom's relation with a tally of the probes made against it. One
// scratch serves the whole step recursion — each atom index owns a
// disjoint segment, and a yielded row is fully consumed before the next
// lookup overwrites the buffer — but it must not be shared across
// goroutines. Hot callers allocate one per worker and reuse it across
// contexts via runS; run itself makes a fresh one per call.
//
// The scratch's owner resolves the atoms' relations once when it starts
// a chunk of contexts or a run (resolve), not on every probe, and
// publishes the probe tallies to the relations' counters once at the
// end (flush), so probing a relation touches neither the database's
// relation map nor its shared counters.
type conjScratch struct {
	bindBack []storage.Binding
	newBack  []int
	tupBuf   storage.Tuple
	probes   []atomProbe
}

// atomProbe is one atom's resolved relation and the tally of the probes
// made against it since the last flush.
type atomProbe struct {
	rel   *storage.Relation
	tally storage.Tally
}

// newScratch allocates a scratch sized for this conjunction.
func (c *compiledConj) newScratch() *conjScratch {
	return &conjScratch{
		bindBack: make([]storage.Binding, c.totalArgs),
		newBack:  make([]int, c.totalArgs),
		tupBuf:   make(storage.Tuple, c.maxArity),
		probes:   make([]atomProbe, len(c.atoms)),
	}
}

// resolve points the scratch at the relations res names for c's atoms.
// The tallies must be empty: the previous chunk or run flushed them.
func (sc *conjScratch) resolve(c *compiledConj, res resolver) {
	for i, at := range c.atoms {
		sc.probes[i].rel = res(at.pred, at.alt)
	}
}

// flush publishes the probe tallies to the resolved relations'
// counters and forgets the relations, so a scratch kept between runs
// (a retained state's) pins none of them — a maintenance pass's delta
// relations in particular. Owners call it when a chunk or run ends,
// before the evaluation returns, so published counts stay exact.
func (sc *conjScratch) flush() {
	for i := range sc.probes {
		pr := &sc.probes[i]
		pr.rel.Flush(&pr.tally)
		pr.rel = nil
	}
}

// resolver locates the relation for a predicate; alt requests the delta
// variant during semi-naive evaluation. A nil return means an empty
// relation.
type resolver func(pred string, alt bool) *storage.Relation

// slotSpace assigns slots to variable names across a rule.
type slotSpace struct {
	varSlot map[string]int
}

func newSlotSpace() *slotSpace { return &slotSpace{varSlot: make(map[string]int)} }

func (ss *slotSpace) slot(v string) int {
	if s, ok := ss.varSlot[v]; ok {
		return s
	}
	s := len(ss.varSlot)
	ss.varSlot[v] = s
	return s
}

// compileAtom compiles one atom against the slot space, interning constants.
func compileAtom(a ast.Atom, ss *slotSpace, syms *storage.SymbolTable, alt bool) catom {
	args := make([]argRef, len(a.Args))
	for i, t := range a.Args {
		if t.IsConst() {
			args[i] = argRef{isConst: true, val: syms.Intern(t.Name)}
		} else {
			args[i] = argRef{slot: ss.slot(t.Name)}
		}
	}
	return catom{pred: a.Pred, args: args, alt: alt}
}

// compileConjOpts carries optional per-atom metadata for compileConj.
type compileConjOpts struct {
	// altFlags marks delta atoms (pinned to the front).
	altFlags []bool
	// idbFlags marks derived-predicate atoms (deprioritized on ordering
	// ties).
	idbFlags []bool
}

// compileConj compiles a conjunction of atoms, ordering them greedily so
// that atoms whose variables are already bound (by initBound slots or by
// earlier atoms) come first; atoms tagged alt (delta atoms) are pinned to
// the front, and derived-predicate atoms lose ordering ties to base atoms
// (derived relations, magic sets especially, are skewed toward the query
// constants). Greedy bound-first ordering is what makes the selection
// constant restrict the evaluation (Property 3). needed names the
// variables the caller reads from solutions (nil means all).
func compileConj(atoms []ast.Atom, opts *compileConjOpts, ss *slotSpace, syms *storage.SymbolTable, initBound map[string]bool, needed map[string]bool) *compiledConj {
	cs := make([]catom, len(atoms))
	for i, a := range atoms {
		alt := opts != nil && opts.altFlags != nil && opts.altFlags[i]
		cs[i] = compileAtom(a, ss, syms, alt)
		if opts != nil && opts.idbFlags != nil {
			cs[i].idb = opts.idbFlags[i]
		}
	}

	bound := make(map[int]bool)
	for v, b := range initBound {
		if b {
			bound[ss.slot(v)] = true
		}
	}
	var ordered []catom
	remaining := append([]catom{}, cs...)
	// Pin delta atoms first (they are the small relations).
	sort.SliceStable(remaining, func(i, j int) bool { return remaining[i].alt && !remaining[j].alt })
	for len(remaining) > 0 {
		best, bestScore := 0, -1
		for i, c := range remaining {
			if i > 0 && c.alt != remaining[0].alt && remaining[0].alt {
				break // keep delta atoms at the front as a block
			}
			score := 0
			for _, a := range c.args {
				if a.isConst || bound[a.slot] {
					score += 2
				}
			}
			if !c.idb {
				score++ // tie-break: probe base relations before derived ones
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		chosen := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		ordered = append(ordered, chosen)
		for _, a := range chosen.args {
			if !a.isConst {
				bound[a.slot] = true
			}
		}
	}
	c := &compiledConj{nslots: len(ss.varSlot), varSlot: ss.varSlot, atoms: ordered}
	c.argOff = make([]int, len(ordered))
	for i, a := range ordered {
		c.argOff[i] = c.totalArgs
		c.totalArgs += len(a.args)
		if len(a.args) > c.maxArity {
			c.maxArity = len(a.args)
		}
	}
	c.existential = make([]bool, len(ordered))
	if needed != nil {
		// neededAfter accumulates slots read after position i: the
		// caller's projection plus every later atom's variables.
		neededAfter := make(map[int]bool)
		for v := range needed {
			neededAfter[ss.slot(v)] = true
		}
		for i := len(ordered) - 1; i >= 0; i-- {
			ex := true
			for _, a := range ordered[i].args {
				if !a.isConst && neededAfter[a.slot] {
					ex = false
				}
			}
			c.existential[i] = ex
			for _, a := range ordered[i].args {
				if !a.isConst {
					neededAfter[a.slot] = true
				}
			}
		}
	}
	return c
}

// run evaluates the conjunction against the relations res names.
// slots/boundFlags carry the initial bindings (length >= nslots); emit
// is called with the full slot array for every solution and may return
// false to stop. The slot array is reused; emit must copy what it keeps.
// run allocates, resolves and flushes a fresh scratch per call — callers
// that evaluate many contexts should hold one scratch per goroutine and
// use runS.
func (c *compiledConj) run(res resolver, slots []storage.Value, boundFlags []bool, emit func([]storage.Value) bool) {
	sc := c.newScratch()
	sc.resolve(c, res)
	c.step(0, slots, boundFlags, sc, emit)
	sc.flush()
}

// runS is run with caller-owned scratch (from newScratch, one per
// goroutine), already resolved — the zero-allocation traversal path.
// The caller flushes the scratch when its run of contexts ends.
func (c *compiledConj) runS(slots []storage.Value, boundFlags []bool, sc *conjScratch, emit func([]storage.Value) bool) {
	c.step(0, slots, boundFlags, sc, emit)
}

func (c *compiledConj) step(i int, slots []storage.Value, bound []bool, sc *conjScratch, emit func([]storage.Value) bool) bool {
	if i == len(c.atoms) {
		return emit(slots)
	}
	at := c.atoms[i]
	pr := &sc.probes[i]
	rel := pr.rel
	if rel == nil {
		return true
	}
	off := c.argOff[i]
	bindings := sc.bindBack[off : off : off+len(at.args)]
	for col, a := range at.args {
		if a.isConst {
			bindings = append(bindings, storage.Binding{Col: col, Val: a.val})
		} else if bound[a.slot] {
			bindings = append(bindings, storage.Binding{Col: col, Val: slots[a.slot]})
		}
	}
	cont := true
	exist := len(c.existential) > 0 && c.existential[i]
	rel.LookupBuf(bindings, sc.tupBuf, &pr.tally, func(t storage.Tuple) bool {
		// Bind free slots; repeated free variables within the atom must
		// agree. t is the lookup's reused buffer: everything read from it
		// is copied into slots before the recursive step reuses it.
		newlyBound := sc.newBack[off : off : off+len(at.args)]
		ok := true
		for col, a := range at.args {
			if a.isConst {
				continue
			}
			if bound[a.slot] {
				if slots[a.slot] != t[col] {
					ok = false
					break
				}
				continue
			}
			slots[a.slot] = t[col]
			bound[a.slot] = true
			newlyBound = append(newlyBound, a.slot)
		}
		if ok {
			cont = c.step(i+1, slots, bound, sc, emit)
		}
		for _, s := range newlyBound {
			bound[s] = false
		}
		// Existential atoms bind nothing anyone reads: the first matching
		// tuple decides the rest of the evaluation, so stop iterating.
		if ok && exist {
			return false
		}
		return cont
	})
	return cont
}
