package onesided

import (
	"errors"
	"fmt"

	"repro/internal/storage"
)

// Fact is one ground fact for the batched write entry points: the
// predicate name plus its constant arguments. It is the wire-shaped
// twin of InsertFact's variadic signature, usable in slices.
type Fact struct {
	Pred string
	Args []string
}

// ErrNotDurable is returned by a write after which the persistence log
// holds a sticky error — a failed write or fsync, or a closed log —
// which the returned error wraps. The write was applied in memory and
// is visible to queries, but the log did not make it durable, so a
// crash may lose it. Serving layers map it to 503.
var ErrNotDurable = errors.New("onesided: write not durable")

// InsertFacts inserts a batch of facts with one admission check, one
// interning pass, and one storage batch per predicate run — amortizing
// the shard locking, epoch stamping, and journaling that a run of
// single-fact InsertFact calls pays per fact. Facts are applied in
// input order; within the batch, facts of the same predicate share one
// epoch stamp, one journal run (a single group commit under
// SyncAlways), and one watcher notification, so incremental subscribers
// observe the whole run as a single delta round. The database epoch
// still advances once per accepted fact, so a follower applying the
// batch reaches the same epoch as the primary.
//
// The return counts facts that were genuinely new (duplicates insert
// as no-ops). A fact whose arity differs from its predicate's relation,
// or from an earlier fact of the same predicate in the batch, rejects
// the whole batch before anything is interned or inserted: (0, error)
// naming the predicate and both arities. Under a MaxFacts quota the
// batch is admitted in capacity-sized chunks: when the database fills
// mid-batch, InsertFacts returns the count actually inserted alongside
// ErrFactLimitExceeded — the prefix that fit is in (and journaled). The
// check is admission control, not an invariant: concurrent inserters
// may overshoot the limit by at most their own in-flight tuples. On a
// read-only follower it inserts nothing and returns ErrReadOnly; after
// the log has failed it returns ErrNotDurable.
func (e *Engine) InsertFacts(facts []Fact) (int, error) { return e.write(facts, false) }

// RetractFacts retracts a batch of facts, grouped per predicate like
// InsertFacts: one shard-lock pass, one epoch stamp, one journal run,
// and one watcher notification per predicate group, so maintained
// queries and subscriptions absorb the whole batch as a single signed
// delta round. Facts naming an unknown predicate, an unknown constant,
// or the wrong arity cannot be stored and are skipped. It returns the
// number of facts that were present and removed. A read-only follower
// rejects with ErrReadOnly; after the log has failed it returns
// ErrNotDurable.
func (e *Engine) RetractFacts(facts []Fact) (int, error) { return e.write(facts, true) }

// InsertFact inserts one fact — InsertFacts over a one-fact batch —
// reporting whether the tuple was genuinely new.
func (e *Engine) InsertFact(pred string, consts ...string) (bool, error) {
	n, err := e.InsertFacts([]Fact{{Pred: pred, Args: consts}})
	return n == 1, err
}

// AddFact is InsertFact with rejections (quota, read-only follower,
// arity mismatch) flattened to false, so the fact quota cannot be
// bypassed by picking the error-free entry point. It reports whether
// the tuple was genuinely new; the insert stamps the database epoch, so
// cached query results notice the change.
func (e *Engine) AddFact(pred string, consts ...string) bool {
	added, _ := e.InsertFact(pred, consts...)
	return added
}

// Retract removes one fact — RetractFacts over a one-fact batch —
// reporting whether it was present. A retraction journals like an
// insert (its own WAL record kind) and stamps the database epoch, so
// cached results observe it as a signed delta and maintained plans run
// their delete-rederive pass.
func (e *Engine) Retract(pred string, consts ...string) (bool, error) {
	n, err := e.RetractFacts([]Fact{{Pred: pred, Args: consts}})
	return n == 1, err
}

// write is the engine's one write path, for both signs: the read-only
// gate, the insert-side arity check and MaxFacts admission, the storage
// runs, then the durability check against the log's sticky error and
// the auto-checkpoint trigger.
func (e *Engine) write(facts []Fact, retract bool) (int, error) {
	if e.readOnly.Load() {
		return 0, ErrReadOnly
	}
	var n int
	var err error
	if retract {
		n = e.retractChunk(facts)
	} else {
		if err := e.checkArity(facts); err != nil {
			return 0, err
		}
		n, err = e.insertAdmitted(facts)
	}
	if lg := e.log.Load(); lg != nil {
		if lerr := lg.Err(); lerr != nil {
			err = errors.Join(fmt.Errorf("%w: %w", ErrNotDurable, lerr), err)
		}
	}
	e.maybeAutoCheckpoint()
	return n, err
}

// checkArity rejects facts holding one whose arity differs from its
// predicate's relation or from an earlier fact of the same predicate.
// A lone fact is left to insertChunk, whose EnsureArity rejects it
// before anything is interned.
func (e *Engine) checkArity(facts []Fact) error {
	if len(facts) < 2 {
		return nil
	}
	arity := make(map[string]int, 4)
	for i, f := range facts {
		if i > 0 && f.Pred == facts[i-1].Pred && len(f.Args) == len(facts[i-1].Args) {
			continue // a run of one predicate: its first fact was checked
		}
		want, ok := arity[f.Pred]
		if !ok {
			want = len(f.Args)
			if r := e.db.Relation(f.Pred); r != nil {
				want = r.Arity()
			}
			arity[f.Pred] = want
		}
		if len(f.Args) != want {
			return fmt.Errorf("onesided: relation %s has arity %d, requested %d", f.Pred, want, len(f.Args))
		}
	}
	return nil
}

// insertAdmitted inserts facts in chunks sized to the MaxFacts capacity
// left, stopping with ErrFactLimitExceeded when none is.
func (e *Engine) insertAdmitted(facts []Fact) (int, error) {
	added := 0
	for rest := facts; len(rest) > 0; {
		chunk := rest
		if m := e.quota.MaxFacts; m > 0 {
			held := int64(e.db.TupleCount())
			if held >= m {
				return added, fmt.Errorf("%w: database holds %d tuples (limit %d)", ErrFactLimitExceeded, held, m)
			}
			chunk = rest[:min(int64(len(rest)), m-held)]
		}
		n, err := e.insertChunk(chunk)
		added += n
		if err != nil {
			return added, err
		}
		rest = rest[len(chunk):]
	}
	return added, nil
}

// predGroup is one predicate's run of a mixed-predicate batch.
type predGroup struct {
	rel    *storage.Relation
	tuples []storage.Tuple
}

// insertChunk interns and inserts one admitted chunk, grouping
// consecutive and non-consecutive facts of the same predicate into one
// InsertBatch call (groups run in first-seen predicate order, which
// preserves input order within each predicate — the only order storage
// distinguishes). Relations are resolved before anything is interned,
// so an arity conflict with a relation created concurrently since
// checkArity inserts nothing.
func (e *Engine) insertChunk(facts []Fact) (int, error) {
	db := e.db
	if len(facts) == 1 {
		// One fact interns straight from its arguments into its tuple.
		f := facts[0]
		rel, err := db.EnsureArity(f.Pred, len(f.Args))
		if err != nil {
			return 0, err
		}
		t := make(storage.Tuple, len(f.Args))
		db.Syms.InternBatch(f.Args, t)
		return rel.InsertBatch([]storage.Tuple{t}), nil
	}
	total := 0
	homogeneous := true
	for _, f := range facts {
		total += len(f.Args)
		homogeneous = homogeneous && f.Pred == facts[0].Pred
	}
	// One interning pass for the whole chunk (a single symbol-table
	// lock round-trip) into one backing array sized exactly up front, so
	// the tuple sub-slices handed to storage stay valid.
	names := make([]string, 0, total)
	for _, f := range facts {
		names = append(names, f.Args...)
	}
	backing := make([]storage.Value, total)

	if homogeneous {
		// The common bulk-load shape: one predicate, no grouping map.
		rel, err := db.EnsureArity(facts[0].Pred, len(facts[0].Args))
		if err != nil {
			return 0, err
		}
		tuples := make([]storage.Tuple, len(facts))
		off := 0
		for i, f := range facts {
			end := off + len(f.Args)
			tuples[i] = storage.Tuple(backing[off:end:end])
			off = end
		}
		db.Syms.InternBatch(names, backing)
		return rel.InsertBatch(tuples), nil
	}

	groups := make(map[string]*predGroup, 4)
	var order []*predGroup
	off := 0
	for _, f := range facts {
		g, ok := groups[f.Pred]
		if !ok {
			rel, err := db.EnsureArity(f.Pred, len(f.Args))
			if err != nil {
				return 0, err
			}
			g = &predGroup{rel: rel}
			groups[f.Pred] = g
			order = append(order, g)
		}
		end := off + len(f.Args)
		g.tuples = append(g.tuples, storage.Tuple(backing[off:end:end]))
		off = end
	}
	db.Syms.InternBatch(names, backing)
	added := 0
	for _, g := range order {
		added += g.rel.InsertBatch(g.tuples)
	}
	return added, nil
}

// retractChunk resolves and retracts facts per predicate group (see
// RetractFacts), returning the number removed.
func (e *Engine) retractChunk(facts []Fact) int {
	db := e.db
	if len(facts) == 1 {
		if db.RemoveFact(facts[0].Pred, facts[0].Args...) {
			return 1
		}
		return 0
	}
	groups := make(map[string]*predGroup, 4)
	var order []*predGroup
	for _, f := range facts {
		g, ok := groups[f.Pred]
		if !ok {
			r := db.Relation(f.Pred)
			if r == nil {
				continue
			}
			g = &predGroup{rel: r}
			groups[f.Pred] = g
			order = append(order, g)
		}
		if g.rel.Arity() != len(f.Args) {
			continue
		}
		t := make(storage.Tuple, len(f.Args))
		ok = true
		for i, c := range f.Args {
			v, found := db.Syms.Lookup(c)
			if !found {
				ok = false
				break
			}
			t[i] = v
		}
		if ok {
			g.tuples = append(g.tuples, t)
		}
	}
	removed := 0
	for _, g := range order {
		if len(g.tuples) > 0 {
			removed += g.rel.RetractBatch(g.tuples)
		}
	}
	return removed
}
