package onesided

import (
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

// InsertFacts inserts a batch of facts with one admission check, one
// interning pass, and one storage batch per predicate run — amortizing
// the shard locking, epoch stamping, and journaling that InsertFact
// pays per fact. Facts are applied in input order; within the batch,
// facts of the same predicate share one epoch stamp, one journal run
// (a single group commit under SyncAlways), and one watcher
// notification, so incremental subscribers observe the whole run as a
// single delta round. The database epoch still advances once per
// accepted fact, so a follower applying the batch reaches the same
// epoch as the primary.
//
// The return counts facts that were genuinely new (duplicates insert
// as no-ops, exactly as InsertFact). Under a MaxFacts quota the batch
// is admitted in capacity-sized chunks: when the database fills
// mid-batch, InsertFacts returns the count actually inserted alongside
// ErrFactLimitExceeded — the prefix that fit is in (and journaled),
// mirroring the per-fact loop's behavior. On a read-only follower it
// inserts nothing and returns ErrReadOnly.
func (e *Engine) InsertFacts(facts []Fact) (int, error) {
	if e.readOnly.Load() {
		return 0, ErrReadOnly
	}
	added := 0
	rest := facts
	for len(rest) > 0 {
		chunk := rest
		if m := e.quota.MaxFacts; m > 0 {
			capacity := m - int64(e.db.TupleCount())
			if capacity <= 0 {
				e.maybeAutoCheckpoint()
				return added, fmt.Errorf("%w: database holds %d tuples (limit %d)",
					ErrFactLimitExceeded, e.db.TupleCount(), m)
			}
			if int64(len(chunk)) > capacity {
				chunk = rest[:capacity]
			}
		}
		added += e.insertChunk(chunk)
		rest = rest[len(chunk):]
	}
	e.maybeAutoCheckpoint()
	return added, nil
}

// insertChunk interns and inserts one admitted chunk, grouping
// consecutive and non-consecutive facts of the same predicate into one
// InsertBatch call (groups run in first-seen predicate order, which
// preserves input order within each predicate — the only order storage
// distinguishes).
func (e *Engine) insertChunk(facts []Fact) int {
	db := e.db
	total := 0
	homogeneous := true
	for i, f := range facts {
		total += len(f.Args)
		if i > 0 && f.Pred != facts[0].Pred {
			homogeneous = false
		}
	}
	// One interning pass for the whole chunk (a single symbol-table
	// lock round-trip), and one backing array sized exactly up front so
	// the tuple sub-slices handed to storage stay valid.
	names := make([]string, 0, total)
	for _, f := range facts {
		names = append(names, f.Args...)
	}
	backing := make([]storage.Value, total)
	db.Syms.InternBatch(names, backing)

	if homogeneous {
		// The common bulk-load shape: one predicate, no grouping map.
		rel := db.Ensure(facts[0].Pred, len(facts[0].Args))
		tuples := make([]storage.Tuple, len(facts))
		off := 0
		for i, f := range facts {
			end := off + len(f.Args)
			tuples[i] = storage.Tuple(backing[off:end:end])
			off = end
		}
		return rel.InsertBatch(tuples)
	}

	type group struct {
		rel    *storage.Relation
		tuples []storage.Tuple
	}
	groups := make(map[string]*group, 4)
	var order []*group
	off := 0
	for _, f := range facts {
		g, ok := groups[f.Pred]
		if !ok {
			g = &group{rel: db.Ensure(f.Pred, len(f.Args))}
			groups[f.Pred] = g
			order = append(order, g)
		}
		end := off + len(f.Args)
		g.tuples = append(g.tuples, storage.Tuple(backing[off:end:end]))
		off = end
	}
	added := 0
	for _, g := range order {
		added += g.rel.InsertBatch(g.tuples)
	}
	return added
}

// RetractFacts retracts a batch of facts, grouped per predicate like
// InsertFacts: one shard-lock pass, one epoch stamp, one journal run,
// and one watcher notification per predicate group, so maintained
// queries and subscriptions absorb the whole batch as a single signed
// delta round. Facts naming an unknown predicate, an unknown constant,
// or the wrong arity cannot be stored and are skipped, exactly as
// Retract reports false for them. It returns the number of facts that
// were present and removed. A read-only follower rejects with
// ErrReadOnly.
func (e *Engine) RetractFacts(facts []Fact) (int, error) {
	if e.readOnly.Load() {
		return 0, ErrReadOnly
	}
	db := e.db
	type group struct {
		rel    *storage.Relation
		tuples []storage.Tuple
	}
	groups := make(map[string]*group, 4)
	var order []*group
	for _, f := range facts {
		g, ok := groups[f.Pred]
		if !ok {
			r := db.Relation(f.Pred)
			if r == nil {
				continue
			}
			g = &group{rel: r}
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
	e.maybeAutoCheckpoint()
	return removed, nil
}
