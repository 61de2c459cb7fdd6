package storage

import (
	"fmt"
	"sync"
	"testing"
)

// tupleSet renders tuples as a set of keys for comparison.
func tupleSet(ts []Tuple) map[tupleKey]bool {
	out := make(map[tupleKey]bool, len(ts))
	for _, t := range ts {
		out[tkey(t)] = true
	}
	return out
}

// TestEpochStampingAndDeltaSince: inserts into a tracked database are
// stamped with consecutive epochs, and DeltaSince returns exactly the
// tuples at or above a stamp.
func TestEpochStampingAndDeltaSince(t *testing.T) {
	db := NewDatabase()
	if db.Epoch() != 0 || db.LastModified() != 0 || db.Mutations() != 0 {
		t.Fatalf("fresh database not at epoch zero: %d/%d/%d", db.Epoch(), db.LastModified(), db.Mutations())
	}
	db.AddFact("e", "a", "b")
	db.AddFact("e", "b", "c")
	if db.Epoch() != 2 || db.LastModified() != 1 || db.Mutations() != 2 {
		t.Fatalf("after two inserts: epoch=%d lastMod=%d mutations=%d", db.Epoch(), db.LastModified(), db.Mutations())
	}
	// A duplicate insert is not accepted: no epoch movement.
	db.AddFact("e", "a", "b")
	if db.Epoch() != 2 || db.Mutations() != 2 {
		t.Fatalf("duplicate insert moved the epoch: epoch=%d mutations=%d", db.Epoch(), db.Mutations())
	}
	stamp := db.Epoch() // everything below is already visible
	db.AddFact("e", "c", "d")
	r := db.Relation("e")
	if r.LastModified() != 2 {
		t.Fatalf("relation lastModified = %d, want 2", r.LastModified())
	}
	delta, ok := r.DeltaSince(stamp)
	if !ok {
		t.Fatal("DeltaSince fell back to full for a live tail")
	}
	if len(delta.Added) != 1 || tkey(delta.Added[0]) != tkey(Tuple{db.Syms.Intern("c"), db.Syms.Intern("d")}) {
		t.Fatalf("delta = %v, want exactly the (c,d) insert", delta.Added)
	}
	if len(delta.Removed) != 0 {
		t.Fatalf("insert-only delta carries removals: %v", delta.Removed)
	}
	// Nothing newer than the current epoch.
	if d, ok := r.DeltaSince(db.Epoch()); !ok || len(d.Added) != 0 || len(d.Removed) != 0 {
		t.Fatalf("DeltaSince(current) = %v/%v, want empty/ok", d, ok)
	}
	// Epoch 0 covers the whole history while the tail is intact.
	if d, ok := r.DeltaSince(0); !ok || len(d.Added) != 3 {
		t.Fatalf("DeltaSince(0) = %d tuples/%v, want 3/ok", len(d.Added), ok)
	}
}

// TestDeltaSinceUntracked: free-standing relations and derived databases
// report the full fallback.
func TestDeltaSinceUntracked(t *testing.T) {
	r := NewRelation(2, nil)
	r.Insert(Tuple{1, 2})
	if _, ok := r.DeltaSince(0); ok {
		t.Fatal("free-standing relation claimed delta tracking")
	}
	derived := NewDatabaseWith(NewSymbolTable())
	derived.AddFact("p", "x")
	if derived.Epoch() != 0 || derived.Mutations() != 0 {
		t.Fatal("derived database tracked epochs")
	}
	if _, ok := derived.Relation("p").DeltaSince(0); ok {
		t.Fatal("derived relation claimed delta tracking")
	}
}

// TestDeltaTailEviction: overflowing the per-shard tail advances the
// floor, and a request below it reports the full fallback while newer
// stamps still answer exactly.
func TestDeltaTailEviction(t *testing.T) {
	db := NewDatabase()
	db.SetShards(1)
	n := deltaTailBound + deltaTailBound/2
	for i := 0; i < n; i++ {
		db.AddFact("e", fmt.Sprintf("x%d", i), "y")
	}
	r := db.Relation("e")
	if _, ok := r.DeltaSince(0); ok {
		t.Fatalf("DeltaSince(0) should have fallen back after %d inserts over a %d-entry tail", n, deltaTailBound)
	}
	// The most recent inserts are still covered.
	stamp := uint64(n - 10)
	delta, ok := r.DeltaSince(stamp)
	if !ok {
		t.Fatalf("DeltaSince(%d) fell back; floor too aggressive", stamp)
	}
	if len(delta.Added) != 10 {
		t.Fatalf("recent delta has %d tuples, want 10", len(delta.Added))
	}
}

// TestDeltaSinceSharded: deltas assemble across shards and contain
// exactly the post-stamp inserts.
func TestDeltaSinceSharded(t *testing.T) {
	db := NewDatabase()
	db.SetShards(8)
	for i := 0; i < 100; i++ {
		db.AddFact("e", fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i))
	}
	stamp := db.Epoch()
	var want []Tuple
	for i := 0; i < 50; i++ {
		x, y := fmt.Sprintf("n%d", i), fmt.Sprintf("m%d", i)
		db.AddFact("e", x, y)
		want = append(want, Tuple{db.Syms.Intern(x), db.Syms.Intern(y)})
	}
	delta, ok := db.Relation("e").DeltaSince(stamp)
	if !ok {
		t.Fatal("sharded DeltaSince fell back")
	}
	got, wantSet := tupleSet(delta.Added), tupleSet(want)
	if len(got) != len(wantSet) {
		t.Fatalf("delta has %d distinct tuples, want %d", len(got), len(wantSet))
	}
	for k := range wantSet {
		if !got[k] {
			t.Fatal("delta is missing an accepted insert")
		}
	}
}

// TestDeltaConcurrentInserts: the -race check for the tail bookkeeping —
// parallel writers insert while a reader repeatedly takes deltas; every
// delta must be a subset of the relation and the final delta from the
// initial stamp must cover everything (tail large enough here).
func TestDeltaConcurrentInserts(t *testing.T) {
	db := NewDatabase()
	db.SetShards(4)
	db.Ensure("e", 2)
	const writers, each = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				db.AddFact("e", fmt.Sprintf("w%d_%d", w, i), "t")
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if delta, ok := db.Relation("e").DeltaSince(0); ok {
				r := db.Relation("e")
				for _, tup := range delta.Added {
					if !r.Contains(tup) {
						t.Error("delta tuple not in relation")
						return
					}
				}
			}
		}
	}()
	wg.Wait()
	<-done
	delta, ok := db.Relation("e").DeltaSince(0)
	if !ok {
		t.Fatal("final DeltaSince fell back (tail should hold all inserts)")
	}
	if len(delta.Added) != writers*each {
		t.Fatalf("final delta has %d tuples, want %d", len(delta.Added), writers*each)
	}
}

// TestReplayEpochEquivalence is the storage-level foundation of the
// replication contract: applying the same insert sequence to two
// databases — regardless of interleaved duplicates or symbol interning
// order differences introduced by re-delivery — yields the same epoch
// and a byte-identical Dump at every prefix. A follower at the
// primary's log position therefore has exactly the primary's epoch and
// state.
func TestReplayEpochEquivalence(t *testing.T) {
	type ins struct {
		pred string
		args []string
	}
	var seq []ins
	for i := 0; i < 40; i++ {
		seq = append(seq, ins{"edge", []string{fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)}})
		if i%3 == 0 {
			seq = append(seq, ins{"label", []string{fmt.Sprintf("n%d", i), "hub"}})
		}
		if i%5 == 0 && i > 0 {
			// Duplicated delivery: a record replayed twice must not
			// advance the epoch the second time.
			seq = append(seq, seq[len(seq)-1])
		}
	}

	a, b := NewDatabase(), NewDatabase()
	// b interns some symbols ahead of time in a different order — the
	// Value assignment may differ, but names and epochs must not.
	b.Syms.Intern("hub")
	b.Syms.Intern("n7")
	for i, s := range seq {
		a.AddFact(s.pred, s.args...)
		b.AddFact(s.pred, s.args...)
		if a.Epoch() != b.Epoch() {
			t.Fatalf("epoch diverged at step %d: %d vs %d", i, a.Epoch(), b.Epoch())
		}
		if i%10 == 0 && a.Dump() != b.Dump() {
			t.Fatalf("dumps diverged at step %d (epoch %d)\na:\n%s\nb:\n%s",
				i, a.Epoch(), a.Dump(), b.Dump())
		}
	}
	if a.Dump() != b.Dump() {
		t.Fatalf("final dumps diverge\na:\n%s\nb:\n%s", a.Dump(), b.Dump())
	}
	// The epoch counts accepted inserts only: duplicates were rejected.
	distinct := make(map[string]bool)
	for _, s := range seq {
		distinct[fmt.Sprint(s.pred, s.args)] = true
	}
	if got := a.Epoch(); got != uint64(len(distinct)) {
		t.Fatalf("epoch %d, want %d accepted inserts", got, len(distinct))
	}

	// Batched ingest: c takes each step's run through one InsertBatch or
	// RetractBatch, d the same run tuple by tuple — the shape of a
	// primary's batched write replayed by a follower one record per
	// fact. The epochs must agree after every step.
	type step struct {
		pred    string
		retract bool
		rows    [][]string
	}
	var steps []step
	for i := 0; i < 12; i++ {
		var edges, labels [][]string
		for j := 0; j < 16; j++ {
			edges = append(edges, []string{fmt.Sprintf("n%d", i*8+j), fmt.Sprintf("n%d", i*8+j+1)})
		}
		// Within-run duplicates collapse exactly as repeated Inserts do.
		edges = append(edges, edges[0], edges[3])
		labels = append(labels, []string{fmt.Sprintf("n%d", i), "hub"}, []string{fmt.Sprintf("n%d", i), "hub"})
		steps = append(steps, step{pred: "edge", rows: edges}, step{pred: "label", rows: labels})
		if i%3 == 2 {
			// Retract a run that mixes present, repeated and absent rows.
			steps = append(steps, step{pred: "edge", retract: true, rows: [][]string{
				{fmt.Sprintf("n%d", i*8), fmt.Sprintf("n%d", i*8+1)},
				{fmt.Sprintf("n%d", i*8+2), fmt.Sprintf("n%d", i*8+3)},
				{fmt.Sprintf("n%d", i*8+2), fmt.Sprintf("n%d", i*8+3)},
				{"absent", "row"},
			}})
		}
	}
	c, d := NewDatabase(), NewDatabase()
	d.Syms.Intern("n5")
	tuplesIn := func(db *Database, rows [][]string) []Tuple {
		out := make([]Tuple, len(rows))
		for i, r := range rows {
			out[i] = make(Tuple, len(r))
			for j, name := range r {
				out[i][j] = db.Syms.Intern(name)
			}
		}
		return out
	}
	for i, st := range steps {
		cr, dr := c.Ensure(st.pred, 2), d.Ensure(st.pred, 2)
		var n, want int
		if st.retract {
			n = cr.RetractBatch(tuplesIn(c, st.rows))
			for _, tup := range tuplesIn(d, st.rows) {
				if dr.Retract(tup) {
					want++
				}
			}
		} else {
			n = cr.InsertBatch(tuplesIn(c, st.rows))
			for _, tup := range tuplesIn(d, st.rows) {
				if dr.Insert(tup) {
					want++
				}
			}
		}
		if n != want {
			t.Fatalf("step %d: batch accepted %d rows, per-tuple %d", i, n, want)
		}
		if c.Epoch() != d.Epoch() {
			t.Fatalf("step %d (%s retract=%v): batched epoch %d, per-tuple epoch %d",
				i, st.pred, st.retract, c.Epoch(), d.Epoch())
		}
		if uint64(c.Mutations()) != c.Epoch() {
			t.Fatalf("step %d: epoch %d, want %d accepted mutations", i, c.Epoch(), c.Mutations())
		}
	}
	if c.Dump() != d.Dump() {
		t.Fatalf("batched and per-tuple dumps diverge\nc:\n%s\nd:\n%s", c.Dump(), d.Dump())
	}
}
