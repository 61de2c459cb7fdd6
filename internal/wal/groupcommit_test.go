package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

// TestGroupCommitAckDurability is the crash-injection contract of group
// commit: an append that returned under SyncAlways was covered by an
// fsync, so a crash at ANY later moment must recover it. Concurrent
// writers insert facts and record each acknowledgment; meanwhile the
// log directory is snapshotted mid-run (a snapshot is a crash image —
// in-flight appends may leave a torn tail). Recovery of every snapshot
// must contain every fact acknowledged before that snapshot was taken.
func TestGroupCommitAckDurability(t *testing.T) {
	master := t.TempDir()
	db, l, _, _ := openJournaled(t, master, SyncAlways)
	const writers = 8
	const perWriter = 60

	var mu sync.Mutex
	var acked [][2]string
	type snap struct {
		dir string
		n   int // len(acked) at (or before) the copy
	}
	var snaps []snap

	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for len(snaps) < 5 {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			mu.Lock()
			n := len(acked)
			mu.Unlock()
			if n == 0 {
				continue
			}
			snaps = append(snaps, snap{copyDir(t, master), n})
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				a, b := fmt.Sprintf("w%d", w), fmt.Sprintf("i%d", i)
				if !db.AddFact("gc", a, b) {
					t.Errorf("insert gc(%s, %s) rejected", a, b)
					return
				}
				mu.Lock()
				acked = append(acked, [2]string{a, b})
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	// A final snapshot taken after every ack, before a clean Close: the
	// fsync-before-ack guarantee must not depend on Close's flush.
	snaps = append(snaps, snap{copyDir(t, master), len(acked)})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	for _, s := range snaps {
		rec := storage.NewDatabase()
		replay, _, _ := dbReplay(rec)
		l2, err := Open(s.dir, SyncBatch, replay)
		if err != nil {
			t.Fatalf("recovering snapshot with %d acked facts: %v", s.n, err)
		}
		l2.Close()
		for _, f := range acked[:s.n] {
			// AddFact returns true only when the tuple was absent.
			if rec.AddFact("gc", f[0], f[1]) {
				t.Fatalf("gc(%s, %s) was acknowledged before the snapshot (%d acked) but missing after recovery",
					f[0], f[1], s.n)
			}
		}
	}
}

// TestRecoveryTornBatchTail extends the torn-tail sweep to a batched
// journal run: an InsertBatch writes its records as one buffer, and a
// crash mid-run must recover exactly the intact record prefix — never
// a later record without an earlier one, never a panic — and leave the
// repaired log appendable.
func TestRecoveryTornBatchTail(t *testing.T) {
	master := t.TempDir()
	db, l, _, _ := openJournaled(t, master, SyncBatch)
	const n = 10
	// Intern every constant first so the segment's tail is purely the
	// batched fact run.
	tuples := make([]storage.Tuple, n)
	for i := range tuples {
		tuples[i] = storage.Tuple{
			db.Syms.Intern(fmt.Sprintf("l%d", i)),
			db.Syms.Intern(fmt.Sprintf("r%d", i)),
		}
	}
	if got := db.Ensure("e", 2).InsertBatch(tuples); got != n {
		t.Fatalf("InsertBatch inserted %d, want %d", got, n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := activeSegmentPath(t, master)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	// Index record boundaries; the fact records are the batch run, in
	// input order.
	type recSpan struct {
		start, end int
		fact       bool
	}
	var spans []recSpan
	rest, off := data[segHeaderSize:], segHeaderSize
	for len(rest) > 0 {
		payload, r2, ok := nextRecord(rest)
		if !ok {
			t.Fatalf("invalid record at offset %d of a cleanly closed segment", off)
		}
		consumed := len(rest) - len(r2)
		spans = append(spans, recSpan{off, off + consumed, payload[0] == recFact})
		off += consumed
		rest = r2
	}
	var facts []recSpan
	for _, s := range spans {
		if s.fact {
			facts = append(facts, s)
		}
	}
	if len(facts) != n {
		t.Fatalf("segment holds %d fact records, want %d", len(facts), n)
	}

	checkCut := func(cut, wantFacts int) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec := storage.NewDatabase()
		replay, _, _ := dbReplay(rec)
		l2, err := Open(dir, SyncBatch, replay)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		got := 0
		if r := rec.Relation("e"); r != nil {
			got = r.Len()
		}
		if got != wantFacts {
			t.Fatalf("cut %d: recovered %d facts, want %d", cut, got, wantFacts)
		}
		for j := 0; j < wantFacts; j++ {
			if rec.AddFact("e", fmt.Sprintf("l%d", j), fmt.Sprintf("r%d", j)) {
				t.Fatalf("cut %d: prefix fact e(l%d, r%d) missing", cut, j, j)
			}
		}
		// The repaired log must keep accepting appends.
		rec.SetJournal(l2)
		if !rec.AddFact("e", "post", "crash") {
			t.Fatalf("cut %d: repaired log rejected an insert", cut)
		}
		if err := l2.Close(); err != nil {
			t.Fatalf("cut %d: close after repair: %v", cut, err)
		}
	}
	for k, f := range facts {
		// Cuts at the record boundary and inside the header and payload
		// all truncate record k and everything after it.
		checkCut(f.start, k)
		checkCut(f.start+1, k)
		checkCut(f.start+recordHeaderSize, k)
		checkCut(f.end-1, k)
	}
	checkCut(len(data), n)
}

// TestCommitStatsGrouping pins the stats accounting: sequential
// SyncAlways appends each drive their own group (and fsync), while a
// batched run commits as one group covering the whole batch.
func TestCommitStatsGrouping(t *testing.T) {
	dir := t.TempDir()
	db, l, _, _ := openJournaled(t, dir, SyncAlways)
	for i := 0; i < 20; i++ {
		db.AddFact("s", fmt.Sprintf("v%d", i))
	}
	cs := l.CommitStats()
	if cs.Groups != 20 || cs.GroupRecords != 20 || cs.MaxGroup != 1 {
		t.Fatalf("sequential appends: %+v", cs)
	}
	if cs.Fsyncs != cs.Groups {
		t.Fatalf("fsyncs %d != groups %d", cs.Fsyncs, cs.Groups)
	}

	tuples := make([]storage.Tuple, 30)
	for i := range tuples {
		tuples[i] = storage.Tuple{db.Syms.Intern(fmt.Sprintf("b%d", i))}
	}
	if got := db.Relation("s").InsertBatch(tuples); got != 30 {
		t.Fatalf("InsertBatch inserted %d, want 30", got)
	}
	cs = l.CommitStats()
	if cs.Groups != 21 || cs.GroupRecords != 50 || cs.MaxGroup != 30 || cs.LastGroup != 30 {
		t.Fatalf("after batched run: %+v", cs)
	}
	if cs.Records != 100 { // 50 sym records + 50 fact records
		t.Fatalf("records %d, want 100", cs.Records)
	}
	if cs.Fsyncs != cs.Groups {
		t.Fatalf("fsyncs %d != groups %d", cs.Fsyncs, cs.Groups)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitWindowGroupsConcurrentWriters exercises the tunable commit
// window: with a wait window open, concurrent per-fact writers must
// share commit groups (and therefore fsyncs) rather than each driving
// their own.
func TestCommitWindowGroupsConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	db, l, _, _ := openJournaled(t, dir, SyncAlways)
	l.SetCommitWindow(10*time.Millisecond, 0)
	const writers = 4
	const perWriter = 20
	// Pre-intern so the measured appends are purely fact records.
	for w := 0; w < writers; w++ {
		db.Syms.Intern(fmt.Sprintf("w%d", w))
	}
	for i := 0; i < perWriter; i++ {
		db.Syms.Intern(fmt.Sprintf("i%d", i))
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				db.AddFact("e", fmt.Sprintf("w%d", w), fmt.Sprintf("i%d", i))
			}
		}(w)
	}
	wg.Wait()
	cs := l.CommitStats()
	if cs.GroupRecords != writers*perWriter {
		t.Fatalf("group records %d, want %d (stats: %+v)", cs.GroupRecords, writers*perWriter, cs)
	}
	if cs.MaxGroup < 2 {
		t.Errorf("commit window open with %d concurrent writers but no group formed: %+v", writers, cs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalRunRoundTrip verifies the journaled runs replay
// to the same state as the batch produced: inserts then retracts through
// the batch path, close, recover, byte-identical dump.
func TestJournalRunRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, l, _, _ := openJournaled(t, dir, SyncBatch)
	e := db.Ensure("e", 2)
	tuples := make([]storage.Tuple, 20)
	for i := range tuples {
		tuples[i] = storage.Tuple{
			db.Syms.Intern(fmt.Sprintf("x%d", i)),
			db.Syms.Intern(fmt.Sprintf("y%d", i%4)),
		}
	}
	if got := e.InsertBatch(tuples); got != 20 {
		t.Fatalf("InsertBatch inserted %d, want 20", got)
	}
	if got := e.RetractBatch(tuples[5:10]); got != 5 {
		t.Fatalf("RetractBatch removed %d, want 5", got)
	}
	want := db.Dump()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	db2, l2, _, _ := openJournaled(t, dir, SyncBatch)
	defer l2.Close()
	if got := db2.Dump(); got != want {
		t.Fatalf("recovered dump differs:\n got: %q\nwant: %q", got, want)
	}
}
