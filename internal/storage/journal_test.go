package storage

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// journaledRun is one run a recordingJournal received.
type journaledRun struct {
	del    bool
	pred   string
	tuples []Tuple
}

// recordingJournal is a fake Journal that keeps a copy of every run.
type recordingJournal struct {
	mu   sync.Mutex
	syms []string
	runs []journaledRun
}

func (j *recordingJournal) JournalSym(name string) {
	j.mu.Lock()
	j.syms = append(j.syms, name)
	j.mu.Unlock()
}

func (j *recordingJournal) JournalFacts(pred string, run []Tuple) { j.record(false, pred, run) }

func (j *recordingJournal) JournalRetracts(pred string, run []Tuple) { j.record(true, pred, run) }

func (j *recordingJournal) record(del bool, pred string, run []Tuple) {
	cp := make([]Tuple, len(run))
	for i, t := range run {
		cp[i] = t.Clone()
	}
	j.mu.Lock()
	j.runs = append(j.runs, journaledRun{del, pred, cp})
	j.mu.Unlock()
}

// take returns and clears the runs recorded so far.
func (j *recordingJournal) take() []journaledRun {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := j.runs
	j.runs = nil
	return out
}

// TestJournalContract pins the run-shaped journal contract: exactly one
// record per accepted mutation, in one run per write holding the
// accepted tuples in input order, and nothing for a duplicate insert or
// an absent retract. A single-tuple write journals one run of length 1.
func TestJournalContract(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := NewDatabase()
			db.SetShards(shards)
			j := &recordingJournal{}
			db.SetJournal(j)
			r := db.Ensure("e", 2)
			var tu [6]Tuple
			for i := range tu {
				tu[i] = Tuple{db.Syms.Intern(fmt.Sprintf("x%d", i)), db.Syms.Intern(fmt.Sprintf("y%d", i%2))}
			}
			if len(j.syms) != 8 {
				t.Fatalf("journaled %d symbols, want 8", len(j.syms))
			}
			ins := func(ts ...Tuple) journaledRun { return journaledRun{false, "e", ts} }
			del := func(ts ...Tuple) journaledRun { return journaledRun{true, "e", ts} }
			steps := []struct {
				name   string
				write  func() int
				want   int
				record []journaledRun
			}{
				{"Insert", func() int { return b2i(r.Insert(tu[0])) }, 1, []journaledRun{ins(tu[0])}},
				{"Insert/dup", func() int { return b2i(r.Insert(tu[0])) }, 0, nil},
				{"Offer", func() int { return b2i(r.Offer(tu[1])) }, 1, []journaledRun{ins(tu[1])}},
				{"Offer/dup", func() int { return b2i(r.Offer(tu[1])) }, 0, nil},
				{"InsertBatch", func() int { return r.InsertBatch([]Tuple{tu[2], tu[3], tu[2], tu[0], tu[4]}) }, 3,
					[]journaledRun{ins(tu[2], tu[3], tu[4])}},
				{"InsertBatch/dups", func() int { return r.InsertBatch([]Tuple{tu[1], tu[1]}) }, 0, nil},
				{"Retract", func() int { return b2i(r.Retract(tu[0])) }, 1, []journaledRun{del(tu[0])}},
				{"Retract/absent", func() int { return b2i(r.Retract(tu[0])) }, 0, nil},
				{"RetractBatch", func() int { return r.RetractBatch([]Tuple{tu[3], tu[5], tu[1], tu[3]}) }, 2,
					[]journaledRun{del(tu[3], tu[1])}},
				{"RetractBatch/absent", func() int { return r.RetractBatch([]Tuple{tu[5], tu[0]}) }, 0, nil},
			}
			records := 0
			for _, s := range steps {
				if got := s.write(); got != s.want {
					t.Fatalf("%s accepted %d, want %d", s.name, got, s.want)
				}
				if got := j.take(); !reflect.DeepEqual(got, s.record) {
					t.Fatalf("%s journaled %v, want %v", s.name, got, s.record)
				}
				for _, run := range s.record {
					records += len(run.tuples)
				}
			}
			if got := db.Mutations(); got != int64(records) {
				t.Fatalf("%d accepted mutations, %d journaled records", got, records)
			}
		})
	}
}

func b2i(ok bool) int {
	if ok {
		return 1
	}
	return 0
}

// TestWriteHotPathAllocs pins the evaluator's hot write path at zero
// allocations per call (block, table and tail growth amortize below
// one): Insert, Offer of a duplicate, Retract, and an Intern hit, on an
// untracked relation and on a tracked one.
func TestWriteHotPathAllocs(t *testing.T) {
	const runs = 1000
	rels := map[string]func() *Relation{
		"untracked": func() *Relation { return NewRelation(2, nil) },
		"tracked":   func() *Relation { return NewDatabase().Ensure("e", 2) },
	}
	for name, mk := range rels {
		t.Run(name, func(t *testing.T) {
			r := mk()
			tuples := make([]Tuple, runs+1)
			for i := range tuples {
				tuples[i] = Tuple{Value(i), Value(i % 7)}
			}
			i := 0
			if a := testing.AllocsPerRun(runs, func() { r.Insert(tuples[i]); i++ }); a != 0 {
				t.Errorf("Insert: %v allocs/op", a)
			}
			i = 0
			if a := testing.AllocsPerRun(runs, func() { r.Offer(tuples[i]); i++ }); a != 0 {
				t.Errorf("Offer of a duplicate: %v allocs/op", a)
			}
			i = 0
			if a := testing.AllocsPerRun(runs, func() { r.Retract(tuples[i]); i++ }); a != 0 {
				t.Errorf("Retract: %v allocs/op", a)
			}
		})
	}
	syms := NewSymbolTable()
	syms.Intern("hot")
	if a := testing.AllocsPerRun(runs, func() { syms.Intern("hot") }); a != 0 {
		t.Errorf("Intern hit: %v allocs/op", a)
	}
}

// BenchmarkLayer/storage/* measures the storage layer on a tracked
// relation with the database's default sharding. Writes: a single-tuple
// Insert of a fresh tuple, a 1024-tuple InsertBatch, an Offer of a
// duplicate (the evaluator's seen-set probe), and a single-tuple
// Retract; relations are rebuilt off the clock so op cost does not
// drift with size. Reads, through the evaluator's probe path (LookupBuf
// with a caller buffer and tally): a posting-list lookup bound on the
// shard column, 16 matches per key, and a full scan of 64Ki tuples,
// reported per tuple. Reproduce with:
//
//	go test -run '^$' -bench 'BenchmarkLayer' ./internal/storage
func BenchmarkLayer(b *testing.B) {
	const span = 1 << 16 // fresh tuples per relation before a rebuild
	fresh := func(i int, t Tuple) Tuple {
		t[0], t[1] = Value(i%span), Value(i%span>>8)
		return t
	}
	b.Run("storage/insert", func(b *testing.B) {
		b.ReportAllocs()
		var r *Relation
		t := make(Tuple, 2)
		for i := 0; i < b.N; i++ {
			if i%span == 0 {
				b.StopTimer()
				r = NewDatabase().Ensure("e", 2)
				b.StartTimer()
			}
			r.Insert(fresh(i, t))
		}
	})
	b.Run("storage/insert-batch=1024", func(b *testing.B) {
		const batch = 1024
		tuples := make([]Tuple, batch)
		for k := range tuples {
			tuples[k] = make(Tuple, 2)
		}
		b.ReportAllocs()
		var r *Relation
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			base := i * batch % span
			if base == 0 {
				r = NewDatabase().Ensure("e", 2)
			}
			for k, t := range tuples {
				fresh(base+k, t)
			}
			b.StartTimer()
			r.InsertBatch(tuples)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/tuple")
	})
	b.Run("storage/offer-dup", func(b *testing.B) {
		r := NewDatabase().Ensure("e", 2)
		tuples := make([]Tuple, 1024)
		for k := range tuples {
			tuples[k] = fresh(k, make(Tuple, 2))
			r.Insert(tuples[k])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Offer(tuples[i%len(tuples)])
		}
	})
	read := NewDatabase().Ensure("e", 2)
	for k := 0; k < span; k++ {
		read.Insert(Tuple{Value(k % 4096), Value(k)})
	}
	b.Run("storage/lookup", func(b *testing.B) {
		buf := make(Tuple, 2)
		bind := []Binding{{Col: 0}}
		var tally Tally
		matched := 0
		count := func(Tuple) bool { matched++; return true }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bind[0].Val = Value(i % 4096)
			read.LookupBuf(bind, buf, &tally, count)
		}
		b.StopTimer()
		read.Flush(&tally)
		if matched != 16*b.N {
			b.Fatalf("matched %d tuples, want %d", matched, 16*b.N)
		}
	})
	b.Run("storage/scan", func(b *testing.B) {
		buf := make(Tuple, 2)
		var tally Tally
		seen := 0
		count := func(Tuple) bool { seen++; return true }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read.LookupBuf(nil, buf, &tally, count)
		}
		b.StopTimer()
		read.Flush(&tally)
		if seen != span*b.N {
			b.Fatalf("scanned %d tuples, want %d", seen, span*b.N)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*span), "ns/tuple")
	})
	b.Run("storage/retract", func(b *testing.B) {
		b.ReportAllocs()
		var r *Relation
		t := make(Tuple, 2)
		for i := 0; i < b.N; i++ {
			if i%span == 0 {
				b.StopTimer()
				r = NewDatabase().Ensure("e", 2)
				for k := 0; k < span; k++ {
					r.Insert(fresh(k, t))
				}
				b.StartTimer()
			}
			r.Retract(fresh(i, t))
		}
	})
}
