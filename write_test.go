package onesided

import (
	"errors"
	"strings"
	"testing"
)

// TestArityMismatchRejectsWrite pins the write path's answer to a fact
// of the wrong arity: an error naming the predicate and both arities,
// no panic, and nothing stored — whether the conflict is with an
// existing relation or between facts of a new predicate in one batch.
func TestArityMismatchRejectsWrite(t *testing.T) {
	cases := []struct {
		name  string
		write func(*Engine) (int, error)
		want  string // substring of the error naming predicate and arities ("" for no error)
	}{
		{"InsertFacts/existing", func(e *Engine) (int, error) {
			return e.InsertFacts([]Fact{{"b", []string{"x", "y"}}, {"a", []string{"x"}}})
		}, "relation a has arity 2, requested 1"},
		{"InsertFacts/new-mixed", func(e *Engine) (int, error) {
			return e.InsertFacts([]Fact{{"c", []string{"x"}}, {"b", []string{"y", "z"}}, {"c", []string{"x", "y"}}})
		}, "relation c has arity 1, requested 2"},
		{"InsertFacts/new-run", func(e *Engine) (int, error) {
			return e.InsertFacts([]Fact{{"c", []string{"x"}}, {"c", []string{"y", "z", "w"}}})
		}, "relation c has arity 1, requested 3"},
		{"InsertFact", func(e *Engine) (int, error) {
			ok, err := e.InsertFact("a", "x", "y", "z")
			return boolCount(ok), err
		}, "relation a has arity 2, requested 3"},
		{"AddFact", func(e *Engine) (int, error) {
			return boolCount(e.AddFact("a", "x")), nil
		}, ""}, // AddFact flattens the rejection to false
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := Open()
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			eng.AddFact("a", "p", "q")
			before, syms := eng.DB().TupleCount(), eng.DB().Syms.Len()
			n, err := tc.write(eng)
			if n != 0 || (err == nil) != (tc.want == "") || (err != nil && !strings.Contains(err.Error(), tc.want)) {
				t.Fatalf("got (%d, %v), want (0, error containing %q)", n, err, tc.want)
			}
			if got := eng.DB().TupleCount(); got != before {
				t.Fatalf("TupleCount %d after rejected write, want %d", got, before)
			}
			if got := eng.DB().Syms.Len(); got != syms {
				t.Fatalf("%d symbols after rejected write, want %d (nothing interned)", got, syms)
			}
		})
	}
}

// TestWritesAfterLogFailureAreNotDurable pins that no write entry point
// acks a write the log failed to journal: once the log is closed (its
// sticky error set), each returns ErrNotDurable wrapping that error.
func TestWritesAfterLogFailureAreNotDurable(t *testing.T) {
	cases := []struct {
		name  string
		write func(*Engine) error
	}{
		{"InsertFacts", func(e *Engine) error {
			_, err := e.InsertFacts([]Fact{{"a", []string{"x", "y"}}, {"a", []string{"y", "z"}}})
			return err
		}},
		{"InsertFact", func(e *Engine) error { _, err := e.InsertFact("a", "x", "y"); return err }},
		{"RetractFacts", func(e *Engine) error {
			_, err := e.RetractFacts([]Fact{{"a", []string{"p", "q"}}})
			return err
		}},
		{"Retract", func(e *Engine) error { _, err := e.Retract("a", "p", "q"); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := Open(WithPersistence(t.TempDir()), WithSyncPolicy(SyncAlways))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if _, err := eng.InsertFact("a", "p", "q"); err != nil {
				t.Fatalf("write on a healthy log: %v", err)
			}
			if err := eng.Log().Close(); err != nil {
				t.Fatal(err)
			}
			err = tc.write(eng)
			if !errors.Is(err, ErrNotDurable) {
				t.Fatalf("write after log close returned %v, want ErrNotDurable", err)
			}
			if lerr := eng.Log().Err(); lerr == nil || !errors.Is(err, lerr) {
				t.Fatalf("error %v does not wrap the log's sticky error %v", err, lerr)
			}
		})
	}
}

func boolCount(ok bool) int {
	if ok {
		return 1
	}
	return 0
}
