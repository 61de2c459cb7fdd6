package onesided

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/multi"
)

// openScript is a scripted write sequence for one example program: one
// fact inserted into each base predicate the example's generators
// produce, then the smallest live fact of each of those predicates
// retracted.
type openScript struct {
	insert, retract []Fact
}

// scriptFor builds an example's deterministic script from its insert
// generators and the database's live facts.
func scriptFor(t *testing.T, name string, db *Database) openScript {
	t.Helper()
	gens, ok := incInsertSpecs()[name]
	if !ok {
		t.Fatalf("no insert specs for example %s", name)
	}
	rng := rand.New(rand.NewSource(int64(len(name))))
	var s openScript
	live := snapshotLive(db)
	for _, g := range gens {
		s.insert = append(s.insert, Fact{Pred: g.pred, Args: g.args(rng, 0)})
		var smallest []string
		for _, f := range live.facts {
			if f.pred == g.pred && (smallest == nil || strings.Join(f.args, ",") < strings.Join(smallest, ",")) {
				smallest = f.args
			}
		}
		if smallest != nil {
			s.retract = append(s.retract, Fact{Pred: g.pred, Args: smallest})
		}
	}
	return s
}

// naiveOracle answers query by naive materialization of prog over db
// followed by selection on the query's constants.
func naiveOracle(t *testing.T, prog *Program, query Atom, db *Database) []string {
	t.Helper()
	res, err := Naive(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	rel := res.IDB.Relation(query.Pred)
	if rel == nil {
		return out
	}
	for _, tup := range rel.Tuples() {
		row := make([]string, len(tup))
		match := true
		for i, v := range tup {
			row[i] = db.Syms.Name(v)
			if a := query.Args[i]; a.IsConst() && a.Name != row[i] {
				match = false
			}
		}
		if match {
			out = append(out, strings.Join(row, ","))
		}
	}
	sort.Strings(out)
	return out
}

// openStrategies lists every registered strategy; each Open in the test
// below is checked against the naive oracle wherever Prepare accepts.
func openStrategies() []eval.Strategy {
	return []eval.Strategy{
		eval.OneSided(), multi.Strategy(), eval.Magic(), eval.SemiNaiveStrategy(),
		eval.NaiveStrategy(), eval.Counting(0), eval.EDBLookup(),
	}
}

// TestOpenMatchesNaiveAcrossExamples is the single-entry-point table
// test. Over the five example programs it runs a scripted insert,
// re-query, retract, re-query sequence and checks, after every step:
//
//   - every strategy that accepts the query opens into answers equal
//     to the naive oracle, and the state opened before the writes,
//     maintained through Update (or re-opened when Update asks for a
//     rebuild), agrees too;
//   - the engine's result cache serves the step through the expected
//     path (result-cache=hit, updated or rebuilt) — the same sequence
//     as before Open replaced the per-mode entry points, for every plan
//     that was maintainable then; appendixa's multi-rule plan, which
//     used to rebuild, is now maintained.
func TestOpenMatchesNaiveAcrossExamples(t *testing.T) {
	ctx := context.Background()
	wantModes := map[string][]string{
		"quickstart":    {"rebuilt", "hit", "updated", "rebuilt"},
		"quickstart-fb": {"rebuilt", "hit", "updated", "updated"},
		"flights":       {"rebuilt", "hit", "updated", "rebuilt"},
		"genealogy":     {"rebuilt", "hit", "updated", "updated"},
		"marketbasket":  {"rebuilt", "hit", "updated", "rebuilt"},
		"appendixa":     {"rebuilt", "hit", "updated", "updated"},
	}
	for _, exm := range bindExamples() {
		t.Run(exm.name, func(t *testing.T) {
			eng := exm.open(t)
			db := eng.DB()
			prog := eng.Program()
			ground := mustAtom(t, fmt.Sprintf(exm.shape, exm.consts[0]))
			script := scriptFor(t, exm.name, db)

			// The states opened before any write, one per accepting
			// strategy, maintained across the script.
			type opened struct {
				name string
				ps   eval.PreparedStrategy
				inc  eval.Incremental
			}
			var states []opened
			for _, s := range openStrategies() {
				ps, err := s.Prepare(prog, eval.AdornQuery(ground))
				if err != nil {
					continue
				}
				states = append(states, opened{name: s.Name(), ps: ps})
			}
			if len(states) < 3 {
				t.Fatalf("only %d strategies accept %v", len(states), ground)
			}

			var modes []string
			stamp := db.Epoch()
			check := func(step string) {
				t.Helper()
				rows, err := eng.QueryAtom(ctx, ground)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				modes = append(modes, rows.Explain().ResultCache)
				want := naiveOracle(t, prog, ground, db)
				if got := rows.Strings(); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: engine answers %v, naive %v", step, got, want)
				}
				delta, ok := eng.collectDelta(stamp)
				if !ok {
					t.Fatalf("%s: delta tail evicted", step)
				}
				stamp = db.Epoch()
				for i := range states {
					st := &states[i]
					fresh, err := st.ps.Open(ctx, db, nil)
					if err != nil {
						if st.name == eval.StrategyCounting {
							continue // diverges on cyclic context graphs by design
						}
						t.Fatalf("%s: %s Open: %v", step, st.name, err)
					}
					if got := Answers(fresh.Answers(), db); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: %s Open answers %v, naive %v", step, st.name, got, want)
					}
					if st.inc == nil {
						st.inc = fresh
					} else if err := st.inc.Update(ctx, db, delta); errors.Is(err, eval.ErrRebuild) {
						st.inc = fresh // a poisoned state is discarded, as the result cache does
					} else if err != nil {
						t.Fatalf("%s: %s Update: %v", step, st.name, err)
					}
					if got := Answers(st.inc.Answers(), db); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: %s maintained answers %v, naive %v", step, st.name, got, want)
					}
				}
			}

			check("initial")
			check("re-query")
			if _, err := eng.InsertFacts(script.insert); err != nil {
				t.Fatal(err)
			}
			check("after insert")
			if _, err := eng.RetractFacts(script.retract); err != nil {
				t.Fatal(err)
			}
			check("after retract")
			if want := wantModes[exm.name]; fmt.Sprint(modes) != fmt.Sprint(want) {
				t.Fatalf("result-cache modes %v, want %v", modes, want)
			}
		})
	}
}
