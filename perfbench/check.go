package main

import (
	"fmt"
	"sort"
	"strings"

	onesided "repro"
	"repro/internal/storage"
)

// An oracle answers queries from a bottom-up materialization of the
// workload's initial facts, computed in a database of its own — never
// by the strategies under test. Programs over the long chains use
// semi-naive evaluation: naive evaluation there re-derives the whole
// relation in each of ~n rounds, O(n^2) in chain length. Every other
// program uses the naive strategy.
type oracle struct {
	db      *storage.Database
	idb     map[string]*storage.Database // head predicate → its derived relations
	all     map[string][][]string        // predicate → its rows, by name
	byFirst map[string]map[string][][]string
}

// chainPreds are evaluated semi-naively (see oracle).
var chainPreds = map[string]bool{"dn_t": true, "t": true}

func newOracle(in *inputs) (*oracle, error) {
	db := storage.NewDatabase()
	for _, f := range in.Facts {
		db.AddFact(f.Pred, f.Args...)
	}
	prog, err := onesided.ParseProgram(strings.Join(in.Rules, "\n"))
	if err != nil {
		return nil, err
	}
	o := &oracle{db: db, idb: make(map[string]*storage.Database),
		all: make(map[string][][]string), byFirst: make(map[string]map[string][][]string)}
	byHead := make(map[string]*onesided.Program)
	var heads []string
	for _, r := range prog.Rules {
		h := r.Head.Pred
		if byHead[h] == nil {
			byHead[h] = &onesided.Program{}
			heads = append(heads, h)
		}
		byHead[h].Rules = append(byHead[h].Rules, r)
	}
	for _, h := range heads {
		var res *onesided.EvalResult
		if chainPreds[h] {
			res, err = onesided.SemiNaive(byHead[h], db)
		} else {
			res, err = onesided.Naive(byHead[h], db)
		}
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", h, err)
		}
		o.idb[h] = res.IDB
	}
	return o, nil
}

// answers returns the sorted answer rows of a query, each row joined
// with commas.
func (o *oracle) answers(q string) ([]string, error) {
	atom, err := onesided.ParseQuery(q)
	if err != nil {
		return nil, err
	}
	rows, err := o.rows(atom.Pred)
	if err != nil {
		return nil, err
	}
	if a := atom.Args[0]; !a.IsVar() {
		rows = o.byFirst[atom.Pred][a.Name]
	}
	var out []string
	for _, row := range rows {
		ok := true
		for i, a := range atom.Args {
			if !a.IsVar() && a.Name != row[i] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, strings.Join(row, ","))
		}
	}
	sort.Strings(out)
	return out, nil
}

// rows lists a derived predicate's tuples by name, indexing them on
// their first column on first use.
func (o *oracle) rows(pred string) ([][]string, error) {
	if rows, ok := o.all[pred]; ok {
		return rows, nil
	}
	idb := o.idb[pred]
	if idb == nil {
		return nil, fmt.Errorf("oracle: no rules for %s", pred)
	}
	var rows [][]string
	byFirst := make(map[string][][]string)
	if rel := idb.Relation(pred); rel != nil {
		for _, t := range rel.Tuples() {
			row := make([]string, len(t))
			for i, v := range t {
				row[i] = o.db.Syms.Name(v)
			}
			rows = append(rows, row)
			byFirst[row[0]] = append(byFirst[row[0]], row)
		}
	}
	o.all[pred], o.byFirst[pred] = rows, byFirst
	return rows, nil
}

// rowKeys renders answer rows as sorted comma-joined strings.
func rowKeys(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, ",")
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hasRow reports whether rows contains want.
func hasRow(rows [][]string, want []string) bool {
	for _, r := range rows {
		if equalStrings(r, want) {
			return true
		}
	}
	return false
}

// factSet is the model of the net acknowledged fact set.
type factSet map[string]bool

func newFactSet(fs []fact) factSet {
	s := make(factSet, len(fs))
	for _, f := range fs {
		s[f.key()] = true
	}
	return s
}

// apply folds an acknowledged batch into the model.
func (s factSet) apply(b *batch) {
	for _, f := range b.Facts {
		if b.Retract {
			delete(s, f.key())
		} else {
			s[f.key()] = true
		}
	}
}

// dbFacts lists every fact a database holds, in the model's rendering.
func dbFacts(db *storage.Database) factSet {
	s := make(factSet)
	for _, pred := range db.Preds() {
		for _, t := range db.Relation(pred).Tuples() {
			args := make([]string, len(t))
			for i, v := range t {
				args[i] = db.Syms.Name(v)
			}
			s[fact{pred, args}.key()] = true
		}
	}
	return s
}

// diff describes how got differs from want (empty when equal).
func (s factSet) diff(got factSet) string {
	var missing, extra []string
	for k := range s {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	for k := range got {
		if !s[k] {
			extra = append(extra, k)
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		return ""
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return fmt.Sprintf("%d missing (first %v), %d unexpected (first %v)",
		len(missing), head(missing), len(extra), head(extra))
}

func head(xs []string) []string { return xs[:min(len(xs), 3)] }
