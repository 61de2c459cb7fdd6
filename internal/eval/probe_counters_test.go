package eval

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/storage"
)

// probeCounters is the storage work one evaluation published to its
// database's counters: IndexLookups, TuplesExamined, FullScans, Inserts.
type probeCounters [4]int64

func countersOf(db *storage.Database) probeCounters {
	s := db.Stats.Snapshot()
	return probeCounters{s.IndexLookups, s.TuplesExamined, s.FullScans, s.Inserts}
}

// fourShards copies db's relations into a database with four shards per
// relation, so unrouted lookups probe the same number of shards on any
// machine (the default shard count follows GOMAXPROCS).
func fourShards(db *storage.Database) *storage.Database {
	out := storage.NewDatabase()
	out.SetShards(4)
	preds := db.Preds()
	sort.Strings(preds)
	for _, pred := range preds {
		for _, t := range db.Relation(pred).SortedTuples() {
			names := make([]string, len(t))
			for i, v := range t {
				names[i] = db.Syms.Name(v)
			}
			out.AddFact(pred, names...)
		}
	}
	out.Stats.Reset()
	return out
}

// sgSrc is same-generation: two-sided, so the planner hands it to Magic
// Sets.
const sgSrc = `
	sg(X, Y) :- p(X, W), p(Y, Z), sg(W, Z).
	sg(X, Y) :- sg0(X, Y).
`

// sgTree is a complete binary tree of the given depth under p, named by
// the path from the root n (l and r per level), with sg0 on the root.
func sgTree(depth int) *storage.Database {
	db := storage.NewDatabase()
	var grow func(name string, depth int)
	grow = func(name string, depth int) {
		if depth == 0 {
			return
		}
		for _, c := range []string{"l", "r"} {
			db.AddFact("p", name+c, name)
			grow(name+c, depth-1)
		}
	}
	grow("n", depth)
	db.AddFact("sg0", "n", "n")
	return db
}

// probeRuns evaluates every strategy driver on fixed data and records
// the counters each evaluation left in its database. Fig. 9 runs with 1
// and 4 workers (its claims make the probe count partition-independent);
// the semi-naive-backed strategies run sequential rounds, whose probes
// do not depend on sibling jobs' mid-round inserts.
func probeRuns(t *testing.T) map[string]probeCounters {
	t.Helper()
	// Derived databases take their shard count from GOMAXPROCS, and a
	// semi-naive round's probes see earlier inserts of the same round in
	// shard iteration order: pin it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ctx := context.Background()
	out := make(map[string]probeCounters)
	for _, prog := range driverPrograms() {
		d := mustDef(t, prog.src, prog.pred)
		skel := ast.Skeletonize(parser.MustParseAtom(prog.batch[0]))
		sp, err := CompileSelection(d, skel.Atom)
		if err != nil {
			t.Fatal(err)
		}
		bindOf := func(q string) []ast.Term { return ast.Skeletonize(parser.MustParseAtom(q)).Consts }
		for _, workers := range []int{1, 4} {
			sp.Workers = workers
			plan, err := sp.Bind(bindOf(prog.batch[0]))
			if err != nil {
				t.Fatal(err)
			}
			db := fourShards(prog.db())
			inc, err := plan.Open(ctx, db, nil)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s/fig9/w%d", prog.name, workers)] = countersOf(db)
			if len(prog.inserts) > 0 {
				delta := deltaOf(db, prog.inserts...)
				db.Stats.Reset()
				if err := inc.Update(ctx, db, delta); err != nil {
					t.Fatal(err)
				}
				out[fmt.Sprintf("%s/update/w%d", prog.name, workers)] = countersOf(db)
			}
			for _, k := range []int{1, 4} {
				binds := make([][]ast.Term, k)
				for i := range binds {
					binds[i] = bindOf(prog.batch[i])
				}
				db := fourShards(prog.db())
				if _, _, err := sp.EvalBatchCtx(ctx, db, binds); err != nil {
					t.Fatal(err)
				}
				out[fmt.Sprintf("%s/batch%d/w%d", prog.name, k, workers)] = countersOf(db)
			}
		}
		plan, err := sp.Bind(bindOf(prog.batch[0]))
		if err != nil {
			t.Fatal(err)
		}
		db := fourShards(prog.db())
		if _, _, err := plan.EvalCounting(ctx, db, 100); err != nil {
			t.Fatal(err)
		}
		out[prog.name+"/counting"] = countersOf(db)
	}

	for _, c := range []struct {
		name, src, query string
		db               func() *storage.Database
		retract          [][]string
	}{
		{"tc", tcSrc, "t(v0x0, Y)", func() *storage.Database { return dagDB(6, 40) }, [][]string{{"a", "v0x0", "v1x0"}, {"b", "v5x3", "sink1"}}},
		{"sg", sgSrc, "sg(nll, Y)", func() *storage.Database { return sgTree(4) }, [][]string{{"p", "nrr", "nr"}, {"p", "nlll", "nll"}}},
	} {
		prog := mustProgram(t, c.src)
		q := parser.MustParseAtom(c.query)
		mr, err := MagicTransform(prog, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []struct {
			name  string
			prog  *ast.Program
			watch string
		}{{"magic", mr.Program, mr.AnswerPred}, {"seminaive", prog, q.Pred}} {
			db := fourShards(c.db())
			inc, err := newSelectIncrementalFor(ctx, s.prog, s.watch, q, db, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := inc.open(ctx, nil); err != nil {
				t.Fatal(err)
			}
			out[c.name+"/"+s.name] = countersOf(db)
			del := Delta{Del: make(map[string]*storage.Relation)}
			for _, f := range c.retract {
				tup := make(storage.Tuple, len(f)-1)
				for i, n := range f[1:] {
					tup[i] = db.Syms.Intern(n)
				}
				db.Relation(f[0]).Retract(tup)
				if del.Del[f[0]] == nil {
					del.Del[f[0]] = storage.NewRelation(len(tup), nil)
				}
				del.Del[f[0]].Insert(tup)
			}
			db.Stats.Reset()
			if err := inc.Update(ctx, db, del); err != nil {
				t.Fatal(err)
			}
			out[c.name+"/"+s.name+"-retract"] = countersOf(db)
		}
	}
	return out
}

// TestProbeCounters pins the storage counters — index lookups, tuples
// examined, full scans and inserts — that each evaluation driver
// publishes to its database: the Fig. 9 loop at 1 and 4 workers, its
// maintenance Update, the batch traversal, Counting, and the sequential
// Magic Sets and semi-naive fixpoints with a DRed retraction. Probe
// tallies are kept per scratch and flushed once per chunk or run; this
// table is what keeps every published count exact.
func TestProbeCounters(t *testing.T) {
	got := probeRuns(t)
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var missing []string
	for _, k := range keys {
		w, ok := probeWant[k]
		if !ok {
			missing = append(missing, fmt.Sprintf("%q: {%d, %d, %d, %d},", k, got[k][0], got[k][1], got[k][2], got[k][3]))
			continue
		}
		if got[k] != w {
			t.Errorf("%s: got %v, want %v", k, got[k], w)
		}
	}
	if len(missing) > 0 {
		t.Errorf("no pinned value for:\n%s", strings.Join(missing, "\n"))
	}
	for k := range probeWant {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: pinned but not run", k)
		}
	}
}

// probeWant holds the counters [IndexLookups, TuplesExamined,
// FullScans, Inserts] each driver published per evaluation, recorded
// before probe tallies were batched per chunk.
var probeWant = map[string]probeCounters{
	"anchored/batch1/w1":    {82, 159, 78, 2},
	"anchored/batch1/w4":    {82, 159, 78, 2},
	"anchored/batch4/w1":    {123, 302, 148, 5},
	"anchored/batch4/w4":    {123, 302, 148, 5},
	"anchored/counting":     {882, 1661, 819, 2},
	"anchored/fig9/w1":      {82, 159, 78, 2},
	"anchored/fig9/w4":      {82, 159, 78, 2},
	"example3.4/batch1/w1":  {336, 168, 79, 15},
	"example3.4/batch1/w4":  {336, 168, 79, 15},
	"example3.4/batch4/w1":  {596, 399, 192, 36},
	"example3.4/batch4/w4":  {596, 399, 192, 36},
	"example3.4/counting":   {3688, 1756, 839, 15},
	"example3.4/fig9/w1":    {336, 168, 79, 15},
	"example3.4/fig9/w4":    {336, 168, 79, 15},
	"permissions/batch1/w1": {218, 310, 0, 2},
	"permissions/batch1/w4": {218, 310, 0, 2},
	"permissions/batch4/w1": {467, 806, 0, 7},
	"permissions/batch4/w4": {467, 806, 0, 7},
	"permissions/counting":  {1420, 1929, 0, 2},
	"permissions/fig9/w1":   {218, 310, 0, 2},
	"permissions/fig9/w4":   {218, 310, 0, 2},
	"permissions/update/w1": {28, 31, 0, 1},
	"permissions/update/w4": {28, 31, 0, 1},
	"sg/magic":              {267, 186, 1, 4},
	"sg/magic-retract":      {77, 38, 0, 0},
	"sg/seminaive":          {2044, 511, 1, 4},
	"sg/seminaive-retract":  {594, 370, 0, 0},
	"tc/batch1/w1":          {42, 36, 0, 2},
	"tc/batch1/w4":          {42, 36, 0, 2},
	"tc/batch4/w1":          {73, 62, 0, 7},
	"tc/batch4/w4":          {73, 62, 0, 7},
	"tc/counting":           {42, 36, 0, 2},
	"tc/fig9/w1":            {42, 36, 0, 2},
	"tc/fig9/w4":            {42, 36, 0, 2},
	"tc/magic":              {216, 144, 0, 2},
	"tc/magic-retract":      {130, 89, 0, 0},
	"tc/seminaive":          {1760, 760, 1, 2},
	"tc/seminaive-retract":  {99, 47, 0, 0},
	"tc/update/w1":          {32, 26, 0, 2},
	"tc/update/w4":          {32, 26, 0, 2},
}
