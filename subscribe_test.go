package onesided

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/storage"
)

// applyEvent folds one SubEvent into a row set (Remove then Add).
func applyEvent(set map[string]bool, ev SubEvent) {
	for _, row := range ev.Remove {
		delete(set, strings.Join(row, ","))
	}
	for _, row := range ev.Add {
		set[strings.Join(row, ",")] = true
	}
}

// recvEvent reads one event with a timeout so a wedged pump fails the
// test instead of hanging it.
func recvEvent(t *testing.T, sub *Subscription) SubEvent {
	t.Helper()
	select {
	case ev, ok := <-sub.Events():
		if !ok {
			t.Fatalf("subscription closed early: %v", sub.Err())
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("no subscription event within 5s")
	}
	panic("unreachable")
}

// TestSubscribeSignedEvents drives a standing query through inserts and
// retractions: every mutation that changes the answers must arrive as a
// signed {Add, Remove} batch, and folding the batches in order must
// reproduce exactly the scratch-recomputed answer set at each step.
func TestSubscribeSignedEvents(t *testing.T) {
	eng := openQuickstart(t)
	prog := eng.Program()
	ctx := context.Background()
	sub, err := eng.Subscribe(ctx, "t(paris, Y)")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	set := make(map[string]bool)
	init := recvEvent(t, sub)
	if len(init.Remove) != 0 {
		t.Fatalf("initial event carries removals: %+v", init)
	}
	applyEvent(set, init)

	check := func(stepName string) {
		t.Helper()
		oracle, _, err := eval.SelectEval(prog, mustAtom(t, "t(paris, Y)"), eng.DB())
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[string]bool)
		for _, s := range Answers(oracle, eng.DB()) {
			want[s] = true
		}
		if len(set) != len(want) {
			t.Fatalf("%s: folded set %v != scratch %v", stepName, set, want)
		}
		for k := range want {
			if !set[k] {
				t.Fatalf("%s: folded set missing %s (have %v)", stepName, k, set)
			}
		}
	}
	check("initial")

	lastEpoch := init.Epoch
	mutate := func(name string, fn func()) {
		t.Helper()
		fn()
		ev := recvEvent(t, sub)
		if ev.Epoch <= lastEpoch {
			t.Fatalf("%s: event epoch %d did not advance past %d", name, ev.Epoch, lastEpoch)
		}
		lastEpoch = ev.Epoch
		applyEvent(set, ev)
		check(name)
	}

	mutate("insert b(marseille,aix)", func() { eng.AddFact("b", "marseille", "aix") })
	mutate("retract b(toulon,nice)", func() {
		if removed, err := eng.Retract("b", "toulon", "nice"); err != nil || !removed {
			t.Fatalf("retract: removed=%v err=%v", removed, err)
		}
	})
	mutate("retract a(lyon,marseille)", func() {
		if removed, err := eng.Retract("a", "lyon", "marseille"); err != nil || !removed {
			t.Fatalf("retract: removed=%v err=%v", removed, err)
		}
	})
	mutate("reinsert a(lyon,marseille)", func() { eng.AddFact("a", "lyon", "marseille") })
}

// TestSubscribeQuota: the engine quota's MaxSubscriptions is admission
// control on Subscribe, and closing a subscription frees its slot.
func TestSubscribeQuota(t *testing.T) {
	eng := openQuickstart(t, WithQuota(Quota{MaxSubscriptions: 2}))
	ctx := context.Background()
	s1, err := eng.Subscribe(ctx, "t(paris, Y)")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := eng.Subscribe(ctx, "t(lyon, Y)")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := eng.Subscribe(ctx, "t(marseille, Y)"); !errors.Is(err, ErrSubscriptionLimit) {
		t.Fatalf("third subscribe = %v, want ErrSubscriptionLimit", err)
	}
	if got := eng.Subscriptions(); got != 2 {
		t.Fatalf("open subscriptions = %d, want 2", got)
	}
	s1.Close()
	if got := eng.Subscriptions(); got != 1 {
		t.Fatalf("after close, open subscriptions = %d, want 1", got)
	}
	s3, err := eng.Subscribe(ctx, "t(marseille, Y)")
	if err != nil {
		t.Fatalf("subscribe after freeing a slot: %v", err)
	}
	s3.Close()
}

// waitGoroutines polls until the goroutine count settles back to at
// most want.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines stuck at %d, want <= %d\n%s", runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubscribeCloseMidPushNoLeak is the teardown regression the ISSUE
// demands: a subscriber that stops reading while the pump is blocked
// pushing an event — the disconnecting client — must not leak the pump
// goroutine. Close must cut the blocked send and return. Run with -race.
func TestSubscribeCloseMidPushNoLeak(t *testing.T) {
	eng := openQuickstart(t)
	baseline := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		sub, err := eng.Subscribe(context.Background(), "t(paris, Y)")
		if err != nil {
			t.Fatal(err)
		}
		recvEvent(t, sub) // initial snapshot
		// Mutate so the pump re-derives and blocks pushing the event —
		// nobody is reading.
		eng.AddFact("b", "lyon", fmt.Sprintf("push%d", round))
		time.Sleep(10 * time.Millisecond) // let the pump reach the blocked send
		sub.Close()
	}
	waitGoroutines(t, baseline)

	// Context cancellation tears down the same way.
	ctx, cancel := context.WithCancel(context.Background())
	sub, err := eng.Subscribe(ctx, "t(lyon, Y)")
	if err != nil {
		t.Fatal(err)
	}
	recvEvent(t, sub)
	eng.AddFact("b", "lyon", "cancelpush")
	time.Sleep(10 * time.Millisecond)
	cancel()
	waitGoroutines(t, baseline)
	if sub.Err() != nil {
		t.Fatalf("canceled subscription reports error %v, want nil (clean teardown)", sub.Err())
	}
}

// TestSubscribeCoalesces: mutations landing while the subscriber is
// slow arrive as one combined batch, and a mutation that does not touch
// the query's answers produces no event at all.
func TestSubscribeCoalesces(t *testing.T) {
	eng := openQuickstart(t)
	sub, err := eng.Subscribe(context.Background(), "t(paris, Y)")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	set := make(map[string]bool)
	applyEvent(set, recvEvent(t, sub))

	// Two answer-changing mutations before the subscriber reads: they
	// may arrive as one batch or two, but folding must converge.
	eng.AddFact("b", "lyon", "one")
	eng.AddFact("b", "lyon", "two")
	applyEvent(set, recvEvent(t, sub))
	deadline := time.Now().Add(5 * time.Second)
	for !set["paris,one"] || !set["paris,two"] {
		if time.Now().After(deadline) {
			t.Fatalf("batches never delivered both inserts: %v", set)
		}
		select {
		case ev := <-sub.Events():
			applyEvent(set, ev)
		case <-time.After(50 * time.Millisecond):
		}
	}

	// An unrelated insert must not produce an event.
	eng.AddFact("unrelated", "x", "y")
	select {
	case ev, ok := <-sub.Events():
		if ok {
			t.Fatalf("unrelated insert produced event %+v", ev)
		}
		t.Fatalf("subscription closed: %v", sub.Err())
	case <-time.After(100 * time.Millisecond):
	}
}

// TestDiffAnswersRendersChangedRowsSorted: the pump diffs interned
// snapshots and renders only the rows that changed, each side sorted by
// the rows' string form — not by interned value order, which here runs
// the other way (q is interned before p, b before a).
func TestDiffAnswersRendersChangedRowsSorted(t *testing.T) {
	syms := storage.NewSymbolTable()
	tup := func(names ...string) storage.Tuple {
		out := make(storage.Tuple, len(names))
		for i, n := range names {
			out[i] = syms.Intern(n)
		}
		return out
	}
	live := storage.NewRelation(2, nil)
	live.InsertBatch([]storage.Tuple{tup("q", "z"), tup("q", "y"), tup("q", "keep")})
	prev, _ := answerSnapshot(live)
	live.RetractBatch([]storage.Tuple{tup("q", "z"), tup("q", "y")})
	live.InsertBatch([]storage.Tuple{tup("q", "b"), tup("q", "a"), tup("p", "c")})
	cur, tuples := answerSnapshot(live)
	add, remove := diffAnswers(prev, cur, tuples, syms)
	if got, want := fmt.Sprint(add), "[[p c] [q a] [q b]]"; got != want {
		t.Errorf("add = %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(remove), "[[q y] [q z]]"; got != want {
		t.Errorf("remove = %s, want %s", got, want)
	}
	if add, remove := diffAnswers(cur, cur, tuples, syms); add != nil || remove != nil {
		t.Errorf("self-diff = %v, %v, want none", add, remove)
	}
}
