package onesided

import (
	"context"
	"errors"
	"sort"

	"repro/internal/parser"
	"repro/internal/storage"
)

// ErrSubscriptionLimit is returned by Subscribe when the engine already
// serves the quota's MaxSubscriptions standing queries.
var ErrSubscriptionLimit = errors.New("onesided: subscription limit exceeded")

// SubEvent is one batch of answer-set changes pushed to a subscriber:
// the rows that entered the subscribed query's answers and the rows
// that left them, as of Epoch. The first event of a subscription
// carries the full initial answer set in Add. Batches between pushes
// coalesce — a subscriber that observes every event and applies
// Remove-then-Add always holds exactly the query's current answers.
type SubEvent struct {
	Epoch  uint64     `json:"epoch"`
	Add    [][]string `json:"add,omitempty"`
	Remove [][]string `json:"remove,omitempty"`
}

// Subscription is a standing maintained query: the engine re-derives
// the query's answers whenever the database changes — through the
// bound-result cache, so maintainable plans absorb the signed delta
// instead of re-evaluating — and pushes the difference as SubEvents.
// Events delivers them; the channel closes on Close, on context
// cancellation, or on an evaluation error (check Err after the close).
type Subscription struct {
	query  string
	ch     chan SubEvent
	done   chan struct{}
	cancel context.CancelFunc
	err    error // written by the pump goroutine before it closes ch
}

// Events returns the subscription's event stream. The channel is
// unbuffered: a subscriber that stops reading exerts backpressure (the
// engine coalesces further changes into the next batch) rather than
// accumulating memory.
func (s *Subscription) Events() <-chan SubEvent { return s.ch }

// Query returns the subscribed query text.
func (s *Subscription) Query() string { return s.query }

// Close tears the subscription down and waits for its pump goroutine
// to exit. Safe to call more than once and concurrently with Events
// consumption; a blocked push is abandoned, never leaked.
func (s *Subscription) Close() {
	s.cancel()
	<-s.done
}

// Err reports why the stream ended: nil for a clean teardown (Close or
// context cancellation), the evaluation error otherwise. Valid once
// Events is closed.
func (s *Subscription) Err() error { return s.err }

// push delivers one event, abandoning the send when the subscription
// is torn down mid-push (the disconnecting client stops reading).
func (s *Subscription) push(ctx context.Context, ev SubEvent) bool {
	select {
	case s.ch <- ev:
		return true
	case <-ctx.Done():
		return false
	}
}

// Subscribe opens a standing maintained query over the engine: the
// query is planned and evaluated once up front (errors surface here,
// not on the stream), the full current answer set is pushed as the
// first event's Add, and from then on every database change — inserts
// and retractions alike — is re-derived and pushed as a signed
// {Add, Remove} batch stamped with the database epoch it brought the
// answers current to. Maintainable plans serve each tick from their
// retained fixpoint via the signed delta; others re-evaluate.
//
// The subscription lives until ctx is canceled or Close is called;
// both tear the pump goroutine down promptly even when it is blocked
// pushing to a reader that went away. The engine quota's
// MaxSubscriptions caps concurrently open subscriptions (admission
// control, like MaxFacts: concurrent subscribers may overshoot by
// their own in-flight calls).
func (e *Engine) Subscribe(ctx context.Context, query string) (*Subscription, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if m := e.quota.MaxSubscriptions; m > 0 && e.subs.Load() >= int64(m) {
		return nil, ErrSubscriptionLimit
	}
	q, err := parser.ParseAtom(query)
	if err != nil {
		return nil, err
	}
	pq, err := e.Prepare(nil, q)
	if err != nil {
		return nil, err
	}
	// Register the watch before the initial evaluation: a mutation
	// landing between the two leaves a pending notification, so the
	// first loop tick re-derives rather than missing it.
	watch, stopWatch := e.db.Watch()
	rows, err := pq.Query(ctx)
	if err != nil {
		stopWatch()
		return nil, err
	}
	e.subs.Add(1)
	sctx, cancel := context.WithCancel(ctx)
	sub := &Subscription{
		query:  query,
		ch:     make(chan SubEvent),
		done:   make(chan struct{}),
		cancel: cancel,
	}
	prev, initial := answerSnapshot(rows.rel)
	epoch := e.db.Epoch()
	go func() {
		defer close(sub.done)
		defer close(sub.ch)
		defer stopWatch()
		defer cancel()
		defer e.subs.Add(-1)
		if !sub.push(sctx, SubEvent{Epoch: epoch, Add: renderRows(initial, e.db.Syms)}) {
			return
		}
		for {
			select {
			case <-sctx.Done():
				return
			case <-watch:
			}
			// Re-derive: the result cache serves this from the retained
			// fixpoint (mode "updated") when the plan is maintainable.
			rows, qerr := pq.Query(sctx)
			if qerr != nil {
				if sctx.Err() == nil {
					sub.err = qerr
				}
				return
			}
			cur, tuples := answerSnapshot(rows.rel)
			at := e.db.Epoch()
			add, remove := diffAnswers(prev, cur, tuples, e.db.Syms)
			prev = cur
			if len(add) == 0 && len(remove) == 0 {
				continue // the change didn't touch this query's answers
			}
			if !sub.push(sctx, SubEvent{Epoch: at, Add: add, Remove: remove}) {
				return
			}
		}
	}()
	return sub, nil
}

// Subscriptions reports the engine's currently open subscription count.
func (e *Engine) Subscriptions() int64 { return e.subs.Load() }

// answerSnapshot copies a result relation's tuples into a relation of
// their own for diffing, returning it with the copied tuples. The copy
// is essential: a maintained entry's relation is updated in place by
// later deltas, so diffing against the live object would compare a set
// with itself.
func answerSnapshot(rel *storage.Relation) (*storage.Relation, []storage.Tuple) {
	tuples := rel.Tuples()
	snap := storage.NewRelation(rel.Arity(), nil)
	snap.InsertBatch(tuples)
	return snap, tuples
}

// diffAnswers computes the signed difference between two answer
// snapshots on their interned tuples — curTuples are cur's — and
// renders only the rows that changed, each side sorted for
// deterministic delivery.
func diffAnswers(prev, cur *storage.Relation, curTuples []storage.Tuple, syms *storage.SymbolTable) (add, remove [][]string) {
	var added, removed []storage.Tuple
	for _, t := range curTuples {
		if !prev.Contains(t) {
			added = append(added, t)
		}
	}
	for _, t := range prev.Tuples() {
		if !cur.Contains(t) {
			removed = append(removed, t)
		}
	}
	return renderRows(added, syms), renderRows(removed, syms)
}

// renderRows names the tuples' values, sorted row by row; nil when
// there are none.
func renderRows(tuples []storage.Tuple, syms *storage.SymbolTable) [][]string {
	if len(tuples) == 0 {
		return nil
	}
	rows := make([][]string, len(tuples))
	for i, t := range tuples {
		row := make([]string, len(t))
		for j, v := range t {
			row[j] = syms.Name(v)
		}
		rows[i] = row
	}
	sortRows(rows)
	return rows
}

func sortRows(rows [][]string) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}
