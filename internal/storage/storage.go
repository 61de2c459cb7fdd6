package storage

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/quote"
)

// Journal receives every accepted mutation of a journaled database as
// signed runs, in happens-before order: a symbol's JournalSym call
// completes before any run referencing its Value (interning invokes the
// hook under the symbol table's lock). Each accepted mutation appears in
// exactly one run, exactly once — duplicate inserts and absent retracts
// are filtered by the relation's set semantics before the hook fires —
// and a run holds one predicate's tuples in acceptance order. A
// single-tuple write is a run of length one. The run and its tuples are
// only valid for the duration of the call: implementations must encode
// or copy them before returning, and must be safe for concurrent use.
// The write-ahead log in internal/wal is the canonical one; it frames a
// run as one buffered append covered by one policy sync.
type Journal interface {
	// JournalSym records that name was interned as the next dense Value.
	JournalSym(name string)
	// JournalFacts records a run of accepted inserts into pred.
	JournalFacts(pred string, run []Tuple)
	// JournalRetracts records a run of accepted retractions from pred.
	JournalRetracts(pred string, run []Tuple)
}

// Value is an interned constant symbol.
type Value int32

// Tuple is a fixed-arity row of interned values.
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// HashTuple returns a 32-bit hash of the tuple's values: word-at-a-time
// FNV-1a with a final multiply-shift mix (interned Values are dense
// small ints, so the plain FNV low bits would collide on consecutive
// rows). It is the hash the shard dedup tables store, exported so other
// layers can build tuple-keyed open-addressing tables without string
// keys.
func HashTuple(t Tuple) uint32 {
	h := uint32(2166136261)
	for _, v := range t {
		h = (h ^ uint32(v)) * 16777619
	}
	h ^= h >> 15
	h *= 2654435761
	h ^= h >> 13
	return h
}

// SymbolTable interns constant names as dense Values. It is safe for
// concurrent use.
type SymbolTable struct {
	mu    sync.RWMutex
	names []string
	ids   map[string]Value
	// onIntern, when set, observes every fresh intern under mu (the
	// write-ahead log's ordering hook). Set via SetInternHook.
	onIntern func(name string)
}

// NewSymbolTable creates an empty symbol table.
func NewSymbolTable() *SymbolTable {
	return &SymbolTable{ids: make(map[string]Value)}
}

// Intern returns the Value for name, assigning a fresh one on first use:
// InternBatch over a one-name run.
func (st *SymbolTable) Intern(name string) Value {
	var v [1]Value
	st.InternBatch([]string{name}, v[:])
	return v[0]
}

// InternBatch interns every name into dst (which must have the same
// length as names), taking the read lock once for the whole run and
// escalating to the write lock only when some name is fresh. Fresh
// names are assigned Values, and reported to the intern hook, in run
// order.
func (st *SymbolTable) InternBatch(names []string, dst []Value) {
	st.mu.RLock()
	hit := true
	for i, n := range names {
		v, ok := st.ids[n]
		if !ok {
			hit = false
			break
		}
		dst[i] = v
	}
	st.mu.RUnlock()
	if hit {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, n := range names {
		v, ok := st.ids[n]
		if !ok {
			v = Value(len(st.names))
			st.names = append(st.names, n)
			st.ids[n] = v
			if st.onIntern != nil {
				st.onIntern(n)
			}
		}
		dst[i] = v
	}
}

// SetInternHook installs (or clears, with nil) the fresh-intern observer.
// The hook runs with the table's write lock held, so its calls are
// ordered exactly like the interns themselves; it must not call back into
// the table.
func (st *SymbolTable) SetInternHook(hook func(name string)) {
	st.mu.Lock()
	st.onIntern = hook
	st.mu.Unlock()
}

// Names returns a copy of the interned names in Value order (Value(i) is
// names[i]) — the symbol-table section of a snapshot.
func (st *SymbolTable) Names() []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]string, len(st.names))
	copy(out, st.names)
	return out
}

// Lookup returns the Value for name without interning.
func (st *SymbolTable) Lookup(name string) (Value, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	v, ok := st.ids[name]
	return v, ok
}

// Name returns the constant name for a Value.
func (st *SymbolTable) Name(v Value) string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if int(v) < 0 || int(v) >= len(st.names) {
		return fmt.Sprintf("#%d", v)
	}
	return st.names[v]
}

// Len returns the number of interned symbols.
func (st *SymbolTable) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.names)
}

// Counters instruments relation access. TuplesExamined counts tuples
// touched by lookups and scans; IndexLookups counts index probes — one
// per shard a Lookup actually probes, so a lookup that cannot be routed
// by a ShardColumn binding and fans out over an n-shard relation counts
// n probes, not 1; FullScans counts scans with no bound column (the
// unrestricted lookups Property 3 forbids); Inserts counts accepted
// tuple insertions (a proxy for state size); Retracts counts accepted
// tuple retractions.
//
// All updates are atomic, so Counters may be shared across goroutines.
// Probe counts arrive in batches: Lookup and Scan publish theirs when
// they return, and evaluator loops probing through LookupBuf publish a
// Tally once per run of probes. Direct field reads are fine when the
// database is quiesced (the usual measure-after-evaluating pattern); use
// Snapshot while writers may still be running.
//
// Alignment: the fields are operated on with 64-bit atomics, so a
// Counters must be 64-bit aligned — heap-allocated (any value whose
// address escapes, as every value passed to NewRelation does) or placed
// first in its enclosing struct, as in Database.
type Counters struct {
	TuplesExamined int64
	IndexLookups   int64
	FullScans      int64
	Inserts        int64
	Retracts       int64
}

// Reset zeroes the counters.
func (c *Counters) Reset() {
	atomic.StoreInt64(&c.TuplesExamined, 0)
	atomic.StoreInt64(&c.IndexLookups, 0)
	atomic.StoreInt64(&c.FullScans, 0)
	atomic.StoreInt64(&c.Inserts, 0)
	atomic.StoreInt64(&c.Retracts, 0)
}

// Snapshot returns an atomically read copy of the counters.
func (c *Counters) Snapshot() Counters {
	return Counters{
		TuplesExamined: atomic.LoadInt64(&c.TuplesExamined),
		IndexLookups:   atomic.LoadInt64(&c.IndexLookups),
		FullScans:      atomic.LoadInt64(&c.FullScans),
		Inserts:        atomic.LoadInt64(&c.Inserts),
		Retracts:       atomic.LoadInt64(&c.Retracts),
	}
}

// Sub returns c - other, field by field (for per-query deltas).
func (c Counters) Sub(other Counters) Counters {
	return Counters{
		TuplesExamined: c.TuplesExamined - other.TuplesExamined,
		IndexLookups:   c.IndexLookups - other.IndexLookups,
		FullScans:      c.FullScans - other.FullScans,
		Inserts:        c.Inserts - other.Inserts,
		Retracts:       c.Retracts - other.Retracts,
	}
}

// Tally is a single-goroutine count of the probe work one run of
// lookups and scans did: the Counters fields they feed, kept with plain
// adds. A probe loop passes its tally to LookupBuf on every probe and
// publishes it with Relation.Flush once per run, so concurrent queries
// stop bouncing the shared counters' cache lines on every probe while
// the published totals stay exact.
type Tally struct {
	TuplesExamined int64
	IndexLookups   int64
	FullScans      int64
}

// Flush adds t to the relation's counters, when it has any, and zeroes
// t. A nil relation (an absent predicate) publishes nothing.
func (r *Relation) Flush(t *Tally) {
	if r != nil && r.stats != nil {
		if t.TuplesExamined != 0 {
			atomic.AddInt64(&r.stats.TuplesExamined, t.TuplesExamined)
		}
		if t.IndexLookups != 0 {
			atomic.AddInt64(&r.stats.IndexLookups, t.IndexLookups)
		}
		if t.FullScans != 0 {
			atomic.AddInt64(&r.stats.FullScans, t.FullScans)
		}
	}
	*t = Tally{}
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	atomic.AddInt64(&c.TuplesExamined, other.TuplesExamined)
	atomic.AddInt64(&c.IndexLookups, other.IndexLookups)
	atomic.AddInt64(&c.FullScans, other.FullScans)
	atomic.AddInt64(&c.Inserts, other.Inserts)
	atomic.AddInt64(&c.Retracts, other.Retracts)
}

// deltaTailBound caps the per-shard delta tail: the number of recent
// mutations a shard remembers for DeltaSince. When the tail overflows,
// the oldest half is evicted and the shard's floor advances — DeltaSince
// calls asking for history below the floor report a full fallback.
const deltaTailBound = 1024

// tailEntry records one accepted mutation for delta tracking: the
// tuple's row id in the shard, the database epoch it was stamped with,
// and the sign (del marks a retraction). Epochs are non-decreasing in
// append order (the stamp is read under the shard lock from a monotone
// counter), so DeltaSince can binary-search. Retraction entries keep
// referencing the tombstoned row — rows never move, so the dead row's
// column values remain readable for delta reconstruction.
type tailEntry struct {
	row   int
	epoch uint64
	del   bool
}

// Arena-block geometry: rows are stored in fixed-size blocks of
// blockRows rows each, one flat []Value slab per block holding every
// column. Within a block the layout is column-major — column c of row r
// lives at blocks[r>>blockShift][c<<blockShift | r&blockMask] — so each
// column is a contiguous run and a whole block is a single allocation
// covering arity*blockRows values (no per-tuple slice headers).
const (
	blockShift = 10
	blockRows  = 1 << blockShift
	blockMask  = blockRows - 1
)

// slotDead marks a dedup slot whose row was retracted: probes skip it
// and keep walking (the chain must not break), inserts may reuse it.
const slotDead = -1

// deadWords is the tombstone-bitset words per block (one bit per row).
const deadWords = blockRows / 64

// shard is one independently-locked partition of a Relation: a columnar
// tuple store with an open-addressing dedup table over row ids and
// lazily built per-column posting-list indexes. Tuple identity is the
// dense row id; rows are append-only and blocks are never moved, which
// is what makes lock-free snapshot iteration sound (see view).
// Retraction never moves rows either: it sets the row's bit in the
// per-block tombstone bitset (readers check it with atomic loads) and
// frees the dedup slot.
type shard struct {
	mu sync.RWMutex
	// blocks are the arena slabs (see the block geometry constants).
	blocks [][]Value
	rows   int
	// dead[b] is block b's tombstone bitset (deadWords uint64 words,
	// allocated with the block). Bits are set with atomic stores under
	// the write lock and read with atomic loads, possibly lock-free off a
	// captured view; a set bit never clears (re-inserting a retracted
	// tuple appends a fresh row). deadCnt counts set bits.
	dead    [][]uint64
	deadCnt int
	// Dedup table: open addressing with linear probing. slots holds
	// row+1 (0 = empty, slotDead = retracted); hashes holds each occupied
	// slot's full tuple hash, so growth rehashes from stored hashes
	// without re-reading columns and a probe compares columns only on a
	// full hash match. used counts non-empty slots (occupied + dead) —
	// the load-factor input, since dead slots still lengthen probes.
	slots  []int32
	hashes []uint32
	used   int
	// cols[i] maps a value to the row ids holding it in column i (nil
	// until built). Posting lists may reference tombstoned rows; lookups
	// filter them lazily, and the whole index set is dropped for a
	// from-live-rows rebuild when the shard passes half dead (the
	// tombstone compaction rule).
	cols []map[Value][]int32
	// tail is the bounded recent-mutation log for DeltaSince (tracked
	// relations only); tailFloor is the lowest epoch the tail still covers
	// completely.
	tail      []tailEntry
	tailFloor uint64
}

// valueAt reads one column of one row. The caller must hold the shard
// lock or be reading a row captured by a view.
func (sh *shard) valueAt(row, col int) Value {
	return sh.blocks[row>>blockShift][col<<blockShift|row&blockMask]
}

// rowEqual reports whether the stored row equals t.
func (sh *shard) rowEqual(row int, t Tuple) bool {
	blk := sh.blocks[row>>blockShift]
	off := row & blockMask
	for c, v := range t {
		if blk[c<<blockShift|off] != v {
			return false
		}
	}
	return true
}

// findLocked probes the dedup table for t (hash h), returning its row id
// or -1. Dead slots are skipped but do not end the probe chain. Caller
// holds the shard lock (read or write).
func (sh *shard) findLocked(t Tuple, h uint32) int {
	if len(sh.slots) == 0 {
		return -1
	}
	mask := uint32(len(sh.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := sh.slots[i]
		if s == 0 {
			return -1
		}
		if s != slotDead && sh.hashes[i] == h && sh.rowEqual(int(s-1), t) {
			return int(s - 1)
		}
	}
}

// growTableLocked (re)builds the dedup table at the next power-of-two
// capacity, rehashing occupied slots from their stored hashes. Dead
// slots are dropped, which is what reclaims probe-chain length after
// retraction churn.
func (sh *shard) growTableLocked() {
	newCap := 2 * len(sh.slots)
	if newCap < 16 {
		newCap = 16
	}
	sh.rebuildTableLocked(newCap)
}

// reserveLocked grows the dedup table once to fit extra more entries
// below the 3/4 load threshold, replacing the doubling-rehash cascade a
// large batch would otherwise trigger. Caller holds the write lock.
func (sh *shard) reserveLocked(extra int) {
	need := sh.used + extra
	newCap := len(sh.slots)
	if newCap < 16 {
		newCap = 16
	}
	for 4*need > 3*newCap {
		newCap *= 2
	}
	if newCap != len(sh.slots) {
		sh.rebuildTableLocked(newCap)
	}
}

func (sh *shard) rebuildTableLocked(newCap int) {
	slots := make([]int32, newCap)
	hashes := make([]uint32, newCap)
	mask := uint32(newCap - 1)
	used := 0
	for i, s := range sh.slots {
		if s == 0 || s == slotDead {
			continue
		}
		h := sh.hashes[i]
		j := h & mask
		for slots[j] != 0 {
			j = (j + 1) & mask
		}
		slots[j], hashes[j] = s, h
		used++
	}
	sh.slots, sh.hashes, sh.used = slots, hashes, used
}

// containsHash reports whether t (hash h) is present and live. Caller
// holds the shard lock in either mode; the probe reads only slot, hash,
// and block state, all of which mutate under the write lock.
func (sh *shard) containsHash(t Tuple, h uint32) bool {
	if len(sh.slots) == 0 {
		return false
	}
	mask := uint32(len(sh.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := sh.slots[i]
		if s == 0 {
			return false
		}
		if s != slotDead && sh.hashes[i] == h && sh.rowEqual(int(s-1), t) {
			return true
		}
	}
}

// insertLocked adds t (hash h) unless present, returning the row id and
// whether the row is new. Caller holds the write lock.
func (sh *shard) insertLocked(t Tuple, h uint32, arity int) (int, bool) {
	// Grow at 3/4 load (counting dead slots, which probes still walk)
	// so chains stay short.
	if 4*(sh.used+1) > 3*len(sh.slots) {
		sh.growTableLocked()
	}
	mask := uint32(len(sh.slots) - 1)
	reuse := -1
	for i := h & mask; ; i = (i + 1) & mask {
		s := sh.slots[i]
		if s == slotDead {
			if reuse < 0 {
				reuse = int(i)
			}
			continue
		}
		if s == 0 {
			row := sh.rows
			if row&blockMask == 0 {
				sh.blocks = append(sh.blocks, make([]Value, arity<<blockShift))
				sh.dead = append(sh.dead, make([]uint64, deadWords))
			}
			blk := sh.blocks[row>>blockShift]
			off := row & blockMask
			for c, v := range t {
				blk[c<<blockShift|off] = v
			}
			sh.rows = row + 1
			slot := uint32(i)
			if reuse >= 0 {
				slot = uint32(reuse) // reclaim a dead slot on the probe path
			} else {
				sh.used++
			}
			sh.slots[slot] = int32(row + 1)
			sh.hashes[slot] = h
			return row, true
		}
		if sh.hashes[i] == h && sh.rowEqual(int(s-1), t) {
			return int(s - 1), false
		}
	}
}

// retractLocked tombstones t (hash h) if live, returning its row id or
// -1 when absent. The dedup slot is marked dead (so the tuple can be
// re-inserted as a fresh row) and the row's tombstone bit set. Caller
// holds the write lock.
func (sh *shard) retractLocked(t Tuple, h uint32) int {
	if len(sh.slots) == 0 {
		return -1
	}
	mask := uint32(len(sh.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := sh.slots[i]
		if s == 0 {
			return -1
		}
		if s != slotDead && sh.hashes[i] == h && sh.rowEqual(int(s-1), t) {
			row := int(s - 1)
			sh.slots[i] = slotDead
			w := &sh.dead[row>>blockShift][(row&blockMask)>>6]
			atomic.StoreUint64(w, atomic.LoadUint64(w)|1<<(uint(row)&63))
			sh.deadCnt++
			// Tombstone compaction: past half dead, drop the posting
			// lists so the next lookup rebuilds them from live rows only.
			if 2*sh.deadCnt > sh.rows {
				for c := range sh.cols {
					sh.cols[c] = nil
				}
			}
			return row
		}
	}
}

// isDeadLocked reports whether row is tombstoned. Caller holds the shard
// lock (read or write).
func (sh *shard) isDeadLocked(row int) bool {
	return atomic.LoadUint64(&sh.dead[row>>blockShift][(row&blockMask)>>6])>>(uint(row)&63)&1 == 1
}

// shardView is a snapshot of a shard's rows, capturable in O(1): the
// block list and the row count at capture time. Blocks are append-only
// and rows are fully written before the row count (read under the lock)
// covers them, so reading rows < v.rows off a view races with nothing —
// concurrent inserts touch only elements the view never reads.
//
// dead is the tombstone bitset list, captured only when the shard had
// tombstones at capture time (nil otherwise, keeping the insert-only
// fast path free of per-row checks). Tombstone bits are read with
// atomic loads and set concurrently by writers, so a view may observe a
// retraction that happened after capture: iteration yields rows live at
// some instant during the scan rather than a frozen cut. The epoch/delta
// protocol absorbs the skew — any mutation a reader misses or
// half-observes carries a stamp the next DeltaSince reconstructs.
type shardView struct {
	blocks [][]Value
	dead   [][]uint64
	rows   int
}

// view captures a snapshot of the shard.
func (sh *shard) view() shardView {
	sh.mu.RLock()
	v := shardView{blocks: sh.blocks[:len(sh.blocks):len(sh.blocks)], rows: sh.rows}
	if sh.deadCnt > 0 {
		v.dead = sh.dead[:len(sh.dead):len(sh.dead)]
	}
	sh.mu.RUnlock()
	return v
}

// isDead reports whether row is tombstoned (always false for views
// captured from shards with no tombstones).
func (v shardView) isDead(row int) bool {
	if v.dead == nil {
		return false
	}
	return atomic.LoadUint64(&v.dead[row>>blockShift][(row&blockMask)>>6])>>(uint(row)&63)&1 == 1
}

// read copies row's columns into dst (len(dst) = arity).
func (v shardView) read(row int, dst Tuple) {
	blk := v.blocks[row>>blockShift]
	off := row & blockMask
	for c := range dst {
		dst[c] = blk[c<<blockShift|off]
	}
}

// ShardColumn is the column whose value routes a tuple to its shard. The
// Fig. 9 loop probes the join column of the recursive rule's EDB atoms,
// which for the canonical left-linear shapes is the first column, so
// hashing column 0 lets a probe bound on it touch exactly one shard while
// keeping concurrent inserts spread across all of them.
const ShardColumn = 0

// Relation is a set of tuples of fixed arity, hash-sharded on ShardColumn
// into independently-locked partitions. Each shard stores its tuples
// columnar in arena blocks with an open-addressing dedup table and
// lazily built per-column posting-list indexes — inserts and membership
// probes allocate nothing on the steady state. The zero value is not
// usable; construct with NewRelation (one shard) or NewShardedRelation.
// Methods are safe for concurrent use; with n shards, n concurrent
// writers make progress independently as long as their tuples hash to
// different partitions. See the package comment for the snapshot
// semantics of iteration.
type Relation struct {
	arity int
	stats *Counters
	count atomic.Int64
	// name is the predicate this relation serves inside a Database ("" for
	// free-standing relations such as answer sets); journal, when non-nil,
	// receives every accepted mutation run. The pointer indirection lets a
	// journal attach while readers are in flight (Database.SetJournal).
	name    string
	journal atomic.Pointer[Journal]
	// db, when non-nil, is the tracked database this relation belongs to:
	// mutations are stamped with its epoch counter, recorded in the shard
	// delta tails, and reflected in its modification watermark. Derived
	// and free-standing relations (answer sets, seen-sets, semi-naive IDB
	// databases) leave it nil and pay no tracking overhead.
	db *Database
	// lastMod is the epoch stamp of the newest accepted mutation (0 when
	// the relation is untracked or empty).
	lastMod atomic.Uint64
	// tombs counts tombstoned rows across shards; retracts counts
	// accepted retractions since creation (never reset — the WAL's
	// differential-checkpoint decision compares it against the manifest,
	// since "unchanged count" no longer implies "identical set" once a
	// relation has seen removals).
	tombs    atomic.Int64
	retracts atomic.Int64
	// shardShift turns the 32-bit hash of the routing value into a shard
	// index: idx = hash >> shardShift. len(shards) is a power of two.
	shardShift uint32
	shards     []shard
}

// NewRelation creates an empty single-shard relation of the given arity,
// reporting instrumentation to stats (which may be nil). Single-shard
// relations have no routing overhead; use NewShardedRelation for
// relations written by concurrent workers.
func NewRelation(arity int, stats *Counters) *Relation {
	return NewShardedRelation(arity, stats, 1)
}

// NewShardedRelation creates an empty relation partitioned into nshards
// independently-locked shards (rounded up to a power of two; values < 1,
// and any value for arity-0 relations, mean one shard).
func NewShardedRelation(arity int, stats *Counters, nshards int) *Relation {
	n := 1
	if arity > 0 {
		for n < nshards {
			n <<= 1
		}
	}
	r := &Relation{
		arity:      arity,
		stats:      stats,
		shardShift: 32 - log2(n),
		shards:     make([]shard, n),
	}
	for i := range r.shards {
		r.shards[i].cols = make([]map[Value][]int32, arity)
	}
	return r
}

// log2 returns the exponent of a power of two.
func log2(n int) uint32 {
	var e uint32
	for n > 1 {
		n >>= 1
		e++
	}
	return e
}

// shardIndex routes a value of ShardColumn to a shard ordinal via a
// multiplicative (Fibonacci) hash: interned Values are dense small
// integers, so the multiply spreads consecutive values across shards.
func (r *Relation) shardIndex(v Value) int {
	return int((uint32(v) * 2654435761) >> r.shardShift)
}

// shardFor returns the shard holding tuples with t's routing value.
func (r *Relation) shardFor(t Tuple) *shard {
	if len(r.shards) == 1 {
		return &r.shards[0]
	}
	return &r.shards[r.shardIndex(t[ShardColumn])]
}

// Arity returns the relation's arity.
func (r *Relation) Arity() int { return r.arity }

// Shards returns the number of partitions.
func (r *Relation) Shards() int { return len(r.shards) }

// Len returns the number of live tuples.
func (r *Relation) Len() int { return int(r.count.Load()) }

// Retracts returns the number of retractions the relation has accepted
// since creation (monotone; it never decreases).
func (r *Relation) Retracts() int64 { return r.retracts.Load() }

// Insert adds a tuple (copied into the shard's column blocks), returning
// true when it was not already present: InsertBatch over a one-tuple
// run. Only the tuple's shard is locked, so inserts from parallel
// workers serialize only on hash collisions; the steady-state path
// allocates nothing (block and table growth amortize). On a tracked
// relation (one created by a Database) the accepted insert is stamped
// with the database's current epoch, appended to the shard's delta
// tail, and the epoch counter is advanced — the bookkeeping DeltaSince
// and the engine's result cache run on.
func (r *Relation) Insert(t Tuple) bool { return r.InsertBatch([]Tuple{t}) == 1 }

// Offer is Insert tuned for duplicate-heavy concurrent callers — the
// evaluator's answer and seen sets, where most offered tuples are
// already present. A read-locked probe rejects duplicates without
// touching the shard's write lock, so parallel workers re-offering
// known tuples don't serialize; only first sightings fall through to
// Insert (which re-checks under the write lock, keeping the claim
// exactly-once under races). Fresh-heavy callers should use Insert
// directly: the extra probe is pure overhead there.
func (r *Relation) Offer(t Tuple) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("storage: offering arity-%d tuple to arity-%d relation", len(t), r.arity))
	}
	h := HashTuple(t)
	sh := r.shardFor(t)
	sh.mu.RLock()
	dup := sh.containsHash(t, h)
	sh.mu.RUnlock()
	if dup {
		return false
	}
	return r.Insert(t)
}

// Retract removes a tuple, returning true when it was present:
// RetractBatch over a one-tuple run. The row is tombstoned in place —
// blocks never move, so lock-free views stay sound — its dedup slot is
// freed (a later Insert of the same tuple appends a fresh row), and
// posting lists filter the dead row lazily until the shard's compaction
// threshold drops them for a rebuild. On a tracked relation the
// accepted retraction is stamped with the database's current epoch,
// appended to the shard's delta tail as a signed (negative) entry, and
// advances the epoch counter, exactly like an insert: Database.Epoch
// stays monotone, and DeltaSince reports the tuple on the Removed side.
func (r *Relation) Retract(t Tuple) bool { return r.RetractBatch([]Tuple{t}) == 1 }

// tailAppendLocked records one mutation in the shard's delta tail. Past
// the bound the oldest half is evicted and the floor rises past the
// newest evicted stamp, so incomplete coverage is never served. Caller
// holds the write lock.
func (sh *shard) tailAppendLocked(e tailEntry) {
	sh.tail = append(sh.tail, e)
	if len(sh.tail) > deltaTailBound {
		drop := len(sh.tail) / 2
		sh.tailFloor = sh.tail[drop-1].epoch + 1
		sh.tail = append(sh.tail[:0], sh.tail[drop:]...)
	}
}

// batchOrder groups a batch's tuple indexes by destination shard with a
// counting sort, preserving input order within each shard: order holds
// the indexes of shard 0's tuples, then shard 1's, and so on, with
// starts[s] the offset of shard s's run. hashes carries each tuple's
// precomputed HashTuple.
func (r *Relation) batchOrder(tuples []Tuple) (order []int32, starts []int32, hashes []uint32) {
	n := len(tuples)
	hashes = make([]uint32, n)
	nsh := len(r.shards)
	if nsh == 1 {
		order = make([]int32, n)
		for i, t := range tuples {
			hashes[i] = HashTuple(t)
			order[i] = int32(i)
		}
		return order, []int32{0, int32(n)}, hashes
	}
	shardOf := make([]int32, n)
	starts = make([]int32, nsh+1)
	for i, t := range tuples {
		hashes[i] = HashTuple(t)
		s := int32(r.shardIndex(t[ShardColumn]))
		shardOf[i] = s
		starts[s+1]++
	}
	for s := 0; s < nsh; s++ {
		starts[s+1] += starts[s]
	}
	order = make([]int32, n)
	next := make([]int32, nsh)
	copy(next, starts[:nsh])
	for i := range tuples {
		s := shardOf[i]
		order[next[s]] = int32(i)
		next[s]++
	}
	return order, starts, hashes
}

// InsertBatch inserts a run of tuples — the one insert path, Insert
// being a one-tuple run. Tuples are grouped per shard, each touched
// shard is locked once and all of its delta-tail entries stamped with
// one epoch reading (taken under that shard's lock, keeping tail epochs
// monotone), accepted tuples reach the journal as one run (one fsync
// under SyncAlways for the write-ahead log), and watchers are notified
// once — so a subscription sees the batch as one delta round. The
// database epoch advances by the accepted row count in one step: Epoch
// keeps counting accepted mutations, exactly as after the equivalent
// run of Inserts, so a follower that applies the journaled run fact by
// fact reaches the same epoch. Returns the number of tuples that were
// genuinely new; duplicates inside the batch collapse exactly as
// repeated Inserts would. The tuples are copied into the column blocks.
func (r *Relation) InsertBatch(tuples []Tuple) int { return r.apply(tuples, false) }

// RetractBatch retracts a run of tuples — the one retract path, Retract
// being a one-tuple run — with the costs shared like InsertBatch: one
// lock acquisition and one epoch stamp per touched shard, one epoch
// advance by the removed row count, one journal run, one watcher
// notification. Returns the number of tuples that were present (and are
// now tombstoned).
func (r *Relation) RetractBatch(tuples []Tuple) int { return r.apply(tuples, true) }

// apply runs a signed run (del marks retraction) through the shards and
// then, once for the whole run, the counters, the modification
// watermarks, the epoch advance, the journal and the watchers. It
// returns the accepted count.
func (r *Relation) apply(tuples []Tuple, del bool) int {
	for _, t := range tuples {
		if len(t) == r.arity {
			continue
		}
		if del {
			panic(fmt.Sprintf("storage: retracting arity-%d tuple from arity-%d relation", len(t), r.arity))
		}
		panic(fmt.Sprintf("storage: inserting arity-%d tuple into arity-%d relation", len(t), r.arity))
	}
	var (
		accepted []bool
		one      [1]bool
		n        int
		maxStamp uint64
	)
	switch len(tuples) {
	case 0:
		return 0
	case 1:
		// A one-tuple run goes straight to its shard, skipping
		// batchOrder: the single-tuple write allocates nothing.
		t := tuples[0]
		h := HashTuple(t)
		sh := r.shardFor(t)
		sh.mu.Lock()
		maxStamp = r.stampLocked()
		if r.applyLocked(sh, t, h, maxStamp, del) {
			n, one[0] = 1, true
		}
		sh.mu.Unlock()
		accepted = one[:]
	default:
		// Each touched shard is locked once, and its accepted rows are
		// stamped with one epoch reading taken under that lock, keeping
		// the shard's tail epochs monotone.
		order, starts, hashes := r.batchOrder(tuples)
		accepted = make([]bool, len(tuples))
		for s := 0; s+1 < len(starts); s++ {
			idxs := order[starts[s]:starts[s+1]]
			if len(idxs) == 0 {
				continue
			}
			sh := &r.shards[s]
			sh.mu.Lock()
			if !del {
				sh.reserveLocked(len(idxs))
			}
			stamp := r.stampLocked()
			for _, i := range idxs {
				if r.applyLocked(sh, tuples[i], hashes[i], stamp, del) {
					accepted[i] = true
					n++
				}
			}
			sh.mu.Unlock()
			maxStamp = max(maxStamp, stamp)
		}
	}
	if n == 0 {
		return 0
	}
	if del {
		r.count.Add(-int64(n))
		r.tombs.Add(int64(n))
		r.retracts.Add(int64(n))
	} else {
		r.count.Add(int64(n))
	}
	if r.db != nil {
		storeMax(&r.lastMod, maxStamp)
		storeMax(&r.db.lastMod, maxStamp)
		r.db.mutations.Add(int64(n))
		r.db.epoch.Add(uint64(n))
	}
	if r.stats != nil {
		if del {
			atomic.AddInt64(&r.stats.Retracts, int64(n))
		} else {
			atomic.AddInt64(&r.stats.Inserts, int64(n))
		}
	}
	if jp := r.journal.Load(); jp != nil {
		run := make([]Tuple, 0, n)
		for i, ok := range accepted {
			if ok {
				run = append(run, tuples[i])
			}
		}
		if del {
			(*jp).JournalRetracts(r.name, run)
		} else {
			(*jp).JournalFacts(r.name, run)
		}
	}
	if r.db != nil {
		r.db.notifyWatchers()
	}
	return n
}

// stampLocked reads the epoch stamp for rows accepted under a shard
// lock the caller holds (0 on an untracked relation).
func (r *Relation) stampLocked() uint64 {
	if r.db == nil {
		return 0
	}
	return r.db.epoch.Load()
}

// applyLocked applies one tuple t (hash h) to sh, whose write lock the
// caller holds, stamping the row with stamp when accepted. It reports
// whether t was accepted: fresh for an insert, present for a retract.
func (r *Relation) applyLocked(sh *shard, t Tuple, h uint32, stamp uint64, del bool) bool {
	var row int
	if del {
		if row = sh.retractLocked(t, h); row < 0 {
			return false
		}
	} else {
		var fresh bool
		if row, fresh = sh.insertLocked(t, h, r.arity); !fresh {
			return false
		}
		for c, idx := range sh.cols {
			if idx != nil {
				idx[t[c]] = append(idx[t[c]], int32(row))
			}
		}
	}
	if r.db != nil {
		sh.tailAppendLocked(tailEntry{row: row, epoch: stamp, del: del})
	}
	return true
}

// storeMax raises a to at least v.
func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// LastModified returns the epoch stamp of the relation's newest accepted
// insert (0 for an untracked or empty relation). An entry built at stamp
// S is stale exactly when LastModified() >= S.
func (r *Relation) LastModified() uint64 { return r.lastMod.Load() }

// SignedDelta is DeltaSince's result: the tuples that entered and left
// the relation over the requested window, netted against the current
// state — a tuple retracted and later re-inserted appears only in Added,
// one inserted and later retracted only in Removed, so applying "remove
// Removed, add Added" to the caller's stale view converges on the
// relation's present tuple set regardless of interleaving.
type SignedDelta struct {
	Added   []Tuple
	Removed []Tuple
}

// Empty reports whether the delta carries no change.
func (d SignedDelta) Empty() bool { return len(d.Added) == 0 && len(d.Removed) == 0 }

// DeltaSince returns the signed delta of mutations accepted with an
// epoch stamp >= epoch. ok is false when the delta cannot be
// reconstructed — the relation is untracked, or some shard's tail
// evicted entries the request needs — in which case the caller must
// fall back to treating the relation as fully changed. The returned
// tuples are fresh copies backed by one arena per shard: they never
// alias the live column blocks, so they stay valid however the relation
// is mutated afterwards. Tuples stamped exactly at the requested epoch
// may overlap state the caller already has; replaying them is
// idempotent under set semantics.
func (r *Relation) DeltaSince(epoch uint64) (SignedDelta, bool) {
	var out SignedDelta
	if r.db == nil {
		return out, false
	}
	if r.lastMod.Load() < epoch {
		return out, true
	}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		if sh.tailFloor > epoch {
			sh.mu.RUnlock()
			return SignedDelta{}, false
		}
		lo := sort.Search(len(sh.tail), func(k int) bool { return sh.tail[k].epoch >= epoch })
		if n := len(sh.tail) - lo; n > 0 {
			arena := make([]Value, n*r.arity)
			for j, te := range sh.tail[lo:] {
				dst := Tuple(arena[j*r.arity : (j+1)*r.arity])
				for c := range dst {
					dst[c] = sh.valueAt(te.row, c)
				}
				// Net each entry against the current state: an insert
				// whose row has since died (or a retraction whose tuple
				// is live again) cancelled out inside the window.
				if te.del {
					if sh.findLocked(dst, HashTuple(dst)) < 0 {
						out.Removed = append(out.Removed, dst)
					}
				} else if !sh.isDeadLocked(te.row) {
					out.Added = append(out.Added, dst)
				}
			}
		}
		sh.mu.RUnlock()
	}
	return out, true
}

// Contains reports membership, locking only the tuple's shard. It
// allocates nothing.
func (r *Relation) Contains(t Tuple) bool {
	h := HashTuple(t)
	sh := r.shardFor(t)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.findLocked(t, h) >= 0
}

// Tuples returns a materialized snapshot of the tuple set, backed by a
// single value arena (two allocations however many tuples there are).
// The snapshot never aliases live column blocks; callers must still not
// modify it (tuples share the arena). For sharded relations the
// per-shard segments concatenate, so global insertion order is not
// preserved — use SortedTuples for deterministic order. This accessor is
// not instrumented; use Scan for measured access.
func (r *Relation) Tuples() []Tuple {
	views := make([]shardView, len(r.shards))
	total := 0
	for i := range r.shards {
		views[i] = r.shards[i].view()
		total += views[i].rows
	}
	out := make([]Tuple, total)
	arena := make([]Value, total*r.arity)
	k := 0
	for _, v := range views {
		for row := 0; row < v.rows; row++ {
			if v.isDead(row) {
				continue
			}
			dst := Tuple(arena[k*r.arity : (k+1)*r.arity])
			v.read(row, dst)
			out[k] = dst
			k++
		}
	}
	return out[:k]
}

// Scan iterates a snapshot of the tuples, recording one full scan. The
// yielded tuple is a reused scratch buffer, valid only until yield
// returns — copy it to keep it. Tuples are counted as examined only up
// to the point the caller stops.
func (r *Relation) Scan(yield func(Tuple) bool) {
	var t Tally
	r.scanBuf(make(Tuple, r.arity), &t, yield)
	r.Flush(&t)
}

// scanBuf is Scan yielding through the caller's buffer (len >= arity)
// and counting into the caller's tally.
func (r *Relation) scanBuf(buf Tuple, t *Tally, yield func(Tuple) bool) {
	t.FullScans++
	scratch := buf[:r.arity]
	examined := int64(0)
	for i := range r.shards {
		v := r.shards[i].view()
		for row := 0; row < v.rows; row++ {
			if v.isDead(row) {
				continue
			}
			v.read(row, scratch)
			examined++
			if !yield(scratch) {
				t.TuplesExamined += examined
				return
			}
		}
	}
	t.TuplesExamined += examined
}

// ensureIndexLocked builds the shard's posting-list index for a column
// from the live rows (tombstoned rows are left out — the compaction
// path relies on this). The caller must hold the shard's write lock.
func (sh *shard) ensureIndexLocked(col int) {
	if sh.cols[col] == nil {
		idx := make(map[Value][]int32)
		for row := 0; row < sh.rows; row++ {
			if sh.deadCnt > 0 && sh.isDeadLocked(row) {
				continue
			}
			v := sh.valueAt(row, col)
			idx[v] = append(idx[v], int32(row))
		}
		sh.cols[col] = idx
	}
}

// Binding is a column/value restriction for Lookup.
type Binding struct {
	Col int
	Val Value
}

// Lookup iterates the tuples matching all bindings. With at least one
// binding it probes posting-list indexes — per shard, the index of the
// most selective bound column, the one whose posting list for its value
// is shortest — and filters the remaining bindings row by row against
// the column blocks; with none it degrades to a full scan. A binding on
// ShardColumn restricts the probe to the single shard that can hold
// matches; otherwise every shard is probed. IndexLookups counts one
// probe per shard actually probed — a ShardColumn-bound lookup costs 1,
// an unrouted lookup over n shards costs up to n (fewer when yield stops
// the iteration early) — so the Property-3 accounting reflects the real
// number of restricted index probes rather than the number of Lookup
// calls. Indexes for bound columns are built per shard on first use, so
// selectivity is compared on actual posting lists rather than guessed.
//
// The yielded tuple is a reused scratch buffer, valid only until yield
// returns — copy it to keep it.
func (r *Relation) Lookup(bindings []Binding, yield func(Tuple) bool) {
	var t Tally
	r.LookupBuf(bindings, make(Tuple, r.arity), &t, yield)
	r.Flush(&t)
}

// LookupBuf is Lookup yielding through the caller's buffer (len >=
// arity) and counting into the caller's tally instead of the shared
// counters — the zero-allocation probe path for evaluator inner loops,
// which hold one buffer and one tally per goroutine and Flush the tally
// once per run of probes.
func (r *Relation) LookupBuf(bindings []Binding, buf Tuple, t *Tally, yield func(Tuple) bool) {
	if len(bindings) == 0 {
		r.scanBuf(buf, t, yield)
		return
	}
	scratch := buf[:r.arity]
	if len(r.shards) > 1 {
		for _, b := range bindings {
			if b.Col == ShardColumn {
				r.shards[r.shardIndex(b.Val)].lookup(bindings, t, scratch, yield)
				return
			}
		}
	}
	for i := range r.shards {
		if !r.shards[i].lookup(bindings, t, scratch, yield) {
			return
		}
	}
}

// lookup probes one shard, counting one index probe, and returns false
// when yield stopped the iteration.
func (sh *shard) lookup(bindings []Binding, t *Tally, scratch Tuple, yield func(Tuple) bool) bool {
	t.IndexLookups++
	sh.mu.RLock()
	missing := false
	for _, b := range bindings {
		if sh.cols[b.Col] == nil {
			missing = true
			break
		}
	}
	if missing {
		sh.mu.RUnlock()
		sh.mu.Lock()
		for _, b := range bindings {
			sh.ensureIndexLocked(b.Col)
		}
		sh.mu.Unlock()
		sh.mu.RLock()
	}
	// Probe the most selective bound column: shortest posting list wins.
	probe := 0
	rows := sh.cols[bindings[0].Col][bindings[0].Val]
	for i, b := range bindings[1:] {
		if cand := sh.cols[b.Col][b.Val]; len(cand) < len(rows) {
			probe, rows = i+1, cand
		}
	}
	// Posting entries reference rows fully written before the list grew
	// (both under the write lock), so reading the blocks after release is
	// race-free — see shardView. Lists may still name rows tombstoned
	// since they were built; the dead-bit check filters them lazily.
	v := shardView{blocks: sh.blocks[:len(sh.blocks):len(sh.blocks)], rows: sh.rows}
	if sh.deadCnt > 0 {
		v.dead = sh.dead[:len(sh.dead):len(sh.dead)]
	}
	sh.mu.RUnlock()

	examined := int64(0)
outer:
	for _, row := range rows {
		if v.isDead(int(row)) {
			continue
		}
		v.read(int(row), scratch)
		examined++
		for i, b := range bindings {
			if i == probe {
				continue
			}
			if scratch[b.Col] != b.Val {
				continue outer
			}
		}
		if !yield(scratch) {
			t.TuplesExamined += examined
			return false
		}
	}
	t.TuplesExamined += examined
	return true
}

// Equal reports whether two relations hold the same tuple sets.
func (r *Relation) Equal(o *Relation) bool {
	if r == o {
		return true
	}
	if r.arity != o.arity {
		return false
	}
	if r.Len() != o.Len() {
		return false
	}
	scratch := make(Tuple, r.arity)
	for i := range r.shards {
		v := r.shards[i].view()
		for row := 0; row < v.rows; row++ {
			if v.isDead(row) {
				continue
			}
			v.read(row, scratch)
			if !o.Contains(scratch) {
				return false
			}
		}
	}
	return true
}

// SortedTuples returns the tuples in lexicographic order (fresh
// arena-backed slice), for deterministic output.
func (r *Relation) SortedTuples() []Tuple {
	out := r.Tuples()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// SortedColumns returns the tuple set column-major in lexicographic row
// order: cols[c][i] is the i-th sorted tuple's value in column c, all
// columns backed by one arena. rows is the tuple count (arity-0
// relations have no columns, so rows alone carries their 0-or-1 count).
// This is the WAL snapshot writer's extraction path: the whole relation
// serializes from a handful of allocations, with no per-tuple re-boxing.
func (r *Relation) SortedColumns() (cols [][]Value, rows int) {
	ts := r.SortedTuples()
	rows = len(ts)
	if r.arity == 0 {
		return nil, rows
	}
	arena := make([]Value, rows*r.arity)
	cols = make([][]Value, r.arity)
	for c := range cols {
		col := arena[c*rows : (c+1)*rows]
		for i, t := range ts {
			col[i] = t[c]
		}
		cols[c] = col
	}
	return cols, rows
}

// defaultShards picks the shard count for a database's relations: the
// smallest power of two covering GOMAXPROCS, capped at 64.
func defaultShards() int {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 64 {
		n <<= 1
	}
	return n
}

// Database is a named collection of relations sharing a symbol table and
// instrumentation counters. It is safe for concurrent use. Relations
// created through Ensure/AddFact are sharded according to the database's
// shard setting (default: smallest power of two >= GOMAXPROCS).
//
// A primary database (NewDatabase) tracks epochs: every accepted insert
// into one of its relations is stamped with the current epoch, recorded
// in a bounded per-shard delta tail (Relation.DeltaSince), and advances
// the counter. Derived databases (NewDatabaseWith — semi-naive IDB
// state, magic-set scratch space) skip the tracking entirely.
type Database struct {
	Stats Counters // first field: keeps the atomics 64-bit aligned on 32-bit platforms
	Syms  *SymbolTable

	// epoch is the monotone mutation counter; lastMod the highest stamp
	// any accepted mutation received; mutations the accepted-mutation
	// count, inserts and retractions alike (the auto-checkpoint trigger).
	// All zero for derived databases.
	epoch     atomic.Uint64
	lastMod   atomic.Uint64
	mutations atomic.Int64
	track     bool

	mu      sync.RWMutex
	rels    map[string]*Relation
	shards  int
	journal Journal

	// watchers are the mutation-notification channels handed out by
	// Watch (live subscriptions block on them); hasWatch keeps the
	// accepted-mutation hot path to a single atomic load when nobody is
	// watching.
	watchMu  sync.Mutex
	watchers map[int]chan struct{}
	watchSeq int
	hasWatch atomic.Bool
}

// NewDatabase creates an empty epoch-tracked database with a fresh
// symbol table.
func NewDatabase() *Database {
	return &Database{Syms: NewSymbolTable(), rels: make(map[string]*Relation), shards: defaultShards(), track: true}
}

// NewDatabaseWith creates an empty database sharing an existing symbol
// table (used for derived/IDB databases). Derived databases do not track
// epochs: their relations stamp nothing and keep no delta tails.
func NewDatabaseWith(syms *SymbolTable) *Database {
	return &Database{Syms: syms, rels: make(map[string]*Relation), shards: defaultShards()}
}

// Epoch returns the database's current epoch. An evaluation that records
// Epoch() before reading any relation may later reconstruct everything
// it missed with DeltaSince(stamp) on each relation: every accepted
// insert not visible to it carries a stamp >= that reading.
func (db *Database) Epoch() uint64 { return db.epoch.Load() }

// LastModified returns the highest epoch stamp any accepted insert into
// this database received (0 when empty or untracked). State captured at
// stamp S is current iff LastModified() < S.
func (db *Database) LastModified() uint64 { return db.lastMod.Load() }

// Mutations returns the number of accepted mutations — inserts plus
// retractions — of the database's relations since creation (untracked
// databases always report 0).
func (db *Database) Mutations() int64 { return db.mutations.Load() }

// Watch registers a mutation watcher: the returned channel receives a
// (coalesced) signal after every accepted insert or retraction, and the
// cancel function unregisters it. The channel has a one-slot buffer and
// notification never blocks, so a slow watcher sees at least one signal
// for any burst of mutations — it re-reads Epoch and DeltaSince to find
// out what actually changed.
func (db *Database) Watch() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	db.watchMu.Lock()
	if db.watchers == nil {
		db.watchers = make(map[int]chan struct{})
	}
	id := db.watchSeq
	db.watchSeq++
	db.watchers[id] = ch
	db.hasWatch.Store(true)
	db.watchMu.Unlock()
	cancel := func() {
		db.watchMu.Lock()
		delete(db.watchers, id)
		if len(db.watchers) == 0 {
			db.hasWatch.Store(false)
		}
		db.watchMu.Unlock()
	}
	return ch, cancel
}

// notifyWatchers signals every registered watcher without blocking.
func (db *Database) notifyWatchers() {
	if !db.hasWatch.Load() {
		return
	}
	db.watchMu.Lock()
	for _, ch := range db.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	db.watchMu.Unlock()
}

// SetShards sets the shard count for relations created afterwards,
// rounded up to a power of two so the stored value matches what the
// relations actually get (< 1 means one shard). Existing relations keep
// their partitioning.
func (db *Database) SetShards(n int) {
	p := 1
	for p < n {
		p <<= 1
	}
	db.mu.Lock()
	db.shards = p
	db.mu.Unlock()
}

// Shards returns the shard count used for newly created relations.
func (db *Database) Shards() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.shards
}

// SetJournal attaches a journal (or detaches, with nil) to the database:
// every fresh symbol intern and every accepted insert or retraction in a
// relation of this database is reported to it from now on. State already present is
// not replayed — callers that need it durable write a snapshot (see
// internal/wal). Derived databases sharing this database's symbol table
// are not journaled: answer and magic relations live outside the
// journaled database, while their fresh symbol interns still flow
// through the shared table's hook, keeping logged Values dense and
// replayable.
func (db *Database) SetJournal(j Journal) {
	// Ordering: the intern hook installs before any relation can journal
	// a fact and uninstalls after the last relation detaches. A fact
	// record referencing a Value whose sym record was skipped makes the
	// log unrecoverable; the reverse — an orphan sym record — is
	// harmless. (Interns that raced ahead of the hook install count as
	// pre-attach state, covered by the caller's snapshot.)
	if j != nil {
		db.Syms.SetInternHook(j.JournalSym)
	}
	db.mu.Lock()
	db.journal = j
	for _, r := range db.rels {
		r.setJournal(j)
	}
	db.mu.Unlock()
	if j == nil {
		db.Syms.SetInternHook(nil)
	}
}

// setJournal installs the journal pointer (nil detaches).
func (r *Relation) setJournal(j Journal) {
	if j == nil {
		r.journal.Store(nil)
		return
	}
	r.journal.Store(&j)
}

// Relation returns the named relation, or nil.
func (db *Database) Relation(pred string) *Relation {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.rels[pred]
}

// Ensure returns the named relation, creating it with the given arity when
// missing. It panics when the relation exists with another arity;
// EnsureArity reports that as an error instead.
func (db *Database) Ensure(pred string, arity int) *Relation {
	r, err := db.EnsureArity(pred, arity)
	if err != nil {
		panic(err.Error())
	}
	return r
}

// EnsureArity is Ensure for callers handling untrusted input: an
// existing relation of another arity is an error naming the predicate
// and both arities.
func (db *Database) EnsureArity(pred string, arity int) (*Relation, error) {
	db.mu.RLock()
	r, ok := db.rels[pred]
	db.mu.RUnlock()
	if !ok {
		db.mu.Lock()
		defer db.mu.Unlock()
		if r, ok = db.rels[pred]; !ok {
			r = NewShardedRelation(arity, &db.Stats, db.shards)
			r.name = pred
			if db.track {
				r.db = db
			}
			r.setJournal(db.journal)
			db.rels[pred] = r
		}
	}
	if r.arity != arity {
		return nil, fmt.Errorf("storage: relation %s has arity %d, requested %d", pred, r.arity, arity)
	}
	return r, nil
}

// Preds returns the sorted relation names.
func (db *Database) Preds() []string {
	db.mu.RLock()
	out := make([]string, 0, len(db.rels))
	for p := range db.rels {
		out = append(out, p)
	}
	db.mu.RUnlock()
	sort.Strings(out)
	return out
}

// AddFact interns the constant names and inserts the tuple into pred,
// reporting whether the tuple was genuinely new (false on a duplicate).
func (db *Database) AddFact(pred string, consts ...string) bool {
	t := make(Tuple, len(consts))
	db.Syms.InternBatch(consts, t)
	return db.Ensure(pred, len(consts)).Insert(t)
}

// RemoveFact retracts the named tuple from pred, reporting whether it
// was present. Unknown constants, an unknown predicate, or an arity
// mismatch all mean the tuple cannot be stored, so the result is false
// without interning anything.
func (db *Database) RemoveFact(pred string, consts ...string) bool {
	r := db.Relation(pred)
	if r == nil || r.arity != len(consts) {
		return false
	}
	t := make(Tuple, len(consts))
	for i, c := range consts {
		v, ok := db.Syms.Lookup(c)
		if !ok {
			return false
		}
		t[i] = v
	}
	return r.Retract(t)
}

// TupleCount returns the total number of tuples across relations.
func (db *Database) TupleCount() int {
	db.mu.RLock()
	rels := make([]*Relation, 0, len(db.rels))
	for _, r := range db.rels {
		rels = append(rels, r)
	}
	db.mu.RUnlock()
	n := 0
	for _, r := range rels {
		n += r.Len()
	}
	return n
}

// Dump renders the database deterministically, one fact per line, in the
// parser's concrete syntax: predicates in name order, each relation's
// facts in rendered-text order, constant names quoted whenever the lexer
// needs it ('New York', capitalized names, the '#N' rendering of an
// out-of-range Value) and arity-0 facts written "p." rather than "p().".
// The output re-parses to the same fact set — parser.Parse(db.Dump())
// followed by a reload reproduces db — and, because lines are ordered by
// their rendered text rather than by interned Values, the bytes are
// stable across processes that interned the same facts in different
// orders (the crash-recovery byte-identity check relies on this).
func (db *Database) Dump() string {
	var b strings.Builder
	for _, p := range db.Preds() {
		r := db.Relation(p)
		snap := r.Tuples()
		lines := make([]string, len(snap))
		for j, t := range snap {
			var l strings.Builder
			l.WriteString(quote.Atom(p))
			if len(t) > 0 {
				l.WriteByte('(')
				for i, v := range t {
					if i > 0 {
						l.WriteString(", ")
					}
					l.WriteString(quote.Atom(db.Syms.Name(v)))
				}
				l.WriteByte(')')
			}
			l.WriteString(".\n")
			lines[j] = l.String()
		}
		sort.Strings(lines)
		for _, l := range lines {
			b.WriteString(l)
		}
	}
	return b.String()
}
