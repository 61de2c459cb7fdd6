package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// segMagic heads every segment file, followed by the segment's sequence
// number (uint64 LE).
const segMagic = "OSRWAL1\n"

// segHeaderSize is the byte length of a segment header.
const segHeaderSize = len(segMagic) + 8

// batchBytes is the batch buffer threshold: under SyncBatch the log
// fsyncs whenever at least this many bytes accumulated since the last
// sync, amortizing the fsync over many records.
const batchBytes = 64 << 10

// SyncPolicy selects when appended records are fsynced to disk.
type SyncPolicy int

const (
	// SyncBatch (the default) flushes and fsyncs whenever the batch
	// buffer fills, and always at checkpoint rotation and Close. A crash
	// loses at most the last partial batch.
	SyncBatch SyncPolicy = iota
	// SyncAlways acknowledges no append before a covering fsync —
	// maximum durability. Concurrent appends commit in groups: one
	// leader flushes and fsyncs once for every record buffered by the
	// group, then releases all of its waiters, so the fsync rate scales
	// with commit groups rather than with records (see SetCommitWindow).
	SyncAlways
	// SyncOS hands filled batches to the OS page cache without fsync;
	// the log only fsyncs at checkpoint rotation and Close. Fastest, and
	// a power failure may lose everything since the last checkpoint.
	SyncOS
)

// String names the policy for Explain-style output.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncOS:
		return "os"
	default:
		return "batch"
	}
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Replay receives the recovered state during Open, in replay order. Any
// callback may be nil to skip that record type. Sym is called once per
// interned name in Value order (snapshot first, then tail records), so
// applying it to a fresh symbol table reproduces identical Values; Fact
// and Retract receive constant names (already translated from logged
// Values), so they can be applied to any database via AddFact and
// RemoveFact. Retractions replay in log order interleaved with inserts,
// reproducing the original mutation sequence exactly.
type Replay struct {
	Sym     func(name string)
	Rel     func(pred string, arity int)
	Fact    func(pred string, consts []string)
	Retract func(pred string, consts []string)
	Rule    func(src string)
	Shape   func(query string)
}

// Log is a write-ahead segment log bound to one directory. It implements
// storage.Journal: attach it with Database.SetJournal and every fresh
// symbol intern and accepted mutation run is appended as records. Append
// errors are sticky — the first one is remembered and surfaced by Err,
// Sync, Checkpoint, and Close — because the journal hooks have no error
// channel of their own; the engine reads Err after every write so it
// never acks one the log failed to journal.
type Log struct {
	dir    string
	policy SyncPolicy

	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	seq     uint64      // active segment sequence
	pending int         // bytes buffered since the last fsync
	err     error       // sticky first failure
	failed  atomic.Bool // err != nil, readable without mu
	closed  bool

	// Write-path counters, guarded by mu (CommitStats reads them).
	statFsyncs    uint64
	statRecords   uint64
	statGroups    uint64
	statGroupRecs uint64
	statLastGroup int
	statMaxGroup  int

	// Group commit (SyncAlways). Appenders join the open commit group
	// under gcMu — NOT mu, so arrivals can keep joining while the
	// previous group's leader holds mu for its fsync; those arrivals
	// form the next group and share its single fsync (natural
	// batching). The first member of a group is its designated leader:
	// it commits immediately when no commit is in flight, otherwise it
	// parks on the group's start channel and the finishing leader hands
	// off to it.
	gcMu     sync.Mutex
	gcCur    *commitGroup
	gcActive bool          // a leader currently owns the commit pipeline
	gcWait   time.Duration // extra window a leader holds its group open
	gcBytes  int           // seal the window early at this many bytes

	ckptMu sync.Mutex // serializes Checkpoint callers and guards manifest/chain
	// manifest records, per relation, the state the newest snapshot chain
	// describes: its count/epoch/retraction-counter at collection and the
	// sequence of the snapshot physically holding its full tuple block.
	// Checkpoint diffs fresh collections against it — a relation whose
	// count AND cumulative retraction counter are both unchanged has seen
	// neither retractions (counter equal) nor inserts (no retractions +
	// equal count), so its tuple set is identical and it becomes a
	// reference block, its prior full block retained on disk. Count alone
	// stopped being sufficient when Retract arrived: a retract/insert
	// pair leaves the count unchanged with a different set.
	manifest map[string]relManifest
	// Symbol-table diff state: the resolved symbol count and prefix CRC
	// of the newest snapshot chain, the head's sequence, and the sym-tail
	// chain depth (bounded by maxSymChainDepth before a full rewrite) and
	// ancestor set.
	headSeq    uint64
	symsLen    int
	symsCRC    uint32
	symDepth   int
	symAnchors map[uint64]bool
	// chain is the set of snapshot sequences the newest snapshot
	// references (itself included); prune keeps exactly these.
	chain map[uint64]bool
}

// relManifest is one relation's entry in the differential manifest.
// retracts is the relation's cumulative retraction counter at
// collection; -1 marks an entry restored from disk whose counter is not
// comparable to the live process's (see Open), forcing one full block.
type relManifest struct {
	arity    int
	epoch    uint64
	count    int
	retracts int64
	seq      uint64 // snapshot holding this relation's full tuple block
}

// maxSymChainDepth bounds the symbol-tail chain: after this many
// differential snapshots in a row, the next one rewrites the full
// symbol table, so recovery reads at most this many extra files for
// symbols and stale tails become prunable.
const maxSymChainDepth = 3

// symPrefixCRC fingerprints a symbol-list prefix (length-prefixed, so
// name boundaries cannot alias).
func symPrefixCRC(names []string) uint32 {
	h := crc32.New(castagnoli)
	var lenBuf [10]byte
	for _, n := range names {
		b := binary.AppendUvarint(lenBuf[:0], uint64(len(n)))
		h.Write(b)
		h.Write([]byte(n))
	}
	return h.Sum32()
}

// relManifestOf builds the per-relation manifest described by a
// resolved snapshot at headSeq.
func relManifestOf(headSeq uint64, s *Snapshot) map[string]relManifest {
	man := make(map[string]relManifest, len(s.Rels))
	for _, r := range s.Rels {
		seq := headSeq
		if r.Ref {
			seq = r.BaseSeq
		}
		man[r.Pred] = relManifest{arity: r.Arity, epoch: r.Epoch, count: r.Count, retracts: r.Retracts, seq: seq}
	}
	return man
}

// segmentName renders a segment file name for a sequence number.
func segmentName(seq uint64) string { return fmt.Sprintf("seg-%016d.wal", seq) }

// snapshotName renders a snapshot file name for a covered sequence.
func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%016d.snap", seq) }

// parseSeq extracts the sequence number from a segment or snapshot file
// name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// recovered is the directory state recoverDir reconstructs: the
// resolved snapshot chain, the differential manifest the next checkpoint
// diffs against, and the segment high-water mark.
type recovered struct {
	snapSeq   uint64
	haveSnap  bool
	manifest  map[string]relManifest
	syms      []string
	ancestors []uint64
	chain     map[uint64]bool
	maxSeq    uint64
	lastSeq   uint64 // newest live segment replayed (0 when none)
}

// recoverDir replays the state persisted in dir (creating it if
// missing) — newest readable snapshot first, then every segment above
// it in sequence order, tolerating a torn final record in the last
// segment by truncating it — streaming the state into the replay
// callbacks.
func recoverDir(dir string, replay Replay) (*recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs, snaps []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "seg-", ".wal"); ok {
			segs = append(segs, seq)
		}
		if seq, ok := parseSeq(e.Name(), "snap-", ".snap"); ok {
			snaps = append(snaps, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })

	// Newest readable snapshot whose full differential chain resolves
	// wins; an unreadable head or a broken chain (torn checkpoint racing
	// a crash before its segment prune, a corrupted base) falls back to
	// the predecessor, whose covered segments are still on disk.
	st := &replayState{replay: replay}
	var snapSeq uint64
	var haveSnap bool
	var manifest map[string]relManifest
	var resolvedSyms []string
	var symAncestors []uint64
	chain := map[uint64]bool{}
	cache := make(map[uint64]*Snapshot)
	load := func(seq uint64) (*Snapshot, error) {
		if s, ok := cache[seq]; ok {
			return s, nil
		}
		fileSeq, s, err := readSnapshot(filepath.Join(dir, snapshotName(seq)))
		if err != nil {
			return nil, err
		}
		if fileSeq != seq {
			return nil, fmt.Errorf("wal: snapshot %d claims sequence %d", seq, fileSeq)
		}
		cache[seq] = s
		return s, nil
	}
	for _, seq := range snaps {
		snap, err := load(seq)
		if err != nil {
			continue
		}
		syms, ancestors, err := resolveSyms(seq, snap, load)
		if err != nil {
			continue
		}
		bases, err := resolveRelRefs(seq, snap, len(syms), load)
		if err != nil {
			continue
		}
		st.applySnapshot(snap, syms, bases)
		snapSeq, haveSnap = seq, true
		manifest = relManifestOf(seq, snap)
		resolvedSyms, symAncestors = syms, ancestors
		chain[seq] = true
		for _, a := range ancestors {
			chain[a] = true
		}
		for _, r := range snap.Rels {
			if r.Ref {
				chain[r.BaseSeq] = true
			}
		}
		break
	}

	maxSeq := snapSeq
	live := segs[:0]
	for _, seq := range segs {
		if haveSnap && seq <= snapSeq {
			continue // covered by the snapshot; prune below
		}
		live = append(live, seq)
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	rec := &recovered{
		snapSeq:   snapSeq,
		haveSnap:  haveSnap,
		manifest:  manifest,
		syms:      resolvedSyms,
		ancestors: symAncestors,
		chain:     chain,
		maxSeq:    maxSeq,
	}
	for i, seq := range live {
		final := i == len(live)-1
		if err := st.replaySegment(filepath.Join(dir, segmentName(seq)), seq, final); err != nil {
			return nil, err
		}
		rec.lastSeq = seq
	}
	return rec, nil
}

// Open recovers the state persisted in dir (creating it if missing),
// streams it into the replay callbacks, and returns a log appending to
// a fresh segment.
func Open(dir string, policy SyncPolicy, replay Replay) (*Log, error) {
	rec, err := recoverDir(dir, replay)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, policy: policy, seq: rec.maxSeq + 1, manifest: rec.manifest, chain: rec.chain}
	// A persisted retraction counter is the ORIGINAL process's cumulative
	// count; the restarted process's relations count from zero again, so
	// equality against it would be coincidence, not proof of an identical
	// set. Entries with retraction history are marked incomparable — their
	// first post-restart checkpoint writes a full block and re-bases the
	// counter. Never-retracted relations (counter 0) stay comparable: a
	// live counter of 0 really does mean no retraction ever happened.
	for pred, m := range l.manifest {
		if m.retracts != 0 {
			m.retracts = -1
			l.manifest[pred] = m
		}
	}
	if rec.haveSnap {
		l.headSeq = rec.snapSeq
		l.symsLen = len(rec.syms)
		l.symsCRC = symPrefixCRC(rec.syms)
		l.symDepth = len(rec.ancestors)
		l.symAnchors = make(map[uint64]bool, len(rec.ancestors))
		for _, a := range rec.ancestors {
			l.symAnchors[a] = true
		}
	}
	if err := l.openSegment(); err != nil {
		return nil, err
	}
	return l, nil
}

// RecoverResult reports where a replay-only recovery left off, so a
// replication cursor can resume exactly at the recovered boundary.
type RecoverResult struct {
	SnapshotSeq uint64 // newest resolved snapshot (0 when none)
	LastSeq     uint64 // newest live segment replayed (0 when none)
	LastSize    int64  // size of that segment after torn-tail truncation
}

// Recover replays the state persisted in dir into the callbacks without
// opening a new active segment. A follower restarting from its local
// mirror uses this: the primary is still appending to the mirrored
// segments, so creating a successor segment here would collide with the
// stream. The returned cursor (LastSeq, LastSize) is the first byte not
// yet applied.
func Recover(dir string, replay Replay) (RecoverResult, error) {
	rec, err := recoverDir(dir, replay)
	if err != nil {
		return RecoverResult{}, err
	}
	res := RecoverResult{LastSeq: rec.lastSeq}
	if rec.haveSnap {
		res.SnapshotSeq = rec.snapSeq
	}
	if rec.lastSeq != 0 {
		fi, err := os.Stat(filepath.Join(dir, segmentName(rec.lastSeq)))
		if err != nil {
			return RecoverResult{}, err
		}
		res.LastSize = fi.Size()
	}
	return res, nil
}

// resolveSyms resolves a snapshot's full symbol list: its own Syms when
// self-contained, or the base snapshot's resolved list (recursively;
// sequences strictly decrease, so the walk terminates) followed by the
// tail. It also returns the ancestor sequences the resolution loaded.
func resolveSyms(seq uint64, s *Snapshot, load func(uint64) (*Snapshot, error)) ([]string, []uint64, error) {
	if s.SymBase == 0 {
		return s.Syms, nil, nil
	}
	if s.SymBase >= seq {
		return nil, nil, fmt.Errorf("wal: snapshot %d: symbol base %d is not earlier", seq, s.SymBase)
	}
	base, err := load(s.SymBase)
	if err != nil {
		return nil, nil, err
	}
	prefix, ancestors, err := resolveSyms(s.SymBase, base, load)
	if err != nil {
		return nil, nil, err
	}
	out := make([]string, 0, len(prefix)+len(s.Syms))
	out = append(append(out, prefix...), s.Syms...)
	return out, append(ancestors, s.SymBase), nil
}

// resolveRelRefs validates a candidate snapshot's differential relation
// references: every Ref block must point at a readable earlier snapshot
// holding a FULL block of the same predicate and arity (references are
// always one hop — a new reference copies the base sequence of the
// block it extends, never pointing at another reference), and every
// referenced tuple value must resolve in the head's symbol list (the
// append-only prefix property the writer verified). Returns the loaded
// bases by sequence.
func resolveRelRefs(headSeq uint64, head *Snapshot, nsyms int, load func(uint64) (*Snapshot, error)) (map[uint64]*Snapshot, error) {
	bases := make(map[uint64]*Snapshot)
	for _, r := range head.Rels {
		if !r.Ref {
			continue
		}
		if r.BaseSeq >= headSeq {
			return nil, fmt.Errorf("wal: snapshot %d references non-earlier snapshot %d", headSeq, r.BaseSeq)
		}
		base, ok := bases[r.BaseSeq]
		if !ok {
			var err error
			if base, err = load(r.BaseSeq); err != nil {
				return nil, err
			}
			bases[r.BaseSeq] = base
		}
		blk := findRelBlock(base, r.Pred)
		if blk == nil || blk.Ref || blk.Arity != r.Arity {
			return nil, fmt.Errorf("wal: snapshot %d: base %d has no full block for %s", headSeq, r.BaseSeq, r.Pred)
		}
		for _, col := range blk.Cols {
			for _, v := range col {
				if int(v) < 0 || int(v) >= nsyms {
					return nil, fmt.Errorf("wal: snapshot %d: %s tuple value %d outside symbol table", headSeq, r.Pred, v)
				}
			}
		}
	}
	return bases, nil
}

// findRelBlock returns the snapshot's block for pred, or nil.
func findRelBlock(s *Snapshot, pred string) *RelSnap {
	for i := range s.Rels {
		if s.Rels[i].Pred == pred {
			return &s.Rels[i]
		}
	}
	return nil
}

// replayState accumulates the Value->name translation while streaming
// recovered records into the user's callbacks.
type replayState struct {
	replay Replay
	names  []string
	seen   map[string]bool
}

func (st *replayState) sym(name string) {
	// A symbol interned between checkpoint rotation and snapshot
	// collection appears both in the snapshot and as a tail record;
	// appending it twice would shift the Value->name translation for
	// everything after it. First occurrence wins — that is the original
	// process's dense id order.
	if st.seen == nil {
		st.seen = make(map[string]bool)
	}
	if st.seen[name] {
		return
	}
	st.seen[name] = true
	st.names = append(st.names, name)
	if st.replay.Sym != nil {
		st.replay.Sym(name)
	}
}

func (st *replayState) fact(pred string, vals []storage.Value) error {
	consts, err := st.translate(pred, vals)
	if err != nil {
		return err
	}
	if st.replay.Fact != nil {
		st.replay.Fact(pred, consts)
	}
	return nil
}

func (st *replayState) retract(pred string, vals []storage.Value) error {
	consts, err := st.translate(pred, vals)
	if err != nil {
		return err
	}
	if st.replay.Retract != nil {
		st.replay.Retract(pred, consts)
	}
	return nil
}

func (st *replayState) translate(pred string, vals []storage.Value) ([]string, error) {
	consts := make([]string, len(vals))
	for i, v := range vals {
		if int(v) < 0 || int(v) >= len(st.names) {
			return nil, fmt.Errorf("wal: fact %s references unknown value %d", pred, v)
		}
		consts[i] = st.names[v]
	}
	return consts, nil
}

// applySnapshot streams a resolved snapshot into the callbacks:
// resolvedSyms is the full symbol list (sym-tail chains already
// stitched), and ref blocks read their tuples from the base snapshots.
// Tuple values — full and referenced alike — translate through the
// resolved list: the symbol table is append-only, so every earlier
// snapshot's values index into a prefix of it (resolveRelRefs bounds-
// checked the referenced ones).
func (st *replayState) applySnapshot(s *Snapshot, resolvedSyms []string, bases map[uint64]*Snapshot) {
	for _, name := range resolvedSyms {
		st.sym(name)
	}
	for _, r := range s.Rels {
		if st.replay.Rel != nil {
			st.replay.Rel(r.Pred, r.Arity)
		}
		cols, count := r.Cols, r.Count
		if r.Ref {
			base := findRelBlock(bases[r.BaseSeq], r.Pred)
			cols, count = base.Cols, base.Count
		}
		t := make(storage.Tuple, r.Arity)
		for j := 0; j < count; j++ {
			for c := range cols {
				t[c] = cols[c][j]
			}
			// Errors are impossible here: values were validated against
			// (full blocks: encoded against) the resolved symbol list.
			st.fact(r.Pred, t)
		}
	}
	for _, r := range s.Rules {
		if st.replay.Rule != nil {
			st.replay.Rule(r)
		}
	}
	for _, q := range s.Shapes {
		if st.replay.Shape != nil {
			st.replay.Shape(q)
		}
	}
}

// replaySegment applies one segment's records. In the final segment a
// torn tail — a record whose frame or checksum does not validate — ends
// the replay and truncates the file to the valid prefix; anywhere else
// it is corruption and fails recovery.
func (st *replayState) replaySegment(path string, wantSeq uint64, final bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		// A crash between segment creation and header write (or a prior
		// recovery's truncation of such a file) leaves an empty segment:
		// no records, nothing to replay.
		return nil
	}
	if len(data) < segHeaderSize || string(data[:len(segMagic)]) != segMagic {
		if final {
			return truncateSegment(path, 0, len(data))
		}
		return fmt.Errorf("wal: %s: bad segment header", path)
	}
	if got := binary.LittleEndian.Uint64(data[len(segMagic):]); got != wantSeq {
		return fmt.Errorf("wal: %s: header sequence %d, file name says %d", path, got, wantSeq)
	}
	rest := data[segHeaderSize:]
	offset := segHeaderSize
	for len(rest) > 0 {
		payload, next, ok := nextRecord(rest)
		if !ok {
			if final {
				return truncateSegment(path, offset, len(data))
			}
			return fmt.Errorf("wal: %s: invalid record at offset %d in sealed segment", path, offset)
		}
		if err := st.applyPayload(payload); err != nil {
			return fmt.Errorf("wal: %s: offset %d: %w", path, offset, err)
		}
		offset += len(rest) - len(next)
		rest = next
	}
	return nil
}

// truncateSegment discards the torn tail of the crash-time active
// segment so later recoveries (when this segment is no longer final)
// see only valid records.
func truncateSegment(path string, keep, total int) error {
	if keep >= total {
		return nil
	}
	return os.Truncate(path, int64(keep))
}

// applyPayload dispatches one decoded record to the callbacks.
func (st *replayState) applyPayload(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("wal: empty record payload")
	}
	kind, body := payload[0], payload[1:]
	switch kind {
	case recSym:
		st.sym(string(body))
		return nil
	case recFact:
		pred, vals, err := decodeFact(body)
		if err != nil {
			return err
		}
		return st.fact(pred, vals)
	case recRetract:
		pred, vals, err := decodeFact(body)
		if err != nil {
			return err
		}
		return st.retract(pred, vals)
	case recRule:
		if st.replay.Rule != nil {
			st.replay.Rule(string(body))
		}
		return nil
	default:
		return fmt.Errorf("wal: unknown record kind %d", kind)
	}
}

// openSegment creates the active segment l.seq and writes its header.
// Callers hold no lock (Open) or l.mu (rotate).
func (l *Log) openSegment() error {
	path := filepath.Join(l.dir, segmentName(l.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, batchBytes)
	hdr := make([]byte, 0, segHeaderSize)
	hdr = append(hdr, segMagic...)
	hdr = binary.LittleEndian.AppendUint64(hdr, l.seq)
	if _, err := w.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.w, l.pending = f, w, 0
	return nil
}

// write appends a framed run of records records under the sync policy:
// under SyncAlways one group commit covers the whole run.
func (l *Log) write(rec []byte, records int) {
	if l.policy == SyncAlways {
		l.groupCommit(rec, records)
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.writeLocked(rec, records) {
		return
	}
	if l.policy == SyncBatch && l.pending >= batchBytes {
		l.setErr(l.syncLocked())
	}
	// SyncOS: bufio flushes to the page cache on its own as the buffer
	// fills; nothing to do per run.
}

// setErr records err as the sticky failure (nil leaves the log
// healthy); failed mirrors it for Err's lock-free healthy path. Caller
// holds l.mu.
func (l *Log) setErr(err error) error {
	l.err = err
	if err != nil {
		l.failed.Store(true)
	}
	return err
}

// writeLocked buffers one framed run of records records. It reports
// false when the log has failed or closed. Caller holds l.mu.
func (l *Log) writeLocked(rec []byte, records int) bool {
	if l.err != nil {
		return false
	}
	if l.closed {
		l.setErr(ErrClosed)
		return false
	}
	if _, err := l.w.Write(rec); err != nil {
		l.setErr(err)
		return false
	}
	l.pending += len(rec)
	l.statRecords += uint64(records)
	return true
}

// commitGroup is one SyncAlways commit window: the framed records of
// every appender that joined, flushed and fsynced as a unit.
type commitGroup struct {
	buf   []byte
	count int
	start chan struct{} // closed when this group's leader may commit
	done  chan struct{} // closed after the group's covering fsync
}

// groupCommit appends a framed run under the group-commit protocol and
// returns only after a covering fsync (or the sticky error): the
// durability contract of SyncAlways is unchanged, only the fsync is
// shared. The first member of a group leads it; members that join while
// a commit is in flight park until the group's own fsync completes.
func (l *Log) groupCommit(rec []byte, records int) {
	l.gcMu.Lock()
	g := l.gcCur
	leader := g == nil
	if leader {
		g = &commitGroup{start: make(chan struct{}), done: make(chan struct{})}
		l.gcCur = g
		if !l.gcActive {
			// No commit in flight: lead immediately.
			l.gcActive = true
			close(g.start)
		}
	}
	g.buf = append(g.buf, rec...)
	g.count += records
	l.gcMu.Unlock()
	if !leader {
		<-g.done
		return
	}

	<-g.start
	l.gcMu.Lock()
	if l.gcWait > 0 && (l.gcBytes <= 0 || len(g.buf) < l.gcBytes) {
		// Tunable window: hold the group open briefly so concurrent
		// appenders can still join, unless it already buffered gcBytes.
		wait := l.gcWait
		l.gcMu.Unlock()
		time.Sleep(wait)
		l.gcMu.Lock()
	} else if l.gcBytes <= 0 || len(g.buf) < l.gcBytes {
		// Zero-window opportunistic grouping: yield the scheduler a few
		// times before sealing so appenders already mid-flight on other
		// procs can join. A solo writer pays only a few empty yields
		// (sub-microsecond); under concurrency this collects near-full
		// groups without any timer.
		for i := 0; i < 4; i++ {
			l.gcMu.Unlock()
			runtime.Gosched()
			l.gcMu.Lock()
		}
	}
	l.gcCur = nil // seal: later arrivals form the next group
	l.gcMu.Unlock()

	l.mu.Lock()
	if l.writeLocked(g.buf, g.count) {
		if l.setErr(l.syncLocked()) == nil {
			l.statGroups++
			l.statGroupRecs += uint64(g.count)
			l.statLastGroup = g.count
			if g.count > l.statMaxGroup {
				l.statMaxGroup = g.count
			}
		}
	}
	l.mu.Unlock()

	l.gcMu.Lock()
	if next := l.gcCur; next != nil {
		close(next.start) // hand the pipeline to the next group's leader
	} else {
		l.gcActive = false
	}
	l.gcMu.Unlock()
	close(g.done)
}

// SetCommitWindow tunes the SyncAlways group-commit window: a leader
// holds its group open for up to maxWait before sealing, letting
// concurrent appenders join, and seals early once the group buffers
// maxBytes. The zero window (the default) relies on natural batching
// alone — appenders that arrive while a commit's fsync is in flight
// form the next group and share its single fsync — which costs a lone
// writer nothing. A non-zero maxWait trades that writer's latency for
// larger groups under bursty concurrency.
func (l *Log) SetCommitWindow(maxWait time.Duration, maxBytes int) {
	l.gcMu.Lock()
	l.gcWait, l.gcBytes = maxWait, maxBytes
	l.gcMu.Unlock()
}

// CommitStats are the write-path durability counters: every fsync of
// the active segment, every framed record, and — under SyncAlways —
// the commit groups driven and their sizes. Records/Fsyncs is the
// amortization the group-commit protocol (or SyncBatch batching) won.
type CommitStats struct {
	Fsyncs       uint64 // fsyncs of the active segment (all policies)
	Records      uint64 // framed records buffered
	Groups       uint64 // completed SyncAlways commit groups
	GroupRecords uint64 // records covered by those groups
	LastGroup    int    // size of the most recent commit group
	MaxGroup     int    // largest commit group observed
}

// CommitStats returns a snapshot of the write-path counters.
func (l *Log) CommitStats() CommitStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return CommitStats{
		Fsyncs:       l.statFsyncs,
		Records:      l.statRecords,
		Groups:       l.statGroups,
		GroupRecords: l.statGroupRecs,
		LastGroup:    l.statLastGroup,
		MaxGroup:     l.statMaxGroup,
	}
}

// syncLocked flushes the buffer and fsyncs. Caller holds l.mu.
func (l *Log) syncLocked() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.statFsyncs++
	l.pending = 0
	return nil
}

// JournalSym implements storage.Journal. Under SyncAlways the record is
// buffered without forcing its own group commit: a symbol's durability
// requirement is only "no later than any fact referencing it", and the
// first group fsync that covers such a fact flushes the whole buffer in
// write order, symbol included. A crash before that loses the symbol
// only alongside every unacknowledged fact that mentions it.
func (l *Log) JournalSym(name string) {
	rec := textRecord(recSym, name)
	if l.policy == SyncAlways {
		l.mu.Lock()
		l.writeLocked(rec, 1)
		l.mu.Unlock()
		return
	}
	l.write(rec, 1)
}

// JournalFacts implements storage.Journal: the run's records are framed
// into one buffer, written under one lock acquisition, and covered by
// one policy sync — under SyncAlways, one group commit (one fsync) for
// the whole run.
func (l *Log) JournalFacts(pred string, run []storage.Tuple) {
	l.appendRun(recFact, pred, run)
}

// JournalRetracts implements storage.Journal; see JournalFacts.
func (l *Log) JournalRetracts(pred string, run []storage.Tuple) {
	l.appendRun(recRetract, pred, run)
}

// appendRun frames each tuple of run as a kind record, in place, in one
// presized buffer and writes the buffer as one run.
func (l *Log) appendRun(kind byte, pred string, run []storage.Tuple) {
	if len(run) == 0 {
		return
	}
	size := 0
	for _, t := range run {
		size += tupleRecordMax(pred, len(t))
	}
	buf := make([]byte, 0, size)
	for _, t := range run {
		buf = appendTupleRecord(buf, kind, pred, t)
	}
	l.write(buf, len(run))
}

// AppendRule journals a rule in concrete syntax (parser.RenderRule).
func (l *Log) AppendRule(src string) { l.write(textRecord(recRule, src), 1) }

// Err returns the sticky append error, if any. A healthy log answers
// without taking the append lock, so a writer checking its own
// durability never queues behind another group's fsync.
func (l *Log) Err() error {
	if !l.failed.Load() {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Sync flushes buffered records and fsyncs the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return ErrClosed
	}
	return l.setErr(l.syncLocked())
}

// flushActive pushes buffered records of the active segment to the OS
// (no fsync) so a reader opening the file sees every appended record.
// pending is left untouched: the bytes still await their policy fsync.
func (l *Log) flushActive() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return ErrClosed
	}
	if err := l.w.Flush(); err != nil {
		l.setErr(err)
		return err
	}
	return nil
}

// Checkpoint compacts the log differentially: it seals the active
// segment and opens a fresh one, calls collect for a full snapshot of
// the state as of (at least) the seal point, converts each relation
// whose tuple set is unchanged since the previous checkpoint into a
// reference block (its prior snapshot's full block stays on disk and is
// linked), writes the snapshot atomically, and deletes the segments it
// covers plus every snapshot outside the new reference chain. Recovery
// cost and checkpoint bytes therefore scale with what actually changed,
// not with the database size. collect runs after the rotation, so any
// mutation it observes is either inside the snapshot or journaled in
// the new segment — replay tolerates the overlap because inserts are
// idempotent set operations.
func (l *Log) Checkpoint(collect func() (*Snapshot, error)) error {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()

	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if err := l.syncLocked(); err != nil {
		l.setErr(err)
		l.mu.Unlock()
		return err
	}
	if err := l.f.Close(); err != nil {
		l.setErr(err)
		l.mu.Unlock()
		return err
	}
	covered := l.seq
	l.seq++
	if err := l.openSegment(); err != nil {
		l.setErr(err)
		l.mu.Unlock()
		return err
	}
	l.mu.Unlock()

	snap, err := collect()
	if err != nil {
		return err
	}
	// Differential conversion. The prefix check re-fingerprints the
	// first symsLen names: append-only symbol tables make it pass by
	// construction, and if it ever does not, every reference is unsafe
	// (referenced tuple values would translate through the wrong names),
	// so the snapshot falls back to fully self-contained.
	fullSyms := snap.Syms
	fullLen := len(fullSyms)
	prefixOK := l.headSeq != 0 && l.symsLen <= fullLen &&
		symPrefixCRC(fullSyms[:l.symsLen]) == l.symsCRC
	if prefixOK {
		// Relations: an unchanged count plus an unchanged retraction
		// counter means an identical tuple set (no retraction happened,
		// so the set only grew, and equal count rules growth out), so the
		// prior full block (wherever in the chain it physically lives)
		// still describes it. A relation with removals since its base
		// falls back to a full block.
		for i := range snap.Rels {
			r := &snap.Rels[i]
			if man, ok := l.manifest[r.Pred]; ok && man.arity == r.Arity && man.count == r.Count && man.retracts == r.Retracts {
				r.Ref, r.BaseSeq, r.Cols = true, man.seq, nil
			}
		}
	}
	newAnchors := map[uint64]bool{}
	newDepth := 0
	if prefixOK && l.symDepth < maxSymChainDepth {
		// Symbols: write only the tail interned since the previous head.
		snap.SymBase = l.headSeq
		snap.Syms = fullSyms[l.symsLen:]
		for a := range l.symAnchors {
			newAnchors[a] = true
		}
		newAnchors[l.headSeq] = true
		newDepth = l.symDepth + 1
	}
	if err := writeSnapshot(l.dir, covered, snap); err != nil {
		return err
	}
	l.headSeq = covered
	l.manifest = relManifestOf(covered, snap)
	l.symsLen, l.symsCRC = fullLen, symPrefixCRC(fullSyms)
	l.symDepth, l.symAnchors = newDepth, newAnchors
	l.chain = map[uint64]bool{covered: true}
	for a := range newAnchors {
		l.chain[a] = true
	}
	for _, r := range snap.Rels {
		if r.Ref {
			l.chain[r.BaseSeq] = true
		}
	}
	return l.prune(covered)
}

// prune deletes segments covered by the snapshot at seq and snapshots
// outside the current reference chain. Failures are returned but leave
// recovery correct: an undeleted covered segment is skipped at Open, an
// undeleted stale snapshot is shadowed by the newer chain.
func (l *Log) prune(seq uint64) error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	var firstErr error
	for _, e := range entries {
		if s, ok := parseSeq(e.Name(), "seg-", ".wal"); ok && s <= seq {
			if err := os.Remove(filepath.Join(l.dir, e.Name())); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if s, ok := parseSeq(e.Name(), "snap-", ".snap"); ok && s <= seq && !l.chain[s] {
			if err := os.Remove(filepath.Join(l.dir, e.Name())); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if firstErr != nil {
		return firstErr
	}
	return syncDir(l.dir)
}

// Close flushes, fsyncs, and closes the active segment. Appends after
// Close record ErrClosed as the sticky error. Close is idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return l.err
	}
	l.closed = true
	if l.err == nil {
		l.setErr(l.syncLocked())
	}
	if cerr := l.f.Close(); cerr != nil && l.err == nil {
		l.setErr(cerr)
	}
	if l.err != nil {
		return l.err
	}
	// Leave the sticky error nil: Close succeeded; only later appends
	// will set ErrClosed.
	return nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Policy returns the log's sync policy.
func (l *Log) Policy() SyncPolicy { return l.policy }
