// Package durable is the disk-backed kv.Store: an append-only write-ahead
// log with group commit in front of the in-memory store, periodic
// compacted snapshots, and replay-on-boot crash recovery. The paper runs
// TimeCrypt over "any scalable key-value store" (§4.6; the prototype used
// Cassandra) — this package supplies the durability half of that contract
// for single-node deployments: every mutation is framed, CRC-protected,
// and fsync'd (policy-dependent) in the WAL before the caller's Put/Batch
// returns, so a kill -9 loses nothing that was acknowledged.
//
// Concurrent writers are coalesced by a group-commit loop into one WAL
// append and one fsync (the engine's batched ingest path amortizes the
// sync exactly the way it already amortizes index writes). A background
// compactor periodically writes a snapshot of the whole store (atomic
// temp-file + rename + directory fsync, the covered WAL sequence embedded
// in the file name as the watermark) and deletes WAL segments the
// snapshot fully covers, bounding recovery time. Boot loads the newest
// valid snapshot and replays the WAL tail past its watermark, tolerating
// a torn final record (truncate, warn, continue) and duplicate sequences
// from a compaction that crashed between snapshot rename and WAL
// truncation.
package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kv"
)

// SyncPolicy says when the WAL is fsync'd.
type SyncPolicy int

const (
	// SyncAlways fsyncs every group commit before acknowledging it: an
	// acknowledged write survives kill -9 and power loss. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most once per Options.SyncEvery, piggybacked
	// on group commits; acknowledgements do not wait for the sync. A
	// crash can lose up to SyncEvery of acknowledged writes (they never
	// survive a torn OS cache), but process kill -9 alone loses nothing
	// already written to the OS.
	SyncInterval
	// SyncNever never fsyncs (the OS flushes on its own schedule). For
	// benchmarks and bulk loads.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ErrClosed is returned by mutations on a closed store.
var ErrClosed = errors.New("durable: store closed")

// Options tunes the engine; the zero value gives production defaults.
type Options struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the max time between fsyncs under SyncInterval
	// (default 1s; ignored otherwise).
	SyncEvery time.Duration
	// segmentBytes rotates the active WAL segment past this size
	// (default 64 MiB).
	segmentBytes int64
	// compactBytes triggers a snapshot + WAL truncation once this many
	// WAL bytes accumulate past the last snapshot (default 128 MiB).
	compactBytes int64
	// Logf receives recovery and compaction diagnostics (default: none).
	Logf func(string, ...any)
}

func (o *Options) applyDefaults() {
	if o.Sync < SyncAlways || o.Sync > SyncNever {
		o.Sync = SyncAlways
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = time.Second
	}
	if o.segmentBytes <= 0 {
		o.segmentBytes = 64 << 20
	}
	if o.compactBytes <= 0 {
		o.compactBytes = 128 << 20
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// ParseSyncPolicy maps a -fsync flag value to a policy: "always",
// "never"/"off", or a duration ("500ms") meaning SyncInterval at that
// period.
func ParseSyncPolicy(s string) (SyncPolicy, time.Duration, error) {
	switch s {
	case "", "always":
		return SyncAlways, 0, nil
	case "never", "off":
		return SyncNever, 0, nil
	case "interval":
		return SyncInterval, 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("durable: fsync policy %q is not always, never, or a positive duration", s)
	}
	return SyncInterval, d, nil
}

// request is one caller's mutation batch waiting for group commit.
type request struct {
	ops  []kv.Op
	done chan error
}

// Store is a durable kv.Store: reads are served by an in-memory store,
// every mutation goes through the WAL before it is acknowledged. Safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options
	mem  *kv.MemStore

	reqCh       chan *request
	quit        chan struct{}
	commitDone  chan struct{}
	compactCh   chan struct{}
	compactDone chan struct{}

	mu     sync.RWMutex // guards closed and the sends into reqCh
	closed bool

	failMu  sync.Mutex
	failErr error // sticky: a WAL write/sync failure poisons the store

	// Committer-owned state (no locks: only the commit loop touches it).
	f        *os.File
	segSize  int64
	nextSeq  uint64
	encBuf   []byte
	lastSync time.Time

	// Segment bookkeeping shared between the committer (rotate) and the
	// compactor (truncate).
	segMu       sync.Mutex
	sealed      []segmentInfo
	activeFirst uint64

	committedSeq   atomic.Uint64
	bytesSinceSnap atomic.Int64

	snapMu  sync.Mutex // serializes compactions
	snapSeq uint64     // watermark of the newest on-disk snapshot

	records      atomic.Uint64
	groupCommits atomic.Uint64
	fsyncs       atomic.Uint64
	compactions  atomic.Uint64
}

// Stats is a snapshot of the durability engine's counters.
type Stats struct {
	CommittedSeq uint64 // last acknowledged WAL sequence
	SnapshotSeq  uint64 // watermark of the newest snapshot
	Records      uint64 // WAL records written
	GroupCommits uint64 // commit groups (fsync amortization = Records/GroupCommits)
	Fsyncs       uint64
	Compactions  uint64
	Segments     int // on-disk WAL segments (incl. active)
}

func (s Stats) String() string {
	return fmt.Sprintf("seq=%d snap=%d records=%d groups=%d fsyncs=%d compactions=%d segments=%d",
		s.CommittedSeq, s.SnapshotSeq, s.Records, s.GroupCommits, s.Fsyncs, s.Compactions, s.Segments)
}

// Open recovers the store persisted in dir (creating it if needed): load
// the newest valid snapshot, replay the WAL tail past its watermark, and
// start the group-commit and compaction loops.
func Open(dir string, opts Options) (*Store, error) {
	opts.applyDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:         dir,
		opts:        opts,
		reqCh:       make(chan *request, 1024),
		quit:        make(chan struct{}),
		commitDone:  make(chan struct{}),
		compactCh:   make(chan struct{}, 1),
		compactDone: make(chan struct{}),
	}
	removeStaleTemps(dir, opts.Logf)
	if err := s.recover(); err != nil {
		return nil, err
	}
	go s.commitLoop()
	go s.compactLoop()
	return s, nil
}

// removeStaleTemps deletes half-written temp files a crashed compaction
// left behind; they were never visible (the rename never happened).
func removeStaleTemps(dir string, logf func(string, ...any)) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".tmp" {
			logf("durable: removing stale temp file %s", e.Name())
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// Get implements kv.Store from the in-memory read path.
func (s *Store) Get(key string) ([]byte, error) { return s.mem.Get(key) }

// GetShallow implements kv.ShallowGetter from the in-memory read path.
func (s *Store) GetShallow(key string) ([]byte, error) { return s.mem.GetShallow(key) }

// Scan implements kv.Store from the in-memory read path.
func (s *Store) Scan(prefix string, fn func(key string, value []byte) bool) error {
	return s.mem.Scan(prefix, fn)
}

// ScanShallow implements kv.ShallowScanner from the in-memory read path.
func (s *Store) ScanShallow(prefix string, fn func(key string, value []byte) bool) error {
	return s.mem.ScanShallow(prefix, fn)
}

// Len implements kv.Store.
func (s *Store) Len() int { return s.mem.Len() }

// SizeBytes implements kv.Store (resident in-memory size, not disk).
func (s *Store) SizeBytes() int64 { return s.mem.SizeBytes() }

// Put implements kv.Store; it returns once the write is durable per the
// sync policy.
func (s *Store) Put(key string, value []byte) error {
	return s.submit([]kv.Op{{Kind: kv.OpPut, Key: key, Value: value}})
}

// Delete implements kv.Store.
func (s *Store) Delete(key string) error {
	return s.submit([]kv.Op{{Kind: kv.OpDelete, Key: key}})
}

// Batch implements kv.Store: the ops land in ONE WAL record, so they are
// recovered all-or-nothing — strictly stronger than the interface's
// per-key atomicity.
func (s *Store) Batch(ops []kv.Op) error { return s.submit(ops) }

func (s *Store) submit(ops []kv.Op) error {
	if len(ops) == 0 {
		return nil
	}
	r := &request{ops: ops, done: make(chan error, 1)}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	s.reqCh <- r
	s.mu.RUnlock()
	return <-r.done
}

// Close flushes and fsyncs the WAL tail, stops the background loops, and
// closes the segment file. Further mutations fail with ErrClosed; reads
// keep working (the in-memory store stays loaded).
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.quit)
	<-s.commitDone
	<-s.compactDone
	err := s.stickyErr()
	if s.f != nil {
		if s.opts.Sync != SyncNever {
			if serr := s.f.Sync(); serr != nil && err == nil {
				err = serr
			}
		}
		if cerr := s.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		s.f = nil
	}
	return err
}

// CommittedSeq returns the sequence of the last durably committed group:
// the value LeaseInfoResp.StoreSeq reports so operators can compare a
// replica's fsync'd progress against its replication watermark.
func (s *Store) CommittedSeq() uint64 { return s.committedSeq.Load() }

// Stats returns the durability counters.
func (s *Store) Stats() Stats {
	s.segMu.Lock()
	segs := len(s.sealed) + 1
	s.segMu.Unlock()
	s.snapMu.Lock()
	snap := s.snapSeq
	s.snapMu.Unlock()
	return Stats{
		CommittedSeq: s.committedSeq.Load(),
		SnapshotSeq:  snap,
		Records:      s.records.Load(),
		GroupCommits: s.groupCommits.Load(),
		Fsyncs:       s.fsyncs.Load(),
		Compactions:  s.compactions.Load(),
		Segments:     segs,
	}
}

// MemStats exposes the read path's operation counters.
func (s *Store) MemStats() kv.Stats { return s.mem.Stats() }

func (s *Store) setFailed(err error) {
	s.failMu.Lock()
	if s.failErr == nil {
		s.failErr = fmt.Errorf("durable: store failed: %w", err)
	}
	s.failMu.Unlock()
}

func (s *Store) stickyErr() error {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	return s.failErr
}

// commitLoop is the group committer: it takes whatever requests are
// queued, writes them as consecutive WAL records in one file write, syncs
// once per the policy, applies them to the read path, and only then
// releases the callers.
func (s *Store) commitLoop() {
	defer close(s.commitDone)
	for {
		var first *request
		select {
		case first = <-s.reqCh:
		case <-s.quit:
			// Drain requests that won the race with Close.
			for {
				select {
				case r := <-s.reqCh:
					s.commitGroup(s.collect(r))
				default:
					return
				}
			}
		}
		s.commitGroup(s.collect(first))
	}
}

// maxBatchOps caps the ops coalesced into one group commit.
const maxBatchOps = 8192

// collect gathers the commit group: everything queued right now, up to
// maxBatchOps. It never waits for more writers — concurrent callers still
// coalesce because they queue behind the in-flight fsync.
func (s *Store) collect(first *request) []*request {
	group := []*request{first}
	for nops := len(first.ops); nops < maxBatchOps; {
		select {
		case r := <-s.reqCh:
			group = append(group, r)
			nops += len(r.ops)
		default:
			return group
		}
	}
	return group
}

func (s *Store) commitGroup(group []*request) {
	err := s.stickyErr()
	if err == nil {
		err = s.writeGroup(group)
		if err != nil {
			s.setFailed(err)
			err = s.stickyErr()
		}
	}
	for _, r := range group {
		r.done <- err
	}
}

// writeGroup makes one group durable: rotate if the segment is full,
// append every request as its own record, one write syscall, sync per
// policy, then apply to the read path in order.
func (s *Store) writeGroup(group []*request) error {
	if s.segSize >= s.opts.segmentBytes {
		if err := s.rotate(); err != nil {
			return err
		}
	}
	buf := s.encBuf[:0]
	firstSeq := s.nextSeq
	for _, r := range group {
		buf = appendRecord(buf, s.nextSeq, r.ops)
		s.nextSeq++
	}
	s.encBuf = buf[:0]
	if _, err := s.f.Write(buf); err != nil {
		return err
	}
	s.segSize += int64(len(buf))
	switch s.opts.Sync {
	case SyncAlways:
		if err := s.f.Sync(); err != nil {
			return err
		}
		s.fsyncs.Add(1)
	case SyncInterval:
		if time.Since(s.lastSync) >= s.opts.SyncEvery {
			if err := s.f.Sync(); err != nil {
				return err
			}
			s.fsyncs.Add(1)
			s.lastSync = time.Now()
		}
	}
	// Durable (per policy): apply to the read path, in commit order, then
	// publish the new committed sequence.
	for _, r := range group {
		s.applyOps(r.ops)
	}
	s.committedSeq.Store(firstSeq + uint64(len(group)) - 1)
	s.records.Add(uint64(len(group)))
	s.groupCommits.Add(1)
	if s.bytesSinceSnap.Add(int64(len(buf))) >= s.opts.compactBytes {
		select {
		case s.compactCh <- struct{}{}:
		default:
		}
	}
	return nil
}

func (s *Store) applyOps(ops []kv.Op) {
	for _, op := range ops {
		switch op.Kind {
		case kv.OpPut:
			s.mem.Put(op.Key, op.Value)
		case kv.OpDelete:
			s.mem.Delete(op.Key)
		}
	}
}

// rotate seals the active segment and starts a new one at the next
// sequence.
func (s *Store) rotate() error {
	if err := s.f.Sync(); err != nil {
		return err
	}
	s.fsyncs.Add(1)
	oldPath := s.f.Name()
	if err := s.f.Close(); err != nil {
		return err
	}
	f, err := createSegment(s.dir, s.nextSeq)
	if err != nil {
		return err
	}
	s.segMu.Lock()
	s.sealed = append(s.sealed, segmentInfo{firstSeq: s.activeFirst, path: oldPath})
	s.activeFirst = s.nextSeq
	s.segMu.Unlock()
	s.f = f
	s.segSize = walHeaderSize
	return nil
}

// createSegment creates wal-<firstSeq>.log with its magic header and
// fsyncs the directory so the file itself survives a crash.
func createSegment(dir string, firstSeq uint64) (*os.File, error) {
	path := filepath.Join(dir, segmentName(firstSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(walMagic[:]); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// syncDir fsyncs a directory so renames/creates/removes in it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
