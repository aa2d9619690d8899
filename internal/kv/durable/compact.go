package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/kv"
)

// Snapshots are full copies of the store in the kv snapshot format
// (magic, length-prefixed records, trailing CRC-32), named
// snapshot-<watermark>.tcsnap where the watermark is the highest WAL
// sequence the snapshot is guaranteed to cover. The snapshot is written
// from the live store while commits continue, so it may additionally
// contain the effects of later sequences — replay is idempotent (records
// at or below the store's recovered state are re-applied or skipped
// harmlessly), so a fuzzy snapshot plus the full WAL tail past the
// watermark always converges to the exact committed state.

func snapshotFileName(watermark uint64) string {
	return fmt.Sprintf("snapshot-%020d.tcsnap", watermark)
}

func parseSnapshotName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snapshot-") || !strings.HasSuffix(name, ".tcsnap") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snapshot-"), ".tcsnap"), 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

type snapshotInfo struct {
	watermark uint64
	path      string
}

// listSnapshots returns the snapshots in dir, newest first.
func listSnapshots(dir string) ([]snapshotInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snaps []snapshotInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSnapshotName(e.Name()); ok {
			snaps = append(snaps, snapshotInfo{watermark: seq, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].watermark > snaps[j].watermark })
	return snaps, nil
}

// recover rebuilds the in-memory read path: newest valid snapshot first
// (a snapshot that fails its CRC — a torn write from a crashed compactor
// on a pre-atomic-rename layout, or disk rot — is skipped with a warning
// and the next older one is tried), then the WAL tail past the loaded
// watermark. Finishes by opening the active segment for append.
func (s *Store) recover() error {
	snaps, err := listSnapshots(s.dir)
	if err != nil {
		return err
	}
	var watermark uint64
	s.mem = kv.NewMemStore()
	for _, snap := range snaps {
		if err := readSnapshotFile(snap.path, s.mem); err != nil {
			s.opts.Logf("durable: snapshot %s unreadable (%v); trying older", filepath.Base(snap.path), err)
			s.mem = kv.NewMemStore() // a partial load must not leak in
			continue
		}
		watermark = snap.watermark
		break
	}
	segs, err := listSegments(s.dir)
	if err != nil {
		return err
	}
	res, err := replaySegments(segs, watermark, func(_ uint64, ops []kv.Op) error {
		s.applyOps(ops)
		return nil
	}, s.opts.Logf)
	if err != nil {
		return err
	}
	if res.applied > 0 || res.skipped > 0 || res.truncated {
		s.opts.Logf("durable: replayed %d wal records (skipped %d already covered, torn tail: %v), committed seq %d",
			res.applied, res.skipped, res.truncated, res.lastSeq)
	}
	s.nextSeq = res.lastSeq + 1
	s.committedSeq.Store(res.lastSeq)
	s.snapSeq = watermark

	// Reopen the newest segment for append (replay may have truncated or
	// deleted it), or start a fresh one.
	segs, err = listSegments(s.dir)
	if err != nil {
		return err
	}
	if n := len(segs); n > 0 {
		last := segs[n-1]
		f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		s.f = f
		s.segSize = st.Size()
		s.activeFirst = last.firstSeq
		s.sealed = append([]segmentInfo(nil), segs[:n-1]...)
	} else {
		f, err := createSegment(s.dir, s.nextSeq)
		if err != nil {
			return err
		}
		s.f = f
		s.segSize = walHeaderSize
		s.activeFirst = s.nextSeq
	}
	return nil
}

// readSnapshotFile loads one snapshot file through the CRC-checked
// kv.ReadSnapshot decoder.
func readSnapshotFile(path string, dst kv.Store) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return kv.ReadSnapshot(f, dst)
}

// compactLoop runs compactions when the committer signals enough WAL
// growth.
func (s *Store) compactLoop() {
	defer close(s.compactDone)
	for {
		select {
		case <-s.quit:
			return
		case <-s.compactCh:
		}
		if err := s.Compact(); err != nil {
			s.opts.Logf("durable: compaction failed: %v", err)
		}
	}
}

// Compact writes a snapshot at the current committed sequence and deletes
// the WAL segments it fully covers. Safe to call any time; concurrent
// calls serialize. A crash at ANY point is recoverable: before the rename
// the temp file is invisible (and swept at boot); between the rename and
// the segment deletes, replay just skips the sequences the new snapshot
// already covers.
func (s *Store) Compact() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	w := s.committedSeq.Load()
	if w == 0 || w == s.snapSeq {
		return nil // nothing new to cover
	}
	if err := s.writeSnapshotAt(w); err != nil {
		return err
	}
	s.pruneSnapshots(w)
	s.truncateWAL(w)
	s.snapSeq = w
	s.bytesSinceSnap.Store(0)
	s.compactions.Add(1)
	return nil
}

// writeSnapshotAt writes snapshot-<w>.tcsnap atomically. Split from
// Compact so crash-recovery tests can stop exactly between the snapshot
// rename and the WAL truncation.
func (s *Store) writeSnapshotAt(w uint64) error {
	return kv.WriteSnapshotFile(filepath.Join(s.dir, snapshotFileName(w)), s.mem)
}

// pruneSnapshots deletes snapshots older than the one at w; best effort
// (a leftover older snapshot is harmless — boot prefers the newest).
func (s *Store) pruneSnapshots(w uint64) {
	snaps, err := listSnapshots(s.dir)
	if err != nil {
		return
	}
	for _, snap := range snaps {
		if snap.watermark < w {
			if err := os.Remove(snap.path); err != nil {
				s.opts.Logf("durable: pruning snapshot %s: %v", filepath.Base(snap.path), err)
			}
		}
	}
}

// truncateWAL deletes sealed segments every record of which is at or
// below w. A segment's coverage ends where the next segment begins; the
// active segment is never deleted.
func (s *Store) truncateWAL(w uint64) {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	kept := s.sealed[:0]
	for i, seg := range s.sealed {
		next := s.activeFirst
		if i+1 < len(s.sealed) {
			next = s.sealed[i+1].firstSeq
		}
		if next <= w+1 && len(kept) == 0 {
			// Fully covered AND contiguous with the deleted prefix (never
			// leave a hole in the middle of the WAL).
			if err := os.Remove(seg.path); err != nil {
				s.opts.Logf("durable: removing covered wal segment %s: %v", filepath.Base(seg.path), err)
				kept = append(kept, seg)
			}
		} else {
			kept = append(kept, seg)
		}
	}
	s.sealed = kept
	syncDir(s.dir)
}
