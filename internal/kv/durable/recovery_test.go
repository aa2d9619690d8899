package durable

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/kv"
)

// applyScript runs a deterministic mutation script against a store: puts,
// overwrites, deletes, and batches, exercising every op shape recovery
// must reproduce.
func applyScript(t *testing.T, s kv.Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k/%04d", i%97)
		if err := s.Put(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("script put %d: %v", i, err)
		}
		if i%7 == 3 {
			if err := s.Delete(fmt.Sprintf("k/%04d", (i+13)%97)); err != nil {
				t.Fatalf("script delete %d: %v", i, err)
			}
		}
		if i%11 == 5 {
			if err := s.Batch([]kv.Op{
				{Kind: kv.OpPut, Key: fmt.Sprintf("b/%04d", i), Value: []byte("batch")},
				{Kind: kv.OpDelete, Key: fmt.Sprintf("b/%04d", i-11)},
				{Kind: kv.OpPut, Key: "b/last", Value: []byte(fmt.Sprintf("%d", i))},
			}); err != nil {
				t.Fatalf("script batch %d: %v", i, err)
			}
		}
	}
}

// TestSnapshotTailEqualsPureWAL runs the same script through a store that
// compacts mid-stream and one that never compacts; after restart the two
// recovered stores must dump identically — a snapshot plus the WAL tail
// past its watermark is exactly equivalent to replaying the whole log.
func TestSnapshotTailEqualsPureWAL(t *testing.T) {
	dirSnap, dirWAL := t.TempDir(), t.TempDir()

	snap := mustOpen(t, dirSnap, Options{})
	applyScript(t, snap, 150)
	if err := snap.Compact(); err != nil {
		t.Fatalf("mid-stream compact: %v", err)
	}
	applyScript2 := func(s kv.Store) {
		for i := 150; i < 300; i++ {
			if err := s.Put(fmt.Sprintf("k/%04d", i%97), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatalf("tail put: %v", err)
			}
		}
	}
	applyScript2(snap)
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}

	wal := mustOpen(t, dirWAL, Options{})
	applyScript(t, wal, 150)
	applyScript2(wal)
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	reSnap := mustOpen(t, dirSnap, Options{})
	defer reSnap.Close()
	reWAL := mustOpen(t, dirWAL, Options{})
	defer reWAL.Close()
	gotSnap, gotWAL := dump(t, reSnap), dump(t, reWAL)
	if !reflect.DeepEqual(gotSnap, gotWAL) {
		t.Fatalf("snapshot+tail (%d keys) != pure WAL (%d keys)", len(gotSnap), len(gotWAL))
	}
	// Sanity: the snapshotted store really did boot from a snapshot.
	if snaps, _ := listSnapshots(dirSnap); len(snaps) == 0 {
		t.Fatal("no snapshot on disk; the test exercised nothing")
	}
}

// TestTornFinalRecordTolerated cuts the active segment mid-record; boot
// must warn, truncate, recover everything before the tear, and keep
// accepting writes whose sequences continue from the recovered point.
func TestTornFinalRecordTolerated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 20; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %d (%v)", len(segs), err)
	}
	st, err := os.Stat(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the middle of the final record.
	if err := os.Truncate(segs[0].path, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	var warned bool
	re, err := Open(dir, Options{Logf: func(format string, args ...any) {
		if strings.Contains(format, "truncating") {
			warned = true
		}
		t.Logf(format, args...)
	}})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer re.Close()
	if !warned {
		t.Error("torn tail recovered without a warning")
	}
	if got := re.Len(); got != 19 {
		t.Fatalf("recovered %d keys, want 19 (the torn record was never acknowledged durable)", got)
	}
	if _, err := re.Get("k19"); err != kv.ErrNotFound {
		t.Fatalf("torn record's key resurfaced: %v", err)
	}
	// Writes continue; a second restart sees them.
	if err := re.Put("new", []byte("post-tear")); err != nil {
		t.Fatal(err)
	}
	if st := re.Stats(); st.CommittedSeq != 20 {
		t.Fatalf("committed seq after tear+write = %d, want 20 (19 recovered + 1 new)", st.CommittedSeq)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := mustOpen(t, dir, Options{})
	defer re2.Close()
	if v, err := re2.Get("new"); err != nil || string(v) != "post-tear" {
		t.Fatalf("post-tear write lost: %q, %v", v, err)
	}
}

// TestCompactionCrashBeforeTruncate models a compactor that crashed
// between the snapshot rename and the WAL truncation: the snapshot exists
// AND the WAL still holds every record it covers. Replay must skip the
// covered records (idempotency) and converge to the same state; the next
// compaction cleans up.
func TestCompactionCrashBeforeTruncate(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{segmentBytes: 512})
	applyScript(t, s, 100)
	// The crash: snapshot written and renamed, WAL untouched.
	w := s.committedSeq.Load()
	if err := s.writeSnapshotAt(w); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	want := dump(t, s)
	segsBefore, _ := listSegments(dir)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(segsBefore) < 2 {
		t.Fatalf("want multiple segments to make skipping observable, have %d", len(segsBefore))
	}

	var skippedLog bool
	re, err := Open(dir, Options{Logf: func(format string, args ...any) {
		if strings.Contains(format, "skipped") && len(args) >= 2 {
			if n, ok := args[1].(uint64); ok && n > 0 {
				skippedLog = true
			}
		}
		t.Logf(format, args...)
	}})
	if err != nil {
		t.Fatalf("open after compaction crash: %v", err)
	}
	defer re.Close()
	if got := dump(t, re); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay over covered snapshot diverged: %d keys, want %d", len(got), len(want))
	}
	if !skippedLog {
		t.Error("expected replay to report skipped already-covered records")
	}
	if st := re.Stats(); st.CommittedSeq != w {
		t.Fatalf("committed seq = %d, want %d", st.CommittedSeq, w)
	}
	// The interrupted compaction's cleanup completes on the next one.
	if err := re.Put("tail", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := re.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := re.Stats(); st.Segments != 1 {
		t.Fatalf("after recovery compaction: %d segments, want 1", st.Segments)
	}
}

// TestCorruptNewestSnapshotFallsBack corrupts the newest snapshot while
// the WAL still covers everything; boot must fall back (older snapshot or
// pure replay) and recover the full state.
func TestCorruptNewestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	applyScript(t, s, 80)
	w := s.committedSeq.Load()
	if err := s.writeSnapshotAt(w); err != nil { // snapshot, WAL untouched
		t.Fatal(err)
	}
	want := dump(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := listSnapshots(dir)
	if len(snaps) != 1 {
		t.Fatalf("snapshots: %d", len(snaps))
	}
	// Flip a byte in the middle: the CRC check must reject the file.
	data, err := os.ReadFile(snaps[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(snaps[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("open with corrupt snapshot: %v", err)
	}
	defer re.Close()
	if got := dump(t, re); !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback recovery diverged: %d keys, want %d", len(got), len(want))
	}
}

// TestSequenceGapFailsLoudly hand-writes a WAL whose sequences jump: a
// missing committed record must abort recovery, never be silently
// skipped.
func TestSequenceGapFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	var buf []byte
	buf = append(buf, walMagic[:]...)
	buf = appendRecord(buf, 1, []kv.Op{{Kind: kv.OpPut, Key: "a", Value: []byte("1")}})
	buf = appendRecord(buf, 3, []kv.Op{{Kind: kv.OpPut, Key: "c", Value: []byte("3")}})
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Logf: t.Logf}); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("gap in sequences: err = %v, want gap error", err)
	}
}

// TestDuplicateAndRegressingSequencesSkipped hand-writes duplicates and a
// regression; replay must apply each committed record once, in order.
func TestDuplicateAndRegressingSequencesSkipped(t *testing.T) {
	dir := t.TempDir()
	var buf []byte
	buf = append(buf, walMagic[:]...)
	buf = appendRecord(buf, 1, []kv.Op{{Kind: kv.OpPut, Key: "k", Value: []byte("one")}})
	buf = appendRecord(buf, 2, []kv.Op{{Kind: kv.OpPut, Key: "k", Value: []byte("two")}})
	buf = appendRecord(buf, 2, []kv.Op{{Kind: kv.OpPut, Key: "k", Value: []byte("dup")}})  // duplicate
	buf = appendRecord(buf, 1, []kv.Op{{Kind: kv.OpPut, Key: "k", Value: []byte("back")}}) // regression
	buf = appendRecord(buf, 3, []kv.Op{{Kind: kv.OpPut, Key: "k", Value: []byte("three")}})
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	if v, err := s.Get("k"); err != nil || string(v) != "three" {
		t.Fatalf("k = %q, %v; want \"three\" (duplicates and regressions skipped)", v, err)
	}
	if st := s.Stats(); st.CommittedSeq != 3 {
		t.Fatalf("committed seq = %d, want 3", st.CommittedSeq)
	}
}

// TestCorruptMiddleSegmentFails flips a byte in a NON-last segment:
// that is corruption, not a torn tail, and recovery must refuse to serve.
func TestCorruptMiddleSegmentFails(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{segmentBytes: 256})
	for i := 0; i < 60; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), []byte("vvvvvvvv")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments, have %d", len(segs))
	}
	mid := segs[1]
	data, err := os.ReadFile(mid.path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(mid.path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Logf: t.Logf}); err == nil {
		t.Fatal("corrupt middle segment recovered silently")
	}
}

// TestStaleTempFilesSwept ensures half-written compactor temp files are
// removed at boot and never mistaken for snapshots.
func TestStaleTempFilesSwept(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, snapshotFileName(99)+".tmp")
	if err := os.WriteFile(stale, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir, Options{})
	defer re.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived boot: %v", err)
	}
	if v, err := re.Get("a"); err != nil || string(v) != "1" {
		t.Fatalf("recovery with stale temp: %q, %v", v, err)
	}
}

// TestWatermarkBeyondWAL models a snapshot whose watermark exceeds the
// remaining WAL (segments deleted, snapshot kept): recovery should
// succeed with the snapshot alone, and new sequences continue past the
// watermark.
func TestWatermarkBeyondWAL(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 30; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Remove every WAL segment; only the snapshot remains.
	segs, _ := listSegments(dir)
	for _, seg := range segs {
		if err := os.Remove(seg.path); err != nil {
			t.Fatal(err)
		}
	}
	re := mustOpen(t, dir, Options{})
	defer re.Close()
	if re.Len() != 30 {
		t.Fatalf("recovered %d keys from snapshot alone, want 30", re.Len())
	}
	if st := re.Stats(); st.CommittedSeq != 30 {
		t.Fatalf("committed seq = %d, want 30 (watermark)", st.CommittedSeq)
	}
	if err := re.Put("after", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if st := re.Stats(); st.CommittedSeq != 31 {
		t.Fatalf("seq after watermark-only boot = %d, want 31", st.CommittedSeq)
	}
}

// readRecordBytes decodes a single framed record from buf.
func readRecordBytes(t *testing.T, buf []byte) (uint64, []kv.Op, int64, error) {
	t.Helper()
	return readRecord(bufio.NewReader(bytes.NewReader(buf)))
}

// TestRecordEncodingRoundTrip pins the frame layout: header fields are
// big-endian, CRC covers the payload only.
func TestRecordEncodingRoundTrip(t *testing.T) {
	ops := []kv.Op{
		{Kind: kv.OpPut, Key: "k1", Value: []byte("hello")},
		{Kind: kv.OpDelete, Key: "k2"},
		{Kind: kv.OpPut, Key: "", Value: nil},
	}
	buf := appendRecord(nil, 42, ops)
	payloadLen := binary.BigEndian.Uint32(buf[:4])
	if int(payloadLen) != len(buf)-8 {
		t.Fatalf("length field %d, frame %d", payloadLen, len(buf))
	}
	seq, got, size, err := readRecordBytes(t, buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if seq != 42 || size != int64(len(buf)) {
		t.Fatalf("seq=%d size=%d", seq, size)
	}
	if len(got) != len(ops) {
		t.Fatalf("ops: %d, want %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i].Kind != ops[i].Kind || got[i].Key != ops[i].Key || string(got[i].Value) != string(ops[i].Value) {
			t.Errorf("op %d: %+v != %+v", i, got[i], ops[i])
		}
	}
}
