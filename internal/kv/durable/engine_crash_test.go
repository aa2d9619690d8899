package durable_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/chunk"
	"repro/internal/kv/durable"
	"repro/internal/server"
	"repro/internal/wire"
)

var crashSpec = chunk.DigestSpec{Sum: true, Count: true}

func crashChunk(t *testing.T, idx uint64) []byte {
	t.Helper()
	start := int64(idx) * 100
	sealed, err := chunk.SealPlain(crashSpec, chunk.CompressionNone, idx, start, start+100,
		[]chunk.Point{{TS: start, Val: int64(idx + 1)}})
	if err != nil {
		t.Fatal(err)
	}
	return chunk.MarshalSealed(sealed)
}

// TestEngineSurvivesWALCutAnywhere: an engine ingests into a SyncAlways
// store, and a copy of its WAL is cut at every record boundary and at a few
// offsets inside a record — every image of the disk a kill -9 can leave.
// Each image must reopen to a store in which, for every stream, the index
// count, the set of chunk keys and the full-range aggregate agree with one
// another and with the same prefix of a never-crashed control. They can
// only agree everywhere if an insert is one WAL record: a record boundary
// inside an insert leaves chunks without index entries, or ancestors ahead
// of the count.
func TestEngineSurvivesWALCutAnywhere(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, err := durable.Open(dir, durable.Options{Sync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := server.New(st, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	specBytes, _ := crashSpec.MarshalBinary()
	cfg := wire.StreamConfig{Interval: 100, VectorLen: uint32(crashSpec.VectorLen()), Fanout: 4, DigestSpec: specBytes}
	streams := []string{"a", "b", "c"}
	next := map[string]uint64{}
	for _, uuid := range streams {
		if err := engine.CreateStream(uuid, cfg); err != nil {
			t.Fatal(err)
		}
	}
	// Interleaved inserts of uneven sizes, so records of different streams
	// alternate and batches straddle index nodes every way; a staged record
	// now and then, so its delete rides in an insert's record.
	for round, size := range []int{1, 3, 4, 7, 16, 2, 9} {
		for s, uuid := range streams {
			if (round+s)%3 == 0 {
				if resp, ok := engine.Handle(ctx, &wire.StageRecord{UUID: uuid, ChunkIndex: next[uuid], Seq: 1, Box: []byte("box")}).(*wire.Error); ok {
					t.Fatal(resp)
				}
			}
			blobs := make([][]byte, size+s)
			for i := range blobs {
				blobs[i] = crashChunk(t, next[uuid]+uint64(i))
			}
			for _, err := range engine.InsertChunkBatch(uuid, blobs) {
				if err != nil {
					t.Fatal(err)
				}
			}
			next[uuid] += uint64(len(blobs))
		}
	}
	// control answers the full-range aggregate of a stream's first n chunks.
	control := func(uuid string, n uint64) []uint64 {
		t.Helper()
		_, _, windows, err := engine.StatRange(ctx, []string{uuid}, 0, int64(n)*100, 0)
		if err != nil {
			t.Fatal(err)
		}
		return windows[0]
	}
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("expected one WAL segment, found %v (%v)", wals, err)
	}
	wal, err := os.ReadFile(wals[0])
	if err != nil {
		t.Fatal(err)
	}

	// Record boundaries: an 8-byte magic, then u32 length | u32 crc | payload.
	cuts := []int{8}
	for off := 8; off < len(wal); {
		size := 8 + int(binary.BigEndian.Uint32(wal[off:]))
		for _, inside := range []int{1, 8, 8 + 12, size / 2, size - 1} {
			if inside < size {
				cuts = append(cuts, off+inside)
			}
		}
		off += size
		cuts = append(cuts, off)
	}
	if want := len(streams) * (1 + 7 + 3); len(cuts) < want { // creates, inserts, some staged records
		t.Fatalf("only %d cut points in a WAL of at least %d records", len(cuts), want)
	}

	for _, cut := range cuts {
		img := t.TempDir()
		if err := os.WriteFile(filepath.Join(img, filepath.Base(wals[0])), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := durable.Open(img, durable.Options{Sync: durable.SyncNever})
		if err != nil {
			t.Fatalf("cut at %d: reopen: %v", cut, err)
		}
		recovered, err := server.New(re, server.Config{})
		if err != nil {
			t.Fatalf("cut at %d: engine over the recovered store: %v", cut, err)
		}
		for _, uuid := range recovered.ListStreams() {
			_, count, err := recovered.StreamInfo(uuid)
			if err != nil {
				t.Fatalf("cut at %d: %v", cut, err)
			}
			var keys []string
			re.Scan("c/"+uuid+"/", func(key string, _ []byte) bool {
				keys = append(keys, key)
				return true
			})
			if uint64(len(keys)) != count {
				t.Fatalf("cut at %d: stream %s has %d chunk keys but an index count of %d", cut, uuid, len(keys), count)
			}
			for i := uint64(0); i < count; i++ {
				if _, err := re.Get(fmt.Sprintf("c/%s/%x", uuid, i)); err != nil {
					t.Fatalf("cut at %d: stream %s chunk %d of %d: %v", cut, uuid, i, count, err)
				}
				if boxes, err := recovered.GetStaged(uuid, i); err != nil || len(boxes) != 0 {
					t.Fatalf("cut at %d: stream %s chunk %d is sealed but still has %d staged records (%v)", cut, uuid, i, len(boxes), err)
				}
			}
			if count == 0 {
				continue
			}
			_, _, windows, err := recovered.StatRange(ctx, []string{uuid}, 0, int64(count)*100, 0)
			if err != nil {
				t.Fatalf("cut at %d: stream %s full-range aggregate: %v", cut, uuid, err)
			}
			if want := control(uuid, count); !reflect.DeepEqual(windows[0], want) {
				t.Fatalf("cut at %d: stream %s aggregate over %d chunks = %v, the control's %v", cut, uuid, count, windows[0], want)
			}
			// The aggregate again from the other end of the tree: leaf by
			// leaf, so an ancestor that ran ahead of its leaves shows.
			sum := make([]uint64, len(windows[0]))
			_, _, perChunk, err := recovered.StatRange(ctx, []string{uuid}, 0, int64(count)*100, 1)
			if err != nil {
				t.Fatalf("cut at %d: stream %s per-chunk aggregates: %v", cut, uuid, err)
			}
			for _, w := range perChunk {
				for e := range sum {
					sum[e] += w[e]
				}
			}
			if !reflect.DeepEqual(sum, windows[0]) {
				t.Fatalf("cut at %d: stream %s leaves sum to %v, the root path to %v", cut, uuid, sum, windows[0])
			}
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
