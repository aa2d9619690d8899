package server

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/wire"
)

// parkingStore parks the first store batch that writes or deletes a key
// under prefix until release closes, so a test can land another request
// while a mutation's write is in flight. That batch then fails with fail,
// if it is set, instead of applying.
type parkingStore struct {
	*kv.MemStore
	prefix  string
	fail    error
	once    sync.Once
	parked  chan struct{} // closed once the batch is parked
	release chan struct{}
}

func newParkingStore(prefix string) *parkingStore {
	return &parkingStore{MemStore: kv.NewMemStore(), prefix: prefix,
		parked: make(chan struct{}), release: make(chan struct{})}
}

func (s *parkingStore) Batch(ops []kv.Op) error {
	for _, op := range ops {
		if strings.HasPrefix(op.Key, s.prefix) {
			var err error
			s.once.Do(func() {
				close(s.parked)
				<-s.release
				err = s.fail
			})
			if err != nil {
				return err
			}
			break
		}
	}
	return s.MemStore.Batch(ops)
}

// TestDeleteStreamWaitsForInFlightInsert: a DeleteStream that arrives while
// an insert's store write is in flight waits for it on the stream's order
// lock. Nothing the insert wrote outlives the stream, and a stream
// re-created under the same UUID starts again at chunk 0.
func TestDeleteStreamWaitsForInFlightInsert(t *testing.T) {
	store := newParkingStore(chunkKey("s", 4))
	e, err := New(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := newHarness(t).cfg
	ss := newStreamSealer(t, 7)
	blobs := make([][]byte, 5)
	for i := range blobs {
		blobs[i] = ss.sealed(t, uint64(i))
	}
	wantOK := func(what string, resp wire.Message) {
		t.Helper()
		if _, ok := resp.(*wire.OK); !ok {
			t.Fatalf("%s: %v", what, resp)
		}
	}
	wantOK("create", e.Handle(ctx, &wire.CreateStream{UUID: "s", Cfg: cfg}))
	for i := 0; i < 4; i++ {
		wantOK("insert", e.Handle(ctx, &wire.InsertChunk{UUID: "s", Chunk: blobs[i]}))
	}

	inserted := make(chan wire.Message, 1)
	go func() { inserted <- e.Handle(ctx, &wire.InsertChunk{UUID: "s", Chunk: blobs[4]}) }()
	<-store.parked
	deleted := make(chan wire.Message, 1)
	go func() { deleted <- e.Handle(ctx, &wire.DeleteStream{UUID: "s"}) }()
	// An unordered delete finishes well inside this; an ordered one waits
	// for the parked insert.
	var del wire.Message
	select {
	case del = <-deleted:
	case <-time.After(100 * time.Millisecond):
	}
	close(store.release)
	wantOK("insert in flight", <-inserted)
	if del == nil {
		del = <-deleted
	}
	wantOK("delete", del)

	for _, prefix := range []string{"c/s/", "i/s/", "m/s", "r/s/"} {
		var left []string
		store.Scan(prefix, func(key string, _ []byte) bool {
			left = append(left, key)
			return true
		})
		if len(left) > 0 {
			t.Errorf("keys under %q outlived the stream: %v", prefix, left)
		}
	}
	wantOK("re-create", e.Handle(ctx, &wire.CreateStream{UUID: "s", Cfg: cfg}))
	wantOK("chunk 0 of the re-created stream", e.Handle(ctx, &wire.InsertChunk{UUID: "s", Chunk: blobs[0]}))
}

// TestRetiredEntryAnswersAsAMiss: a mutation that waits on the order lock
// of an entry a delete or a handoff release retires answers exactly as a
// lookup miss would: CodeNotFound after a delete, CodeWrongShard with the
// move's epoch after a release.
func TestRetiredEntryAnswersAsAMiss(t *testing.T) {
	for _, c := range []struct {
		name   string
		retire func(e *Engine, h *held) error
		code   uint32
		aux    uint64
	}{
		{"delete", func(e *Engine, h *held) error { return e.deleteStream(h) }, wire.CodeNotFound, 0},
		{"release", func(e *Engine, h *held) error { return e.handoffRelease(h, 7) }, wire.CodeWrongShard, 7},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newHarness(t)
			h.createStream(t, "s")
			held := h.engine.lockOrder("s")
			waited := make(chan wire.Message, 1)
			go func() {
				waited <- h.engine.Handle(context.Background(), &wire.PutGrant{UUID: "s", Principal: "p", GrantID: "g", Blob: []byte("x")})
			}()
			// Whether the grant is parked on the lock or has not looked the
			// stream up yet, it must get the miss answer.
			time.Sleep(10 * time.Millisecond)
			if err := c.retire(h.engine, &held); err != nil {
				t.Fatal(err)
			}
			h.engine.unlockOrder(&held)
			resp, ok := (<-waited).(*wire.Error)
			if !ok || resp.Code != c.code || resp.Aux != c.aux {
				t.Fatalf("grant on a retired stream -> %#v, want code %d aux %d", resp, c.code, c.aux)
			}
			if n := h.store.Len(); n > 1 { // a release leaves its tombstone
				t.Errorf("%d keys left after the stream was retired", n)
			}
		})
	}
}

// TestReadDuringRetirementIsAMiss: reads take no order lock, so a read that
// arrives while a delete or a handoff release is deleting the stream's keys
// must already answer as a miss — CodeNotFound, or CodeWrongShard with the
// move's epoch — not from a half-deleted stream.
func TestReadDuringRetirementIsAMiss(t *testing.T) {
	for _, c := range []struct {
		name   string
		retire wire.Message
		code   uint32
		aux    uint64
	}{
		{"delete", &wire.DeleteStream{UUID: "s"}, wire.CodeNotFound, 0},
		{"release", &wire.HandoffComplete{UUID: "s", Epoch: 7, Action: wire.HandoffRelease}, wire.CodeWrongShard, 7},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newHarness(t)
			store := newParkingStore(metaKey("s")) // only the retiring batch deletes the meta
			var err error
			if h.engine, err = New(store, Config{}); err != nil {
				t.Fatal(err)
			}
			h.createStream(t, "s")
			h.ingest(t, "s", 3)
			ctx := context.Background()
			retired := make(chan wire.Message, 1)
			go func() { retired <- h.engine.Handle(ctx, c.retire) }()
			<-store.parked
			for _, read := range []wire.Message{
				&wire.GetRange{UUID: "s", Ts: 0, Te: 300},
				&wire.StreamInfo{UUID: "s"},
			} {
				resp, ok := h.engine.Handle(ctx, read).(*wire.Error)
				if !ok || resp.Code != c.code || resp.Aux != c.aux {
					t.Errorf("%T while the stream is retired -> %#v, want code %d aux %d", read, resp, c.code, c.aux)
				}
			}
			close(store.release)
			if resp, ok := (<-retired).(*wire.OK); !ok {
				t.Fatalf("%s: %#v", c.name, resp)
			}
		})
	}
}

// TestFailedReleaseKeepsTheStreamFenced: a handoff release whose store
// batch fails leaves the source stream as it found it: served, and still
// behind its drain fence, so a write from a router on the old ring gets
// CodeWrongShard rather than landing on a source the destination has
// already taken over from. The coordinator's retry then goes through.
func TestFailedReleaseKeepsTheStreamFenced(t *testing.T) {
	ctx := context.Background()
	h := newHarness(t)
	store := newParkingStore(metaKey("s"))
	store.fail = errors.New("store unavailable")
	close(store.release)
	var err error
	if h.engine, err = New(store, Config{}); err != nil {
		t.Fatal(err)
	}
	e := h.engine
	h.createStream(t, "s")
	blobs := sealBlobs(t, h, 3)
	for _, blob := range blobs[:2] {
		if err := errOf(e.Handle(ctx, &wire.InsertChunk{UUID: "s", Chunk: blob})); err != nil {
			t.Fatal(err)
		}
	}
	if err := errOf(e.Handle(ctx, &wire.HandoffComplete{UUID: "s", Epoch: 5, Action: wire.HandoffFence})); err != nil {
		t.Fatal(err)
	}
	if err := errOf(e.Handle(ctx, &wire.HandoffComplete{UUID: "s", Epoch: 5, Action: wire.HandoffRelease})); err == nil {
		t.Fatal("release over a failing store succeeded")
	}
	stale := wire.ContextWithEpoch(context.Background(), 4)
	resp, ok := e.Handle(stale, &wire.InsertChunk{UUID: "s", Chunk: blobs[2]}).(*wire.Error)
	if !ok || resp.Code != wire.CodeWrongShard || resp.Aux != 5 {
		t.Fatalf("stale-epoch insert after a failed release -> %#v, want CodeWrongShard aux 5", resp)
	}
	if _, count, err := e.StreamInfo("s"); err != nil || count != 2 {
		t.Fatalf("source stream after a failed release: count %d, %v", count, err)
	}
	if err := errOf(e.Handle(ctx, &wire.HandoffComplete{UUID: "s", Epoch: 5, Action: wire.HandoffRelease})); err != nil {
		t.Fatalf("retried release: %v", err)
	}
	resp, ok = e.Handle(ctx, &wire.StreamInfo{UUID: "s"}).(*wire.Error)
	if !ok || resp.Code != wire.CodeWrongShard || resp.Aux != 5 {
		t.Fatalf("released stream -> %#v, want CodeWrongShard aux 5", resp)
	}
}

// TestMigrationMessagesOrderOnBareEngine: a failed migration's HandoffAbort
// can reach the destination while its IngestSnapshot's store write is in
// flight, though the stream is not served there yet. Both take the order
// lock of the UUID's bare table entry, so the abort waits for the ingest
// and discards the partial import instead of applying first and leaving
// it behind. The unreplicated twin of the replica's
// TestMigrationMessagesLogInApplyOrder.
func TestMigrationMessagesOrderOnBareEngine(t *testing.T) {
	store := newParkingStore("c/s/")
	e, err := New(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ingest := &wire.IngestSnapshot{UUID: "s", Items: []wire.KVItem{
		{Key: chunkKey("s", 0), Value: []byte("chunk")},
		{Key: metaKey("s"), Value: []byte("meta")},
	}}
	ingested := make(chan wire.Message, 1)
	go func() { ingested <- e.Handle(ctx, ingest) }()
	<-store.parked
	aborted := make(chan wire.Message, 1)
	go func() { aborted <- e.Handle(ctx, &wire.HandoffComplete{UUID: "s", Action: wire.HandoffAbort}) }()
	time.Sleep(20 * time.Millisecond) // an unordered abort applies now
	close(store.release)
	for _, ch := range []chan wire.Message{ingested, aborted} {
		if resp, ok := (<-ch).(*wire.OK); !ok {
			t.Fatalf("%#v", resp)
		}
	}
	store.Scan("", func(key string, _ []byte) bool {
		t.Errorf("key %q outlived the aborted import", key)
		return true
	})
}

// tableEntries copies the engine's stream table.
func tableEntries(e *Engine) map[string]*entry {
	all := make(map[string]*entry)
	for i := range e.stripes {
		st := &e.stripes[i]
		st.mu.RLock()
		for uuid, en := range st.entries {
			all[uuid] = en
		}
		st.mu.RUnlock()
	}
	return all
}

// TestBareEntriesDoNotAccumulate: a mutation naming a UUID the engine does
// not serve takes the order lock of a bare table entry, which goes again
// once it guards nothing. Thousands of unknown UUIDs, each hit by several
// writers at once with inserts, deletes, grants, import aborts and a fence
// armed then lifted, leave no entry behind; a fenced UUID and a tombstoned
// one keep theirs, and ListStreams lists neither.
func TestBareEntriesDoNotAccumulate(t *testing.T) {
	h := newHarness(t)
	e := h.engine
	h.createStream(t, "live")
	blob := sealBlobs(t, h, 1)[0]
	ctx := context.Background()
	wantOK := func(what string, resp wire.Message) {
		t.Helper()
		if _, ok := resp.(*wire.OK); !ok {
			t.Fatalf("%s: %#v", what, resp)
		}
	}
	wantOK("fence", e.Handle(ctx, &wire.HandoffComplete{UUID: "fenced", Epoch: 3, Action: wire.HandoffFence}))
	h.createStream(t, "moved")
	wantOK("release", e.Handle(ctx, &wire.HandoffComplete{UUID: "moved", Epoch: 4, Action: wire.HandoffRelease}))

	const unknown, writers = 2000, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < unknown; i++ {
				uuid := fmt.Sprintf("unknown-%d", i)
				for _, req := range []wire.Message{
					&wire.InsertChunk{UUID: uuid, Chunk: blob},
					&wire.DeleteStream{UUID: uuid},
					&wire.PutGrant{UUID: uuid, Principal: "p", GrantID: "g", Blob: []byte("x")},
				} {
					// Another writer's fence may be armed: either miss answer will do.
					if resp, ok := e.Handle(ctx, req).(*wire.Error); !ok || (resp.Code != wire.CodeNotFound && resp.Code != wire.CodeWrongShard) {
						t.Errorf("%T on an unknown stream -> %#v", req, resp)
						return
					}
				}
				for _, req := range []*wire.HandoffComplete{
					{UUID: uuid, Action: wire.HandoffAbort},
					{UUID: uuid, Epoch: 5, Action: wire.HandoffFence},
					{UUID: uuid, Action: wire.HandoffFence},
				} {
					if resp, ok := e.Handle(ctx, req).(*wire.OK); !ok {
						t.Errorf("handoff action %d on an unknown stream -> %#v", req.Action, resp)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	all := tableEntries(e)
	for _, uuid := range []string{"live", "fenced", "moved"} {
		if all[uuid] == nil {
			t.Errorf("%q has no table entry", uuid)
		}
		delete(all, uuid)
	}
	if len(all) > 0 {
		t.Errorf("%d bare entries left behind", len(all))
	}
	if got := e.ListStreams(); !reflect.DeepEqual(got, []string{"live"}) {
		t.Errorf("ListStreams = %q, want only the live stream", got)
	}
	stale := wire.ContextWithEpoch(ctx, 2)
	if resp, ok := e.Handle(stale, &wire.PutGrant{UUID: "fenced", Principal: "p", GrantID: "g", Blob: []byte("x")}).(*wire.Error); !ok || resp.Code != wire.CodeWrongShard || resp.Aux != 3 {
		t.Errorf("stale write to the fenced UUID -> %#v, want CodeWrongShard aux 3", resp)
	}
	if resp, ok := e.Handle(ctx, &wire.StreamInfo{UUID: "moved"}).(*wire.Error); !ok || resp.Code != wire.CodeWrongShard || resp.Aux != 4 {
		t.Errorf("read of the moved UUID -> %#v, want CodeWrongShard aux 4", resp)
	}
}

// TestFenceArmedOnARemovedEntryHolds: a fence request that waits on a bare
// entry's order lock while the holder lets go, taking the entry out of the
// table, must arm the fence on the UUID's entry in the table, not on the
// one it waited for; otherwise the UUID has two order locks and a stale
// write passes the fence.
func TestFenceArmedOnARemovedEntryHolds(t *testing.T) {
	e := newHarness(t).engine
	ctx := context.Background()
	bare := e.lockOrder("s")
	fenced := make(chan wire.Message, 1)
	go func() {
		fenced <- e.Handle(ctx, &wire.HandoffComplete{UUID: "s", Epoch: 5, Action: wire.HandoffFence})
	}()
	time.Sleep(10 * time.Millisecond) // let the fence wait on the lock
	e.unlockOrder(&bare)
	if resp, ok := (<-fenced).(*wire.OK); !ok {
		t.Fatalf("fence: %#v", resp)
	}
	stale := wire.ContextWithEpoch(ctx, 4)
	resp, ok := e.Handle(stale, &wire.PutGrant{UUID: "s", Principal: "p", GrantID: "g", Blob: []byte("x")}).(*wire.Error)
	if !ok || resp.Code != wire.CodeWrongShard || resp.Aux != 5 {
		t.Fatalf("stale write after the fence -> %#v, want CodeWrongShard aux 5", resp)
	}
}
