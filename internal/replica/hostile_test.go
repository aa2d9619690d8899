package replica

import (
	"context"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/server"
	"repro/internal/wire"
)

// newBareNode returns a Node with no TCP server — hostile frames are
// injected straight into Handle, which is exactly what a compromised or
// buggy peer could do over the wire.
func newBareNode(t testing.TB) *Node {
	t.Helper()
	node, err := New(kv.NewMemStore(), server.Config{}, Options{
		Self: "victim:1", Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	return node
}

// record marshals a request as a replication log record.
func record(m wire.Message) []byte { return wire.Marshal(m) }

func wantErr(t testing.TB, resp wire.Message, code uint32) *wire.Error {
	t.Helper()
	errMsg, ok := resp.(*wire.Error)
	if !ok || errMsg.Code != code {
		t.Fatalf("got %#v, want error code %d", resp, code)
	}
	return errMsg
}

// TestHostileFollowerRefusesGap: a frame that starts past watermark+1 is
// refused with the follower's true watermark and nothing is applied.
func TestHostileFollowerRefusesGap(t *testing.T) {
	node := newBareNode(t)
	ctx := context.Background()
	errMsg := wantErr(t, node.Handle(ctx, &wire.ReplAppend{
		Epoch: 1, FirstSeq: 5,
		Records: [][]byte{record(&wire.CreateStream{UUID: "evil", Cfg: testCfg()})},
	}), wire.CodeReplGap)
	if errMsg.Aux != 0 {
		t.Errorf("gap reported watermark %d, want 0", errMsg.Aux)
	}
	// Nothing was applied: the stream must not exist.
	if _, _, wm := node.Status(); wm != 0 {
		t.Errorf("watermark advanced to %d on a gapped frame", wm)
	}
	resp := node.Handle(ctx, &wire.StreamInfo{UUID: "evil"})
	if _, isErr := resp.(*wire.Error); !isErr {
		t.Error("gapped record was applied")
	}
}

// TestHostileFollowerDuplicateIsIdempotent: re-sending an applied prefix
// acks without re-applying (re-applying CreateStream would fail).
func TestHostileFollowerDuplicateIsIdempotent(t *testing.T) {
	node := newBareNode(t)
	ctx := context.Background()
	frame := &wire.ReplAppend{Epoch: 1, FirstSeq: 1,
		Records: [][]byte{record(&wire.CreateStream{UUID: "s", Cfg: testCfg()})}}
	if ack, ok := node.Handle(ctx, frame).(*wire.ReplAck); !ok || ack.Watermark != 1 {
		t.Fatalf("first apply -> %#v", ack)
	}
	// Exact duplicate: idempotent ack at the same watermark.
	if ack, ok := node.Handle(ctx, frame).(*wire.ReplAck); !ok || ack.Watermark != 1 {
		t.Fatalf("duplicate -> %#v", ack)
	}
	// Overlapping frame: the applied prefix is skipped, the suffix lands.
	overlap := &wire.ReplAppend{Epoch: 1, FirstSeq: 1, Records: [][]byte{
		record(&wire.CreateStream{UUID: "s", Cfg: testCfg()}),
		record(&wire.InsertChunk{UUID: "s", Chunk: testSealedChunk(t, 0)}),
	}}
	if ack, ok := node.Handle(ctx, overlap).(*wire.ReplAck); !ok || ack.Watermark != 2 {
		t.Fatalf("overlap -> %#v", ack)
	}
}

// TestHostileFollowerRefusesDivergence: a record the engine rejects (here
// a duplicate CreateStream shipped as a *new* sequence) halts the
// follower loudly instead of silently skipping it.
func TestHostileFollowerRefusesDivergence(t *testing.T) {
	node := newBareNode(t)
	ctx := context.Background()
	if _, ok := node.Handle(ctx, &wire.ReplAppend{Epoch: 1, FirstSeq: 1,
		Records: [][]byte{record(&wire.CreateStream{UUID: "s", Cfg: testCfg()})}}).(*wire.ReplAck); !ok {
		t.Fatal("setup apply failed")
	}
	wantErr(t, node.Handle(ctx, &wire.ReplAppend{Epoch: 1, FirstSeq: 2,
		Records: [][]byte{record(&wire.CreateStream{UUID: "s", Cfg: testCfg()})}}), wire.CodeInternal)
	if _, _, wm := node.Status(); wm != 1 {
		t.Errorf("watermark advanced to %d past a diverged record", wm)
	}
}

// TestHostileFollowerRefusesNonMutations: a replicated read (or a nested
// replication frame) is not a legal log record.
func TestHostileFollowerRefusesNonMutations(t *testing.T) {
	node := newBareNode(t)
	ctx := context.Background()
	wantErr(t, node.Handle(ctx, &wire.ReplAppend{Epoch: 1, FirstSeq: 1,
		Records: [][]byte{record(&wire.StreamInfo{UUID: "s"})}}), wire.CodeBadRequest)
	wantErr(t, node.Handle(ctx, &wire.ReplAppend{Epoch: 1, FirstSeq: 1,
		Records: [][]byte{record(&wire.ReplAppend{Epoch: 9, FirstSeq: 1})}}), wire.CodeBadRequest)
	// An undecodable record likewise.
	wantErr(t, node.Handle(ctx, &wire.ReplAppend{Epoch: 1, FirstSeq: 1,
		Records: [][]byte{{0xFF, 0xFE, 0xFD}}}), wire.CodeBadRequest)
	if _, _, wm := node.Status(); wm != 0 {
		t.Errorf("watermark advanced to %d on refused records", wm)
	}
}

// TestHostileEpochRules: stale epochs are refused with the known epoch,
// epoch 0 is never legal, and an equal-epoch competing leader is refused.
func TestHostileEpochRules(t *testing.T) {
	node := newBareNode(t)
	ctx := context.Background()
	// Adopt epoch 5.
	if _, ok := node.Handle(ctx, &wire.ReplAppend{Epoch: 5, FirstSeq: 1}).(*wire.ReplAck); !ok {
		t.Fatal("adoption heartbeat failed")
	}
	// Stale epoch: refused, deposing the sender.
	errMsg := wantErr(t, node.Handle(ctx, &wire.ReplAppend{Epoch: 3, FirstSeq: 1,
		Records: [][]byte{record(&wire.CreateStream{UUID: "evil", Cfg: testCfg()})}}), wire.CodeWrongShard)
	if errMsg.Aux != 5 {
		t.Errorf("refusal carried epoch %d, want 5", errMsg.Aux)
	}
	// Epoch 0 is reserved.
	wantErr(t, node.Handle(ctx, &wire.ReplAppend{Epoch: 0, FirstSeq: 1}), wire.CodeBadRequest)
	wantErr(t, node.Handle(ctx, &wire.ReplSnapshot{Epoch: 0, First: true}), wire.CodeBadRequest)
	// A promotion that does not advance the epoch is refused.
	wantErr(t, node.Handle(ctx, &wire.Promote{Epoch: 5, Leader: "victim:1"}), wire.CodeWrongShard)

	// An equal-epoch append against a live leader is a competing claim.
	leader := newBareNode(t)
	leader.Lead(nil)
	wantErr(t, leader.Handle(ctx, &wire.ReplAppend{Epoch: 1, FirstSeq: 1}), wire.CodeWrongShard)
}

// TestPromoteMidFrameStopsStaleApplies: replication frames on one
// connection are serialized, but a Promote arrives on another. A frame
// in flight from the old leader must stop applying the instant the node
// moves to a higher epoch — every record the engine applied must be one
// the node's post-promotion watermark accounts for, or a stale leader
// smuggles writes past the new epoch.
func TestPromoteMidFrameStopsStaleApplies(t *testing.T) {
	ctx := context.Background()
	for iter := 0; iter < 15; iter++ {
		node := newBareNode(t)
		if _, ok := node.Handle(ctx, &wire.ReplAppend{Epoch: 1, FirstSeq: 1,
			Records: [][]byte{record(&wire.CreateStream{UUID: "s", Cfg: testCfg()})}}).(*wire.ReplAck); !ok {
			t.Fatal("setup apply failed")
		}
		recs := make([][]byte, 60)
		for i := range recs {
			recs[i] = record(&wire.InsertChunk{UUID: "s", Chunk: testSealedChunk(t, uint64(i))})
		}
		done := make(chan wire.Message, 1)
		go func() {
			done <- node.Handle(ctx, &wire.ReplAppend{Epoch: 1, FirstSeq: 2, Records: recs})
		}()
		// Vary the promotion's landing point inside the frame.
		time.Sleep(time.Duration(iter) * 50 * time.Microsecond)
		if _, ok := node.Handle(ctx, &wire.Promote{Epoch: 2, Leader: "victim:1"}).(*wire.ReplAck); !ok {
			t.Fatal("promotion failed")
		}
		resp := <-done
		switch r := resp.(type) {
		case *wire.ReplAck: // the whole frame landed before the promotion
		case *wire.Error:
			if r.Code != wire.CodeWrongShard {
				t.Fatalf("iter %d: interrupted frame -> %#v", iter, r)
			}
		default:
			t.Fatalf("iter %d: frame -> %#v", iter, resp)
		}
		// The invariant: engine state matches the watermark the promoted
		// node reports (sequence 1 was the CreateStream, the rest inserts).
		role, epoch, wm := node.Status()
		if role != wire.ReplLeader || epoch != 2 {
			t.Fatalf("iter %d: role=%d epoch=%d after promotion", iter, role, epoch)
		}
		info, ok := node.Handle(ctx, &wire.StreamInfo{UUID: "s"}).(*wire.StreamInfoResp)
		if !ok {
			t.Fatalf("iter %d: StreamInfo failed", iter)
		}
		if uint64(info.Count) != wm-1 {
			t.Fatalf("iter %d: engine has %d chunks but watermark is %d — a stale frame kept applying past the promotion",
				iter, info.Count, wm)
		}
	}
}

// TestHostileSnapshotPageWithoutFirst: snapshot pages outside an install
// sequence are refused, so a hostile peer cannot splice keys into a live
// store.
func TestHostileSnapshotPageWithoutFirst(t *testing.T) {
	node := newBareNode(t)
	ctx := context.Background()
	wantErr(t, node.Handle(ctx, &wire.ReplSnapshot{
		Epoch: 1, Watermark: 99, Done: true,
		Items: []wire.KVItem{{Key: "m/evil", Value: []byte{1}}},
	}), wire.CodeBadRequest)
	if _, _, wm := node.Status(); wm != 0 {
		t.Errorf("watermark adopted %d from a refused page", wm)
	}
}

// TestHostileSnapshotPageCarryingState: a snapshot page may not carry the
// node's own replication state. Installing it would overwrite the durable
// installing marker, and a crash before Done would restart as a live
// follower serving the partial image.
func TestHostileSnapshotPageCarryingState(t *testing.T) {
	store := kv.NewMemStore()
	silent := func(string, ...any) {}
	node, err := New(store, server.Config{}, Options{Self: "a:1", Logf: silent})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, ok := node.Handle(ctx, &wire.ReplSnapshot{Epoch: 7, First: true, Leader: "b:1"}).(*wire.ReplAck); !ok {
		t.Fatal("snapshot first page refused")
	}
	var live wire.Encoder
	live.U64(7)
	live.U8(wire.ReplFollower)
	live.U8(0) // not installing
	wantErr(t, node.Handle(ctx, &wire.ReplSnapshot{
		Epoch: 7, First: true, Leader: "b:1",
		Items: []wire.KVItem{{Key: stateKey, Value: live.Bytes()}},
	}), wire.CodeBadRequest)
	node.Close()

	reborn, err := New(store, server.Config{}, Options{Self: "a:1", Logf: silent})
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	wantErr(t, reborn.Handle(ctx, &wire.StreamInfo{UUID: "x"}), wire.CodeBusy)
}
