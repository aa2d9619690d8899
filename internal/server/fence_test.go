package server

import (
	"context"
	"fmt"
	"maps"
	"testing"

	"repro/internal/wire"
)

// TestEveryFencedMutationRefusesAStaleEpoch: with the write fence armed at
// epoch 5, each fenced request type, sent alone or inside a batch at
// epoch 4, and InsertChunkBatch answer CodeWrongShard with aux 5 and leave
// the store as it was; at epoch 5 each request is admitted. The list names
// exactly the types the message table fences, so neither can drift from
// the other.
func TestEveryFencedMutationRefusesAStaleEpoch(t *testing.T) {
	ctx := context.Background()
	h := newHarness(t)
	h.createStream(t, "s")
	blobs := sealBlobs(t, h, 17)
	for i, err := range h.engine.InsertChunkBatch("s", blobs[:16]) {
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	// In an order in which each is admitted at the fence's epoch.
	reqs := []wire.Message{
		&wire.InsertChunk{UUID: "s", Chunk: blobs[16]},
		&wire.StageRecord{UUID: "s", ChunkIndex: 17, Seq: 1, Box: []byte("box")},
		&wire.DeleteRange{UUID: "s", Ts: 0, Te: 800},
		&wire.Rollup{UUID: "s", Factor: 8, Ts: 0, Te: 1600},
		&wire.PutGrant{UUID: "s", Principal: "p", GrantID: "g1", Blob: []byte{1}},
		&wire.DeleteGrant{UUID: "s", Principal: "p", GrantID: "g1"},
		&wire.PutEnvelopes{UUID: "s", Factor: 8, Envs: []wire.WireEnvelope{{Index: 0, Box: []byte{2}}}},
		&wire.DeleteStream{UUID: "s"},
	}
	if resp := h.engine.Handle(ctx, &wire.HandoffComplete{UUID: "s", Epoch: 5, Action: wire.HandoffFence}); errOf(resp) != nil {
		t.Fatalf("arming the fence: %v", resp)
	}

	wantRefused := func(what string, resp wire.Message) {
		t.Helper()
		if e, ok := resp.(*wire.Error); !ok || e.Code != wire.CodeWrongShard || e.Aux != 5 {
			t.Errorf("%s at epoch 4 -> %#v, want CodeWrongShard aux 5", what, resp)
		}
	}
	stale := wire.ContextWithEpoch(ctx, 4)
	before := storeDump(t, h.store)
	for _, req := range reqs {
		name := fmt.Sprintf("%T", req)
		if uuid, fenced := wire.FencedUUID(req); !fenced || uuid != "s" {
			t.Errorf("wire.FencedUUID(%s) = %q, %v; want the stream, fenced", name, uuid, fenced)
		}
		wantRefused(name, h.engine.Handle(stale, req))
		resp := h.engine.Handle(stale, &wire.Batch{Reqs: []wire.Message{req}})
		if br, ok := resp.(*wire.BatchResp); !ok || len(br.Resps) != 1 {
			t.Errorf("batched %s at epoch 4 -> %#v, want a one-element BatchResp", name, resp)
		} else {
			wantRefused("batched "+name, br.Resps[0])
		}
		if after := storeDump(t, h.store); !maps.Equal(before, after) {
			t.Fatalf("%s at epoch 4 changed the store: %d keys before, %d after", name, len(before), len(after))
		}
	}
	// InsertChunkBatch takes no context: it writes as epoch 0, below the fence.
	for i, err := range h.engine.InsertChunkBatch("s", blobs[16:]) {
		if e, ok := err.(*wire.Error); !ok || e.Code != wire.CodeWrongShard || e.Aux != 5 {
			t.Errorf("InsertChunkBatch chunk %d past the fence -> %v, want CodeWrongShard aux 5", i, err)
		}
	}
	if after := storeDump(t, h.store); !maps.Equal(before, after) {
		t.Fatalf("InsertChunkBatch past the fence changed the store: %d keys before, %d after", len(before), len(after))
	}

	// Every type the message table fences is listed. A type's zero message
	// decodes from a run of zero bytes; HandoffComplete's decoder refuses
	// its zero action, and it is an unfenced migration message.
	listed := map[wire.MsgType]bool{}
	for _, req := range reqs {
		listed[req.Type()] = true
	}
	for code := 1; code < 256; code++ {
		for n := 0; n < 64; n++ {
			m, err := wire.Unmarshal(append([]byte{byte(code)}, make([]byte, n)...))
			if err != nil {
				continue
			}
			if _, fenced := wire.FencedUUID(m); fenced && !listed[m.Type()] {
				t.Errorf("%T is fenced but not in this test's list", m)
			}
			break
		}
	}

	current := wire.ContextWithEpoch(ctx, 5)
	for _, req := range reqs {
		if resp := h.engine.Handle(current, req); errOf(resp) != nil {
			t.Errorf("%T at epoch 5 -> %v, want admitted", req, resp)
		}
	}
}
