package server

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/wire"
)

// streamSealer is per-stream owner-side key material so concurrent writers
// can seal valid chunks independently.
type streamSealer struct {
	enc  *core.Encryptor
	spec chunk.DigestSpec
}

func newStreamSealer(t *testing.T, seed byte) *streamSealer {
	t.Helper()
	tree, err := core.NewTree(core.NewPRG(core.PRGAES), 20, core.Node{seed})
	if err != nil {
		t.Fatal(err)
	}
	return &streamSealer{enc: core.NewEncryptor(tree.NewWalker()), spec: chunk.DigestSpec{Sum: true, Count: true}}
}

func (ss *streamSealer) sealed(t *testing.T, i uint64) []byte {
	t.Helper()
	start := int64(i) * 100
	sealed, err := chunk.Seal(ss.enc, ss.spec, chunk.CompressionNone, i, start, start+100,
		[]chunk.Point{{TS: start, Val: int64(i + 1)}})
	if err != nil {
		t.Fatal(err)
	}
	return chunk.MarshalSealed(sealed)
}

// TestEngineConcurrentStreams hammers the lock-striped stream table with
// parallel ingest, queries, listings, and create/delete churn across many
// streams; run with -race.
func TestEngineConcurrentStreams(t *testing.T) {
	h := newHarness(t)
	const streams = 32
	const chunks = 12
	uuids := make([]string, streams)
	for i := range uuids {
		uuids[i] = fmt.Sprintf("conc-%d", i)
		h.createStream(t, uuids[i])
	}
	var wg sync.WaitGroup
	// One writer per stream: appends are ordered per stream, concurrent
	// across streams.
	for i, uuid := range uuids {
		wg.Add(1)
		go func(uuid string, seed byte) {
			defer wg.Done()
			ss := newStreamSealer(t, seed)
			for c := uint64(0); c < chunks; c++ {
				if err := errOf(h.engine.Handle(context.Background(), &wire.InsertChunk{UUID: uuid, Chunk: ss.sealed(t, c)})); err != nil {
					t.Errorf("insert %s/%d: %v", uuid, c, err)
					return
				}
			}
		}(uuid, byte(i+1))
	}
	// Readers race the writers; empty-range errors are expected early on.
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				uuid := uuids[(r*100+i)%streams]
				if _, _, _, err := h.engine.StatRange(context.Background(), []string{uuid}, 0, chunks*100, 0); err != nil &&
					!strings.Contains(err.Error(), "no data") && !strings.Contains(err.Error(), "range") {
					t.Errorf("query %s: %v", uuid, err)
				}
				h.engine.ListStreams()
				if _, _, err := h.engine.StreamInfo(uuid); err != nil {
					t.Errorf("info %s: %v", uuid, err)
				}
			}
		}(r)
	}
	// Churn: concurrent create/delete on disjoint UUIDs exercises the
	// stripe write path.
	for d := 0; d < 4; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				uuid := fmt.Sprintf("churn-%d-%d", d, i)
				if err := h.engine.CreateStream(uuid, h.cfg); err != nil {
					t.Errorf("create %s: %v", uuid, err)
					return
				}
				if err := errOf(h.engine.Handle(context.Background(), &wire.DeleteStream{UUID: uuid})); err != nil {
					t.Errorf("delete %s: %v", uuid, err)
					return
				}
			}
		}(d)
	}
	wg.Wait()
	for _, uuid := range uuids {
		_, count, err := h.engine.StreamInfo(uuid)
		if err != nil || count != chunks {
			t.Fatalf("stream %s after hammer: count=%d err=%v", uuid, count, err)
		}
	}
	if got := len(h.engine.ListStreams()); got != streams {
		t.Fatalf("ListStreams -> %d, want %d", got, streams)
	}
}

// TestEngineDuplicateCreateRace: concurrent CreateStream on one UUID must
// yield exactly one winner, never a clobbered stream table.
func TestEngineDuplicateCreateRace(t *testing.T) {
	h := newHarness(t)
	const racers = 16
	var wg sync.WaitGroup
	errs := make([]error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = h.engine.CreateStream("dup", h.cfg)
		}(i)
	}
	wg.Wait()
	wins := 0
	for _, err := range errs {
		if err == nil {
			wins++
		} else if !strings.Contains(err.Error(), "already exists") {
			t.Errorf("unexpected error: %v", err)
		}
	}
	if wins != 1 {
		t.Errorf("%d creators won, want exactly 1", wins)
	}
}

func wireStreamCfg() wire.StreamConfig {
	spec := chunk.DigestSpec{Sum: true, Count: true}
	specBytes, _ := spec.MarshalBinary()
	return wire.StreamConfig{Epoch: 0, Interval: 100, VectorLen: uint32(spec.VectorLen()), Fanout: 8, DigestSpec: specBytes}
}

// recoveredAfterRestart ensures stripe recovery still loads every stream.
func TestEngineRecoveryAcrossStripes(t *testing.T) {
	store := kv.NewMemStore()
	engine, err := New(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := engine.CreateStream(fmt.Sprintf("r-%d", i), wireStreamCfg()); err != nil {
			t.Fatal(err)
		}
	}
	reopened, err := New(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(reopened.ListStreams()); got != 20 {
		t.Fatalf("recovered %d streams, want 20", got)
	}
	if _, err := reopened.lookup("r-7"); err != nil {
		t.Fatal(err)
	}
	if err := reopened.CreateStream("r-7", wireStreamCfg()); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("recovered stream recreated: %v", err)
	}
}

// TestEngineDuplicateCreateMetaConsistent: when duplicate creates race
// with different configs, the persisted meta must be the winner's — a
// loser must never clobber the store.
func TestEngineDuplicateCreateMetaConsistent(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		store := kv.NewMemStore()
		engine, err := New(store, Config{})
		if err != nil {
			t.Fatal(err)
		}
		cfgA := wireStreamCfg()
		cfgB := wireStreamCfg()
		cfgB.Interval = 999 // distinguishable loser config
		var wg sync.WaitGroup
		for _, cfg := range []wire.StreamConfig{cfgA, cfgB} {
			wg.Add(1)
			go func(cfg wire.StreamConfig) {
				defer wg.Done()
				engine.CreateStream("dup", cfg)
			}(cfg)
		}
		wg.Wait()
		live, _, err := engine.StreamInfo("dup")
		if err != nil {
			t.Fatal(err)
		}
		meta, err := store.Get(metaKey("dup"))
		if err != nil {
			t.Fatal(err)
		}
		persisted, err := decodeStreamConfig(meta)
		if err != nil {
			t.Fatal(err)
		}
		if persisted.Interval != live.Interval {
			t.Fatalf("trial %d: persisted interval %d != live stream interval %d (loser clobbered meta)",
				trial, persisted.Interval, live.Interval)
		}
	}
}
