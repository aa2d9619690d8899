package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/kv/durable"
	"repro/internal/server"
	"repro/internal/wire"
)

// crashImages are copies of the leader's and the most advanced follower's data
// directories, taken the moment the last acknowledgement arrived and before
// anything was closed, plus what the live leader answers for every stream.
// With SyncAlways every acknowledged write was fsync'd before its
// acknowledgement, and at that moment no write is in flight, so the copies
// hold exactly the flushed bytes.
type crashImages struct {
	dirs []string
	live [][]byte // per stream: the leader's encoded full-range aggregate
}

func fullRange(e *env, s *stream) *wire.StatRange {
	return &wire.StatRange{UUIDs: []string{s.uuid}, Ts: streamEpoch, Te: s.chunkStart(s.os.Count(), e.interval)}
}

func (e *env) takeCrashImages(ctx context.Context) (*crashImages, error) {
	img := &crashImages{}
	// A quorum write is acknowledged once the leader and one follower hold
	// it, so it is the follower that is furthest along that must hold
	// every acknowledged chunk.
	follower := 1
	for i := 2; i < len(e.dep.nodes); i++ {
		_, _, wm := e.dep.nodes[i].Status()
		if _, _, best := e.dep.nodes[follower].Status(); wm > best {
			follower = i
		}
	}
	for _, src := range []string{e.dep.dirs[0], e.dep.dirs[follower]} {
		dst, err := os.MkdirTemp(e.cfg.tmp, "image-")
		if err != nil {
			return nil, err
		}
		if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
			return nil, err
		}
		img.dirs = append(img.dirs, dst)
	}
	for _, s := range e.streams {
		img.live = append(img.live, wire.Marshal(e.dep.nodes[0].Handle(ctx, fullRange(e, s))))
	}
	return img, nil
}

// verify reopens each image as a fresh store and engine, as a restart after
// a crash would, and checks that every acknowledged chunk is there and that
// the full-range aggregate is byte-identical to the live leader's. It
// returns the median time durable.Open took.
func (img *crashImages) verify(ctx context.Context, e *env) (reopenS float64, err error) {
	var opens []float64
	for i, dir := range img.dirs {
		t0 := time.Now()
		st, err := durable.Open(dir, durable.Options{Sync: durable.SyncAlways})
		if err != nil {
			return 0, fmt.Errorf("reopening image %d: %w", i, err)
		}
		opens = append(opens, time.Since(t0).Seconds())
		err = img.verifyStore(ctx, e, st)
		st.Close()
		if err != nil {
			return 0, fmt.Errorf("image %d: %w", i, err)
		}
	}
	return median(opens), nil
}

func (img *crashImages) verifyStore(ctx context.Context, e *env, st *durable.Store) error {
	engine, err := server.New(st, server.Config{})
	if err != nil {
		return err
	}
	for i, s := range e.streams {
		_, count, err := engine.StreamInfo(s.uuid)
		if err != nil {
			return err
		}
		if acked := s.os.Count(); count != acked {
			return fmt.Errorf("%s: %d chunks after reopening, %d were acknowledged", s.uuid, count, acked)
		}
		if got := wire.Marshal(engine.Handle(ctx, fullRange(e, s))); !bytes.Equal(got, img.live[i]) {
			return fmt.Errorf("%s: full-range aggregate differs from the live leader's", s.uuid)
		}
	}
	return nil
}
