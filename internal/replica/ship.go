package replica

import (
	"context"
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/kv"
	"repro/internal/wire"
)

// maxShipBytes bounds one ReplAppend frame's record payload; a lagging
// follower catches up in bounded bites that stay well under the frame
// size limit.
const maxShipBytes = 1 << 20

// maxSnapshotPageBytes bounds one ReplSnapshot page.
const maxSnapshotPageBytes = 1 << 20

// leaderApply is the leader's mutation path: apply locally, append the
// marshaled request to the record log, and acknowledge only once the
// group's durability condition holds — every active follower in
// availability mode, a write quorum in quorum mode. The log append runs
// inside the engine's apply, under the stream's order lock (Engine.Apply),
// so the log's order matches the engine's per-stream apply order (followers
// replay single-threaded). Every mutation naming one stream takes that
// lock, a migration message for a stream this shard does not serve
// included (on a bare table entry), and holds applyMu shared. A mutation
// naming no one stream (TopologyUpdate, a mixed-stream Batch) takes no
// order lock, so it holds applyMu exclusively and is ordered against
// everything.
//
// Error semantics the clients lean on: a CodeBusy from the quorum gate
// is returned BEFORE anything is applied (retry freely); a CodeCanceled
// from waitDurable means the write was applied locally but its
// replication outcome is unknown (same ambiguity as a broken
// connection — resolve by re-reading, never by blind retry).
func (n *Node) leaderApply(ctx context.Context, req wire.Message, epoch uint64) wire.Message {
	if busy := n.quorumGate(); busy != nil {
		return busy
	}
	unlock := n.applyMu.RUnlock
	if _, keyed := wire.RoutingUUID(req); keyed {
		n.applyMu.RLock()
	} else {
		n.applyMu.Lock()
		unlock = n.applyMu.Unlock
	}
	engine, busy := n.currentEngine()
	if busy != nil {
		unlock()
		return busy
	}
	// then must not take n.mu: a follower's replay holds n.mu while it
	// takes order locks.
	var seq uint64
	resp := engine.Apply(ctx, req, func() { seq = n.log.append(wire.Marshal(req)) })
	if _, isErr := resp.(*wire.Error); isErr {
		// A failed mutation changed nothing; nothing to replicate.
		unlock()
		return resp
	}
	unlock()
	n.notifyShippers()
	if err := n.waitDurable(ctx, seq, epoch); err != nil {
		return err
	}
	if n.opts.OnAck != nil {
		n.opts.OnAck(epoch, seq)
	}
	n.mu.Lock()
	min := n.minAckedLocked()
	n.mu.Unlock()
	n.log.trimTo(min)
	return resp
}

func (n *Node) notifyShippers() {
	n.mu.Lock()
	for _, f := range n.followers {
		select {
		case f.notify <- struct{}{}:
		default:
		}
	}
	n.mu.Unlock()
}

// waitDurable blocks until the durability condition for seq holds —
// every active follower has acknowledged it (availability mode), or
// ⌈N/2⌉ group members including the leader have (quorum mode) — the
// context expires, or the node loses the lease (the write's outcome is
// then ambiguous — same contract as a broken connection).
//
// The quorum count deliberately ignores the active flag: deactivating an
// unreachable follower must never shrink the ack set below the quorum,
// so quorum mode counts real acknowledgements only and simply keeps
// waiting (until the writer's deadline) when too few members answer.
func (n *Node) waitDurable(ctx context.Context, seq, epoch uint64) *wire.Error {
	n.mu.Lock()
	for {
		if n.closed || n.role != wire.ReplLeader || n.epoch != epoch {
			leader := n.leader
			cur := n.epoch
			n.mu.Unlock()
			return &wire.Error{Code: wire.CodeNotLeader, Aux: cur,
				Msg: leader}
		}
		if need := n.quorumLocked(); need > 0 {
			durable := 1 // the leader itself
			for _, f := range n.followers {
				if f.acked >= seq {
					durable++
				}
			}
			if durable >= need {
				n.mu.Unlock()
				return nil
			}
		} else {
			pending := false
			for _, f := range n.followers {
				if f.active && f.acked < seq {
					pending = true
					break
				}
			}
			if !pending {
				n.mu.Unlock()
				return nil
			}
		}
		ch := n.changed
		n.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return &wire.Error{Code: wire.CodeCanceled,
				Msg: fmt.Sprintf("replica: replication wait: %v", ctx.Err())}
		}
		n.mu.Lock()
	}
}

// minAckedLocked returns the lowest acknowledged sequence across active
// followers (the log's head when none are active); the log may trim up to
// it.
func (n *Node) minAckedLocked() uint64 {
	min := n.log.head()
	for _, f := range n.followers {
		if f.active && f.acked < min {
			min = f.acked
		}
	}
	return min
}

// runShipper drives one follower: it ships log suffixes as ReplAppend
// frames, heartbeats when idle, falls back to a full snapshot when the
// follower is behind the log's tail, and marks the follower inactive
// (degrading durability, not availability) while it is unreachable.
func (n *Node) runShipper(f *follower, epoch uint64) {
	heartbeat := n.opts.Lease / 3
	if heartbeat <= 0 {
		heartbeat = time.Second
	}
	var tr *client.TCP
	defer func() {
		if tr != nil {
			tr.Close()
		}
	}()
	backoff := 50 * time.Millisecond
	deactivate := func() {
		n.mu.Lock()
		if f.active {
			f.active = false
			n.bumpLocked()
			n.opts.Logf("replica: follower %s unreachable; continuing without it", f.addr)
		}
		n.mu.Unlock()
	}
	sleep := func(d time.Duration) bool {
		select {
		case <-f.stop:
			return false
		case <-time.After(d):
			return true
		}
	}
	// forceSnapshot requests a full resync regardless of log coverage: set
	// when the follower's acks prove it lives in another leader's sequence
	// space, or when it is stuck installing a snapshot whose sender died.
	forceSnapshot := false
	// busyStreak counts consecutive CodeBusy refusals. A follower that
	// answers busy forever is fenced mid-install with no one finishing the
	// job; a fresh snapshot First is the one frame it still accepts.
	busyStreak := 0
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		if tr == nil {
			var err error
			tr, err = client.DialTCPOptions(f.addr, client.SessionOptions{NetDial: n.opts.NetDial})
			if err != nil {
				deactivate()
				if !sleep(backoff) {
					return
				}
				if backoff < n.opts.Lease {
					backoff *= 2
				}
				continue
			}
			backoff = 50 * time.Millisecond
		}

		n.mu.Lock()
		acked := f.acked
		n.mu.Unlock()
		first, recs, ok := n.log.from(acked+1, maxShipBytes)
		if forceSnapshot || !ok {
			// The follower is behind the log's tail (or provably
			// divergent/stuck): full resync.
			wm, err := n.sendSnapshot(tr, epoch)
			if err != nil {
				n.opts.Logf("replica: snapshot to %s: %v", f.addr, err)
				deactivate()
				if !sleep(backoff) {
					return
				}
				continue
			}
			forceSnapshot = false
			busyStreak = 0
			n.mu.Lock()
			f.acked = wm
			f.active = true
			f.lastAck = time.Now()
			n.bumpLocked()
			n.mu.Unlock()
			continue
		}
		if len(recs) == 0 {
			// Caught up: wait for work, heartbeating to keep the lease
			// observable (and to learn promptly if we were deposed).
			select {
			case <-f.stop:
				return
			case <-f.notify:
				continue
			case <-time.After(heartbeat):
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), n.opts.Lease)
		resp, err := tr.RoundTrip(ctx, &wire.ReplAppend{
			Epoch: epoch, FirstSeq: first, Records: recs, Leader: n.opts.Self,
		})
		cancel()
		if err != nil {
			deactivate()
			if !sleep(backoff) {
				return
			}
			continue
		}
		switch r := resp.(type) {
		case *wire.ReplAck:
			if head := n.log.head(); r.Watermark > head {
				// The follower acknowledges sequences this leader never
				// assigned: its watermark comes from an older leader's
				// sequence space (it missed a re-based promotion). Its
				// duplicate-acks would silently discard every new record,
				// so its state is unusable — force a full resync.
				n.opts.Logf("replica: follower %s watermark %d is beyond log head %d (divergent history); forcing snapshot resync",
					f.addr, r.Watermark, head)
				forceSnapshot = true
				continue
			}
			busyStreak = 0
			n.mu.Lock()
			if r.Watermark > f.acked {
				f.acked = r.Watermark
			}
			f.lastAck = time.Now()
			if r.Mode != n.mode() && !f.modeWarned {
				f.modeWarned = true
				n.opts.Logf("replica: follower %s acknowledges in mode %d but this group runs mode %d; fix the -quorum flag on that node",
					f.addr, r.Mode, n.mode())
			}
			if !f.active {
				f.active = true
				n.opts.Logf("replica: follower %s active at watermark %d", f.addr, f.acked)
			}
			n.bumpLocked()
			min := n.minAckedLocked()
			n.mu.Unlock()
			n.log.trimTo(min)
		case *wire.Error:
			switch r.Code {
			case wire.CodeReplGap:
				// Reship from where the follower actually is.
				busyStreak = 0
				n.mu.Lock()
				f.acked = r.Aux
				f.lastAck = time.Now()
				n.mu.Unlock()
			case wire.CodeWrongShard:
				// The follower knows a higher epoch: we are deposed.
				n.deposeTo(r.Aux)
				return
			case wire.CodeBusy:
				// Likely a snapshot install in progress. If it persists,
				// the installer died with the job half done and the
				// follower is fenced forever; a fresh snapshot First is
				// the one frame it still accepts, so send one.
				busyStreak++
				if busyStreak >= 3 {
					n.opts.Logf("replica: follower %s busy %d times in a row; forcing snapshot resync", f.addr, busyStreak)
					forceSnapshot = true
					busyStreak = 0
				}
				if !sleep(backoff) {
					return
				}
			default:
				n.opts.Logf("replica: follower %s refused append: %s", f.addr, r.Msg)
				deactivate()
				if !sleep(backoff) {
					return
				}
			}
		default:
			n.opts.Logf("replica: follower %s: unexpected response %T", f.addr, resp)
			deactivate()
			if !sleep(backoff) {
				return
			}
		}
	}
}

// snapshotDump captures a consistent full-store image: applyMu is held
// exclusively, freezing mutations between their engine apply and their log
// append, while keys are captured (the node's own replication state is
// excluded — roles don't replicate). It returns the image and the applied
// sequence it corresponds to.
//
// A consistent instant is mandatory — engine replay is not idempotent and
// the store scans in no particular order — so the freeze itself can't be
// avoided; instead it is made cheap. Stores that support ShallowScanner
// (bytes they hand out are never written again: MemStore's pages are
// append-only) are captured as slice headers only, no value bytes copied:
// the freeze costs O(keys) header copies and pages marshal straight from
// the store's own memory after applyMu is released, while later
// writes append elsewhere. Other stores get a defensive deep copy.
func (n *Node) snapshotDump() ([]wire.KVItem, uint64, error) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	var items []wire.KVItem
	var err error
	if ss, ok := n.store.(kv.ShallowScanner); ok {
		err = ss.ScanShallow("", func(key string, value []byte) bool {
			if key == stateKey {
				return true
			}
			items = append(items, wire.KVItem{Key: key, Value: value})
			return true
		})
	} else {
		err = n.store.Scan("", func(key string, value []byte) bool {
			if key == stateKey {
				return true
			}
			items = append(items, wire.KVItem{Key: key, Value: append([]byte(nil), value...)})
			return true
		})
	}
	if err != nil {
		return nil, 0, err
	}
	return items, n.log.head(), nil
}

// sendSnapshot resyncs one follower with a paged full snapshot and
// returns the watermark the follower adopted.
func (n *Node) sendSnapshot(tr *client.TCP, epoch uint64) (uint64, error) {
	items, watermark, err := n.snapshotDump()
	if err != nil {
		return 0, err
	}
	n.opts.Logf("replica: resyncing follower by snapshot: %d keys at watermark %d", len(items), watermark)
	first := true
	for {
		var page []wire.KVItem
		bytes := 0
		for len(items) > 0 && len(page) < wire.MaxSnapshotItems {
			it := items[0]
			if bytes > 0 && bytes+len(it.Key)+len(it.Value) > maxSnapshotPageBytes {
				break
			}
			bytes += len(it.Key) + len(it.Value)
			page = append(page, it)
			items[0] = wire.KVItem{} // release captured buffers as pages ship
			items = items[1:]
		}
		done := len(items) == 0
		ctx, cancel := context.WithTimeout(context.Background(), 4*n.opts.Lease)
		resp, err := tr.RoundTrip(ctx, &wire.ReplSnapshot{
			Epoch: epoch, Watermark: watermark, First: first, Done: done, Items: page,
			Leader: n.opts.Self,
		})
		cancel()
		if err != nil {
			return 0, err
		}
		if e, isErr := resp.(*wire.Error); isErr {
			if e.Code == wire.CodeWrongShard {
				n.deposeTo(e.Aux)
			}
			return 0, e
		}
		if done {
			return watermark, nil
		}
		first = false
	}
}
