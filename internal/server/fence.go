package server

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/wire"
)

// The write fence closes the reshard drain gap and makes replication
// failover safe with one mechanism: a stream can be fenced at an epoch,
// after which mutations whose sender epoch (request envelope, carried in
// the context) is below the fence answer wire.CodeWrongShard with the
// fencing epoch — the same heal-and-retry signal a migrated stream's
// tombstone produces.
//
// Arming is a barrier, not just a flag: fenced mutations run under a
// per-stream gate held shared for the whole check-then-apply span, and
// arming takes the gate exclusively after publishing the fence. When the
// arming request answers OK, every mutation that passed the old (unfenced)
// check has fully applied — so a migration coordinator that fences before
// its final drain copy reads a store no stale-epoch write can land in
// afterwards. Fences are in-memory only: a crash mid-drain fails the
// migration anyway, and the coordinator re-freezes on retry.

// fenceGate returns the gate stripe for a stream (the same stripe map as
// the stream table).
func (e *Engine) fenceGate(uuid string) *sync.RWMutex {
	return &e.fenceGates[StripeHash(uuid)&e.mask]
}

// FenceEpoch reports the stream's armed fence epoch, 0 if unfenced.
func (e *Engine) FenceEpoch(uuid string) uint64 {
	e.fenceMu.RLock()
	defer e.fenceMu.RUnlock()
	return e.fences[uuid]
}

// handoffFence arms (epoch > 0) or lifts (epoch == 0) a stream's write
// fence and barriers against straddling mutations before answering.
func (e *Engine) handoffFence(uuid string, epoch uint64) error {
	if uuid == "" {
		return fmt.Errorf("server: fence needs a stream uuid")
	}
	e.fenceMu.Lock()
	if epoch == 0 {
		delete(e.fences, uuid)
	} else {
		e.fences[uuid] = epoch
	}
	e.fenceMu.Unlock()
	// Barrier: any mutation that passed its fence check before the fence
	// published is still holding the gate shared; once we acquire it
	// exclusively they have all applied, so the caller's next read of the
	// store (the final drain copy) misses nothing.
	g := e.fenceGate(uuid)
	g.Lock()
	g.Unlock() //nolint:staticcheck // empty critical section is the point: a barrier
	return nil
}

// liftFence drops a stream's fence without the barrier (release/abort
// paths, where the tombstone or the surviving source takes over).
func (e *Engine) liftFence(uuid string) {
	e.fenceMu.Lock()
	delete(e.fences, uuid)
	e.fenceMu.Unlock()
}

// checkFence returns the rejection for a fenced stream when the sender's
// epoch predates the fence, nil otherwise. Callers hold the fence gate
// shared across check and apply.
func (e *Engine) checkFence(ctx context.Context, uuid string) *wire.Error {
	f := e.FenceEpoch(uuid)
	if f == 0 {
		return nil
	}
	if wire.EpochFromContext(ctx) >= f {
		return nil
	}
	return &wire.Error{Code: wire.CodeWrongShard, Aux: f, Msg: fmt.Sprintf(
		"server: stream %q is write-fenced at epoch %d (migration in progress); refresh topology and retry", uuid, f)}
}
