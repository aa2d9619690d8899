package server

import (
	"context"
	"fmt"

	"repro/internal/wire"
)

// The write fence closes the reshard drain gap and makes replication
// failover safe with one mechanism: a stream can be fenced at an epoch,
// after which mutations whose sender epoch (request envelope, carried in
// the context) is below the fence answer wire.CodeWrongShard with the
// fencing epoch — the same heal-and-retry signal a migrated stream's
// tombstone produces.
//
// Arming is a barrier, not just a flag: fenced mutations check the fence
// under the stream's order lock and hold it through their store write, and
// the arming request publishes the fence under that lock too (see Apply).
// When it answers OK, every mutation that passed the old check has fully
// applied — so a migration coordinator that fences before its final drain
// copy reads a store no stale-epoch write can land in afterwards. Fences
// are in-memory only: a crash mid-drain fails the migration anyway, and
// the coordinator re-freezes on retry.

// setFence arms (epoch > 0) or lifts (epoch == 0) a stream's write fence;
// its caller holds the stream's order lock.
func (e *Engine) setFence(uuid string, epoch uint64) {
	e.fenceMu.Lock()
	if epoch == 0 {
		delete(e.fences, uuid)
	} else {
		e.fences[uuid] = epoch
	}
	e.fenceMu.Unlock()
}

// checkFence returns the rejection for a fenced stream when the sender's
// epoch predates the fence, nil otherwise. Callers hold the stream's order
// lock across check and apply.
func (e *Engine) checkFence(ctx context.Context, uuid string) *wire.Error {
	e.fenceMu.RLock()
	f := e.fences[uuid]
	e.fenceMu.RUnlock()
	if f == 0 || wire.EpochFromContext(ctx) >= f {
		return nil
	}
	return &wire.Error{Code: wire.CodeWrongShard, Aux: f, Msg: fmt.Sprintf(
		"server: stream %q is write-fenced at epoch %d (migration in progress); refresh topology and retry", uuid, f)}
}
