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
// The fence epoch lives on the UUID's stream-table entry, guarded by its
// order lock. Arming is a barrier, not just a flag: fenced mutations check
// the fence under that lock and hold it through their store write, and the
// arming request, a HandoffComplete like every migration message, sets the
// fence under that lock too (see Apply), taking a bare entry if this shard
// does not serve the stream. When it answers OK, every mutation that passed
// the old check has fully applied — so a migration coordinator that fences
// before its final drain copy reads a store no stale-epoch write can land
// in afterwards. Fences are in-memory only: a crash mid-drain fails the
// migration anyway, and the coordinator re-freezes on retry.

// checkFence returns the rejection for a fenced stream when the sender's
// epoch predates the fence, nil otherwise. h holds the stream's order lock
// across check and apply.
func checkFence(ctx context.Context, h *held) *wire.Error {
	f := h.en.fence
	if f == 0 || wire.EpochFromContext(ctx) >= f {
		return nil
	}
	return &wire.Error{Code: wire.CodeWrongShard, Aux: f, Msg: fmt.Sprintf(
		"server: stream %q is write-fenced at epoch %d (migration in progress); refresh topology and retry", h.uuid, f)}
}
