package server

import (
	"context"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/wire"
)

// boundedChild names, in a child process, the test that bounded runs
// there.
const boundedChild = "TIMECRYPT_BOUNDED_CHILD"

// bounded runs body in a child test process that may map at most 4 GiB
// more than it had at start and is killed after timeout, so a request
// that would exhaust memory or spin forever fails the test instead of
// killing or hanging go test.
func bounded(t *testing.T, timeout time.Duration, body func(t *testing.T)) {
	if os.Getenv(boundedChild) == t.Name() {
		statm, err := os.ReadFile("/proc/self/statm")
		if err != nil {
			t.Fatal(err)
		}
		pages, err := strconv.ParseUint(strings.Fields(string(statm))[0], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		limit := pages*uint64(os.Getpagesize()) + 4<<30
		if err := syscall.Setrlimit(syscall.RLIMIT_AS, &syscall.Rlimit{Cur: limit, Max: limit}); err != nil {
			t.Fatal(err)
		}
		body(t)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^"+t.Name()+"$", "-test.count=1")
	cmd.Env = append(os.Environ(), boundedChild+"="+t.Name())
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("still running after %v; killed:\n%s", timeout, out)
	}
	if err != nil {
		t.Fatalf("%v:\n%s", err, out)
	}
}

// A GetEnvelopes range as wide as the index space costs what is stored,
// not hi-lo. Sized by hi-lo+1, the reply asked for 128 GiB at hi = 1<<32;
// at 2^64-1 the size wrapped to 0 and a j <= hi loop never ended.
func TestGetEnvelopesHostileRange(t *testing.T) {
	bounded(t, 10*time.Second, func(t *testing.T) {
		h := newHarness(t)
		h.createStream(t, "s")
		h.createStream(t, "s/6") // its envelope keys extend "s"'s factor-6 prefix
		stored := []uint64{math.MaxUint64, 1 << 40, 1<<32 - 1, 0x10, 1, 0}
		var envs []wire.WireEnvelope
		for _, j := range stored {
			envs = append(envs, wire.WireEnvelope{Index: j, Box: []byte{byte(j)}})
		}
		for _, uuid := range []string{"s", "s/6"} {
			if err := errOf(h.engine.Handle(context.Background(), &wire.PutEnvelopes{UUID: uuid, Factor: 6, Envs: envs})); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct {
			lo, hi uint64
			want   []uint64
		}{
			{0, 1 << 32, []uint64{0, 1, 0x10, 1<<32 - 1}},
			{0, math.MaxUint64, []uint64{0, 1, 0x10, 1<<32 - 1, 1 << 40, math.MaxUint64}},
			{2, math.MaxUint64 - 1, []uint64{0x10, 1<<32 - 1, 1 << 40}},
			{math.MaxUint64, math.MaxUint64, []uint64{math.MaxUint64}},
			{2, 15, nil},
		} {
			got, err := h.engine.GetEnvelopes("s", 6, c.lo, c.hi)
			if err != nil {
				t.Fatal(err)
			}
			var idx []uint64
			for _, env := range got {
				idx = append(idx, env.Index)
				if len(env.Box) != 1 || env.Box[0] != byte(env.Index) {
					t.Errorf("[%d,%d]: envelope %d has box %x", c.lo, c.hi, env.Index, env.Box)
				}
			}
			if !slices.Equal(idx, c.want) {
				t.Errorf("[%d,%d]: indices %x, want %x", c.lo, c.hi, idx, c.want)
			}
		}
	})
}

// A rollup factor past the index's reach is refused without looping.
// LevelSpan used to wrap past 2^64 to 0, so the level search for a factor
// of 2^63 spun forever holding the stream's order lock. The insert after
// it proves the lock was released.
func TestRollupHugeFactorReturns(t *testing.T) {
	bounded(t, 10*time.Second, func(t *testing.T) {
		h := newHarness(t)
		h.createStream(t, "s")
		h.ingest(t, "s", 16)
		for _, factor := range []uint64{1 << 63, math.MaxUint64} {
			if err := errOf(h.engine.Handle(context.Background(), &wire.Rollup{UUID: "s", Factor: factor, Ts: 0, Te: 1600})); err == nil {
				t.Errorf("rollup factor %d accepted", factor)
			}
		}
		h.ingestFrom(t, "s", 16, 1)
		if err := errOf(h.engine.Handle(context.Background(), &wire.Rollup{UUID: "s", Factor: 8, Ts: 0, Te: 800})); err != nil {
			t.Fatal(err)
		}
	})
}
