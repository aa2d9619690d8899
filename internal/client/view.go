package client

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/wire"
)

// windowDecrypter decrypts one in-range aggregate over chunk positions
// [i, j). Full-resolution principals use HEAC outer leaves; resolution-
// restricted principals use envelope-derived outer leaves. The caller
// gives c up: the result may be c itself, decrypted in place.
//
// DecryptWindowElems decrypts a projected aggregate: c[x] is the
// ciphertext of digest element elems[x] of the stream's full vector, so
// the canceling subkeys must be derived at those original indices.
//
// Removing one stream's keystream from a multi-stream aggregate is the
// same operation as decrypting (subtract the i pad, add the j pad), so a
// plan over several streams decrypts by chaining the members' decrypters:
// the keystream of a sum of streams is the sum of their keystreams.
type windowDecrypter interface {
	DecryptWindow(i, j uint64, c []uint64) ([]uint64, error)
	DecryptWindowElems(i, j uint64, elems []uint32, c []uint64) ([]uint64, error)
}

// encDecrypter adapts core.Encryptor (owner trees and full-resolution key
// sets) to windowDecrypter.
type encDecrypter struct {
	mu  sync.Mutex
	enc *core.Encryptor
}

func (e *encDecrypter) DecryptWindow(i, j uint64, c []uint64) ([]uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.enc.DecryptRange(i, j, c, c)
}

func (e *encDecrypter) DecryptWindowElems(i, j uint64, elems []uint32, c []uint64) ([]uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.enc.DecryptRangeElems(i, j, elems, c, c)
}

// StatResult is a decrypted statistical answer with its time extent.
type StatResult struct {
	chunk.Result
	// Start/End bound the aggregated interval in Unix ms.
	Start, End int64
	// FromChunk/ToChunk are the aggregated chunk positions [From, To).
	FromChunk, ToChunk uint64
}

// identityDecrypter passes aggregates through unchanged — the insecure
// plaintext baseline mode.
type identityDecrypter struct{}

func (identityDecrypter) DecryptWindow(_, _ uint64, c []uint64) ([]uint64, error) {
	return c, nil
}

func (identityDecrypter) DecryptWindowElems(_, _ uint64, _ []uint32, c []uint64) ([]uint64, error) {
	return c, nil
}

// view is the shared query machinery for owners and consumers: stream
// geometry plus a window decrypter.
type view struct {
	t        Transport
	uuid     string
	epoch    int64
	interval int64
	spec     chunk.DigestSpec
	comp     chunk.Compression
	plain    bool // insecure baseline: no decryption anywhere
}

func (v *view) chunkStart(i uint64) int64 { return v.epoch + int64(i)*v.interval }

// statRange issues a single-aggregate statistical query and decrypts it.
func (v *view) statRange(ctx context.Context, dec windowDecrypter, ts, te int64) (StatResult, error) {
	resp, err := call[*wire.StatRangeResp](ctx, v.t, &wire.StatRange{UUIDs: []string{v.uuid}, Ts: ts, Te: te})
	if err != nil {
		return StatResult{}, err
	}
	if len(resp.Windows) != 1 {
		return StatResult{}, fmt.Errorf("client: server returned %d windows for scalar query", len(resp.Windows))
	}
	vec, err := dec.DecryptWindow(resp.FromChunk, resp.ToChunk, resp.Windows[0])
	if err != nil {
		return StatResult{}, err
	}
	r, err := v.spec.Interpret(vec)
	if err != nil {
		return StatResult{}, err
	}
	return StatResult{
		Result:    r,
		Start:     v.chunkStart(resp.FromChunk),
		End:       v.chunkStart(resp.ToChunk),
		FromChunk: resp.FromChunk,
		ToChunk:   resp.ToChunk,
	}, nil
}

// statSeries issues a windowed statistical query (windowChunks chunks per
// point) and decrypts every window: the multi-resolution view behind
// plotting and granularity restriction (paper §4.4, Fig. 8).
func (v *view) statSeries(ctx context.Context, dec windowDecrypter, ts, te int64, windowChunks uint64) ([]StatResult, error) {
	if windowChunks == 0 {
		return nil, fmt.Errorf("client: zero window size")
	}
	resp, err := call[*wire.StatRangeResp](ctx, v.t, &wire.StatRange{
		UUIDs: []string{v.uuid}, Ts: ts, Te: te, WindowChunks: windowChunks,
	})
	if err != nil {
		return nil, err
	}
	return v.decodeWindows(dec, resp, windowChunks)
}

// decodeWindows decrypts and interprets every window of one windowed
// StatRangeResp.
func (v *view) decodeWindows(dec windowDecrypter, resp *wire.StatRangeResp, windowChunks uint64) ([]StatResult, error) {
	out := make([]StatResult, 0, len(resp.Windows))
	for w, vec := range resp.Windows {
		i := resp.FromChunk + uint64(w)*windowChunks
		j := i + windowChunks
		pt, err := dec.DecryptWindow(i, j, vec)
		if err != nil {
			return nil, fmt.Errorf("client: window %d: %w", w, err)
		}
		r, err := v.spec.Interpret(pt)
		if err != nil {
			return nil, err
		}
		out = append(out, StatResult{
			Result: r, Start: v.chunkStart(i), End: v.chunkStart(j),
			FromChunk: i, ToChunk: j,
		})
	}
	return out, nil
}

// fitRange runs a statistical query and fits the private linear model from
// the decrypted accumulators (requires a spec with LinFit; paper §4.5's
// aggregation-based ML encodings).
func (v *view) fitRange(ctx context.Context, dec windowDecrypter, ts, te int64) (chunk.FitResult, error) {
	if !v.spec.LinFit {
		return chunk.FitResult{}, fmt.Errorf("client: stream digest has no linear-fit accumulators")
	}
	resp, err := call[*wire.StatRangeResp](ctx, v.t, &wire.StatRange{UUIDs: []string{v.uuid}, Ts: ts, Te: te})
	if err != nil {
		return chunk.FitResult{}, err
	}
	if len(resp.Windows) != 1 {
		return chunk.FitResult{}, fmt.Errorf("client: server returned %d windows", len(resp.Windows))
	}
	vec, err := dec.DecryptWindow(resp.FromChunk, resp.ToChunk, resp.Windows[0])
	if err != nil {
		return chunk.FitResult{}, err
	}
	return v.spec.Fit(vec)
}

// points fetches and decrypts raw records in [ts, te); requires
// full-resolution key material.
func (v *view) points(ctx context.Context, leaves core.LeafSource, ts, te int64) ([]chunk.Point, error) {
	resp, err := call[*wire.GetRangeResp](ctx, v.t, &wire.GetRange{UUID: v.uuid, Ts: ts, Te: te})
	if err != nil {
		return nil, err
	}
	var pts []chunk.Point
	for _, raw := range resp.Chunks {
		sealed, err := chunk.UnmarshalSealed(raw)
		if err != nil {
			return nil, err
		}
		if len(sealed.Payload) == 0 {
			continue // digest-only after DeleteRange
		}
		var opened []chunk.Point
		if v.plain {
			opened, err = chunk.OpenPlain(sealed)
		} else {
			opened, err = chunk.OpenInStream(leaves, v.comp, sealed)
		}
		if err != nil {
			return nil, err
		}
		for _, p := range opened {
			if p.TS >= ts && p.TS < te {
				pts = append(pts, p)
			}
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].TS < pts[j].TS })
	return pts, nil
}
