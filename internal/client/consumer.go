package client

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/crypto/hybrid"
	"repro/internal/wire"
)

// Consumer is a data consumer (principal): a service authorized to query
// streams within the scope of its grants. It holds the principal's
// long-term key pair used to unwrap grants.
type Consumer struct {
	t  Transport
	kp *hybrid.KeyPair
}

// NewConsumer wraps a transport and identity key pair.
func NewConsumer(t Transport, kp *hybrid.KeyPair) *Consumer {
	return &Consumer{t: t, kp: kp}
}

// PublicKey returns the consumer's public identity key (what owners grant
// to).
func (c *Consumer) PublicKey() []byte { return c.kp.PublicBytes() }

// ConsumerStream is a principal's view of one stream, assembled from its
// grants: full-resolution tokens merge into one key set; each
// resolution-restricted grant contributes a windowed view.
type ConsumerStream struct {
	view
	consumer *Consumer

	mu       sync.Mutex
	keys     *core.KeySet // nil when no full-resolution grant
	dec      *encDecrypter
	resGrant map[uint64][]*Grant               // factor -> grants
	resKeys  map[uint64]*core.ResolutionKeySet // factor -> opened envelopes
}

// OpenStream fetches the consumer's grants for a stream and builds a
// queryable view. It fails if no grant can be opened.
func (c *Consumer) OpenStream(ctx context.Context, uuid string) (*ConsumerStream, error) {
	resp, err := call[*wire.GetGrantsResp](ctx, c.t, &wire.GetGrants{
		UUID: uuid, Principal: PrincipalID(c.kp.PublicBytes()),
	})
	if err != nil {
		return nil, err
	}
	var grants []*Grant
	for _, blob := range resp.Blobs {
		g, err := openGrant(c.kp, blob)
		if err != nil {
			// A blob for another key or a corrupted entry; skip.
			continue
		}
		if g.StreamID != uuid {
			continue
		}
		grants = append(grants, g)
	}
	if len(grants) == 0 {
		return nil, fmt.Errorf("client: no usable grants for stream %q", uuid)
	}
	g0 := grants[0]
	var spec chunk.DigestSpec
	if err := spec.UnmarshalBinary(g0.DigestSpec); err != nil {
		return nil, fmt.Errorf("client: grant digest spec: %w", err)
	}
	cs := &ConsumerStream{
		view: view{
			t: c.t, uuid: uuid, epoch: g0.Epoch, interval: g0.Interval,
			spec: spec, comp: chunk.Compression(g0.Compression),
		},
		consumer: c,
		resGrant: make(map[uint64][]*Grant),
		resKeys:  make(map[uint64]*core.ResolutionKeySet),
	}
	prg := core.NewPRG(g0.PRG)
	for _, g := range grants {
		if g.Factor == 0 {
			if cs.keys == nil {
				ks, err := core.NewKeySet(prg, int(g0.TreeHeight), g.Tokens)
				if err != nil {
					return nil, err
				}
				cs.keys = ks
			} else if err := cs.keys.Add(g.Tokens); err != nil {
				return nil, fmt.Errorf("client: merging grants: %w", err)
			}
		} else {
			cs.resGrant[g.Factor] = append(cs.resGrant[g.Factor], g)
		}
	}
	if cs.keys != nil {
		cs.dec = &encDecrypter{enc: core.NewEncryptor(cs.keys.NewWalker())}
	}
	return cs, nil
}

// HasFullResolution reports whether any full-resolution grant was loaded.
func (cs *ConsumerStream) HasFullResolution() bool { return cs.keys != nil }

// ResolutionFactors lists the factors of resolution-restricted grants.
func (cs *ConsumerStream) ResolutionFactors() []uint64 {
	out := make([]uint64, 0, len(cs.resGrant))
	for f := range cs.resGrant {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// resolutionKeys lazily fetches envelopes and opens them for a factor.
func (cs *ConsumerStream) resolutionKeys(ctx context.Context, factor uint64) (*core.ResolutionKeySet, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if ks, ok := cs.resKeys[factor]; ok {
		return ks, nil
	}
	grants := cs.resGrant[factor]
	if len(grants) == 0 {
		return nil, fmt.Errorf("client: no grant at resolution %d", factor)
	}
	merged := &core.ResolutionKeySet{}
	first := true
	for _, g := range grants {
		resp, err := call[*wire.GetEnvelopesResp](ctx, cs.t, &wire.GetEnvelopes{
			UUID: cs.uuid, Factor: factor, Lo: g.Res.Token.Lo, Hi: g.Res.Token.Hi,
		})
		if err != nil {
			return nil, err
		}
		envs := make([]core.Envelope, len(resp.Envs))
		for i, e := range resp.Envs {
			envs[i] = core.Envelope{Index: e.Index, Box: e.Box}
		}
		ks, err := g.Res.OpenAll(envs)
		if err != nil {
			return nil, err
		}
		if first {
			merged = ks
			first = false
		} else {
			merged.Merge(ks)
		}
	}
	cs.resKeys[factor] = merged
	return merged, nil
}

// InvalidateResolutionCache drops cached envelope keys (e.g. after the
// owner extended an open-ended grant) so the next query refetches.
func (cs *ConsumerStream) InvalidateResolutionCache() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.resKeys = make(map[uint64]*core.ResolutionKeySet)
}

// StatRange runs a single-aggregate statistical query; it requires a
// full-resolution grant covering the returned chunk range (arbitrary
// boundaries need arbitrary outer leaves).
func (cs *ConsumerStream) StatRange(ctx context.Context, ts, te int64) (StatResult, error) {
	if cs.keys == nil {
		return StatResult{}, errors.New("client: no full-resolution grant; use StatSeries with your granted factor")
	}
	return cs.view.statRange(ctx, cs.dec, ts, te)
}

// StatSeries runs a windowed query at windowChunks granularity. With a
// full-resolution grant any window size works; otherwise windowChunks must
// be a multiple of a granted resolution factor (crypto-enforced: coarser
// multiples decrypt because their boundaries are still outer keys, §4.4.1).
func (cs *ConsumerStream) StatSeries(ctx context.Context, ts, te int64, windowChunks uint64) ([]StatResult, error) {
	dec, err := cs.decrypterFor(ctx, windowChunks)
	if err != nil {
		return nil, err
	}
	return cs.view.statSeries(ctx, dec, ts, te, windowChunks)
}

// decrypterFor resolves the window decrypter for a window size: the merged
// full-resolution key set when one exists, otherwise the envelope keys of
// the coarsest granted factor dividing the window.
func (cs *ConsumerStream) decrypterFor(ctx context.Context, windowChunks uint64) (windowDecrypter, error) {
	if cs.keys != nil {
		return cs.dec, nil
	}
	var best uint64
	for f := range cs.resGrant {
		if windowChunks%f == 0 && f > best {
			best = f
		}
	}
	if best == 0 {
		return nil, fmt.Errorf("client: window of %d chunks is not a multiple of any granted resolution %v",
			windowChunks, cs.ResolutionFactors())
	}
	return cs.resolutionKeys(ctx, best)
}

// FitRange fits the private linear model over [ts, te); requires a
// full-resolution grant and a LinFit-enabled stream spec.
func (cs *ConsumerStream) FitRange(ctx context.Context, ts, te int64) (chunk.FitResult, error) {
	if cs.keys == nil {
		return chunk.FitResult{}, errors.New("client: no full-resolution grant")
	}
	return cs.view.fitRange(ctx, cs.dec, ts, te)
}

// Points retrieves raw records; full-resolution grants only (the paper's
// resolution restriction exists precisely to make this impossible
// otherwise).
func (cs *ConsumerStream) Points(ctx context.Context, ts, te int64) ([]chunk.Point, error) {
	if cs.keys == nil {
		return nil, errors.New("client: raw record access requires a full-resolution grant")
	}
	cs.mu.Lock()
	w := cs.keys.NewWalker()
	cs.mu.Unlock()
	return cs.view.points(ctx, w, ts, te)
}

// StatMulti runs an inter-stream statistical query: the one-window plan
// streams[0].Query().Streams(streams[1:]...).Range(ts, te). The server
// returns one aggregate summed across the streams; decryption peels each
// stream's outer keys in turn, so it succeeds only with a full-resolution
// grant on every stream (§4.3: "a principal can only decrypt the result
// if she is granted access to all streams involved"). Like any plan it
// refuses a stream listed twice rather than counting it twice.
func (c *Consumer) StatMulti(ctx context.Context, streams []*ConsumerStream, ts, te int64) (StatResult, error) {
	if len(streams) == 0 {
		return StatResult{}, errors.New("client: no streams")
	}
	rest := make([]Queryable, len(streams)-1)
	for i, cs := range streams[1:] {
		rest[i] = cs
	}
	res, err := streams[0].Query().Streams(rest...).Range(ts, te).All(ctx)
	if err != nil {
		return StatResult{}, err
	}
	return res[0], nil
}
