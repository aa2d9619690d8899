package client

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/wire"
)

// StreamOptions configures a new stream.
type StreamOptions struct {
	// UUID identifies the stream; required.
	UUID string
	// Epoch is the start of chunk 0 (Unix ms); required.
	Epoch int64
	// Interval is the chunk interval Δ in ms (the smallest unit of
	// server-side processing, §4.3); required.
	Interval int64
	// Spec selects the digest statistics; defaults to chunk.DefaultSpec.
	Spec chunk.DigestSpec
	// Compression is the point payload codec; defaults to zlib, which is
	// applied per chunk where it shrinks the payload (chunk.Seal). None
	// means never.
	Compression chunk.Compression
	// Fanout is the index arity; defaults to 64.
	Fanout int
	// TreeHeight sizes the keystream (2^height keys); defaults to 30
	// (one billion keys, the paper's configuration).
	TreeHeight int
	// Meta is free-form stream metadata (metric, source, …).
	Meta string
	// Insecure disables all encryption: plaintext digests and payloads
	// through the identical pipeline. This is the paper's insecure
	// baseline for quantifying TimeCrypt's overhead — never use it for
	// real data.
	Insecure bool
}

func (o *StreamOptions) applyDefaults() error {
	if o.UUID == "" {
		return errors.New("client: stream UUID required")
	}
	if o.Interval <= 0 {
		return errors.New("client: positive chunk interval required")
	}
	if o.Spec.VectorLen() == 0 {
		o.Spec = chunk.DefaultSpec()
	}
	if err := o.Spec.Validate(); err != nil {
		return err
	}
	if o.Fanout == 0 {
		o.Fanout = 64
	}
	if o.TreeHeight == 0 {
		o.TreeHeight = core.DefaultTreeHeight
	}
	return nil
}

// Owner is a data owner's handle to a TimeCrypt server.
type Owner struct {
	t Transport
}

// NewOwner wraps a transport.
func NewOwner(t Transport) *Owner { return &Owner{t: t} }

// openGrantState tracks an open-ended subscription (Table 1 #9) so the
// owner can keep extending it until revocation: forward secrecy comes from
// the owner simply not issuing tokens for data past the revocation point.
type openGrantState struct {
	principalPub []byte
	fromChunk    uint64
	factor       uint64
	grantSeq     int
}

// OwnerStream is the owner/producer side of one stream: it holds the key
// material, batches and seals chunks, maintains resolution keystreams, and
// issues grants. Methods are safe for concurrent use, but ingest order is
// the caller's responsibility (one producer per stream, §4.6).
type OwnerStream struct {
	view

	mu          sync.Mutex
	tree        *core.Tree
	enc         *core.Encryptor
	builder     *chunk.Builder
	count       uint64 // chunks inserted at the server
	resolutions map[uint64]*resolutionState
	openGrants  map[string]*openGrantState
	dec         windowDecrypter
	stagedSeq   map[uint64]uint64 // chunk index -> next staged record seq
	writer      *Writer           // open pipelined writer, if any
}

// noWriterLocked rejects direct ingest while a pipelined Writer is open:
// the writer owns chunk-index assignment, and interleaving would corrupt
// ordering. Caller holds s.mu.
func (s *OwnerStream) noWriterLocked() error {
	if s.writer != nil {
		return errors.New("client: stream has an open Writer; ingest through it or Close it first")
	}
	return nil
}

type resolutionState struct {
	rs      *core.ResolutionStream
	nextEnv uint64
	walker  *core.Walker // dedicated walker for sealing outer leaves
}

// maxResolutionWindows caps the dual-key-regression chain length per
// resolution stream (2^20 windows ≈ years of data at any realistic Δ).
const maxResolutionWindows = 1 << 20

// CreateStream registers a stream at the server and generates fresh key
// material for it.
func (o *Owner) CreateStream(ctx context.Context, opts StreamOptions) (*OwnerStream, error) {
	if err := opts.applyDefaults(); err != nil {
		return nil, err
	}
	tree, err := core.GenerateTree(core.NewPRG(core.PRGAES), opts.TreeHeight)
	if err != nil {
		return nil, err
	}
	specBytes, err := opts.Spec.MarshalBinary()
	if err != nil {
		return nil, err
	}
	cfg := wire.StreamConfig{
		Epoch:       opts.Epoch,
		Interval:    opts.Interval,
		VectorLen:   uint32(opts.Spec.VectorLen()),
		Fanout:      uint32(opts.Fanout),
		Compression: uint8(opts.Compression),
		DigestSpec:  specBytes,
		Meta:        opts.Meta,
	}
	if _, err := call[*wire.OK](ctx, o.t, &wire.CreateStream{UUID: opts.UUID, Cfg: cfg}); err != nil {
		return nil, err
	}
	return newOwnerStream(view{
		t: o.t, uuid: opts.UUID, epoch: opts.Epoch, interval: opts.Interval,
		spec: opts.Spec, comp: opts.Compression, plain: opts.Insecure,
	}, tree, 0)
}

// OpenStream restores the owner handle of an existing stream from its key
// tree seed and height (what TreeSeed and StreamOptions.TreeHeight were at
// CreateStream): the inverse of CreateStream plus TreeSeed. One StreamInfo
// round trip supplies the stream's geometry, digest spec and compression,
// and ingest continues at the chunk count the server reports.
//
// Only the seed is restored. Resolution keystreams (EnableResolution),
// open-ended grants, staged-record sequence numbers, points buffered but
// not yet sealed, and the Insecure flag, which the server does not
// record, all start afresh.
func (o *Owner) OpenStream(ctx context.Context, uuid string, seed core.Node, height int) (*OwnerStream, error) {
	info, err := call[*wire.StreamInfoResp](ctx, o.t, &wire.StreamInfo{UUID: uuid})
	if err != nil {
		return nil, err
	}
	var spec chunk.DigestSpec
	if err := spec.UnmarshalBinary(info.Cfg.DigestSpec); err != nil {
		return nil, fmt.Errorf("client: stream %q digest spec: %w", uuid, err)
	}
	tree, err := core.NewTree(core.NewPRG(core.PRGAES), height, seed)
	if err != nil {
		return nil, err
	}
	return newOwnerStream(view{
		t: o.t, uuid: uuid, epoch: info.Cfg.Epoch, interval: info.Cfg.Interval,
		spec: spec, comp: chunk.Compression(info.Cfg.Compression),
	}, tree, info.Count)
}

// newOwnerStream assembles an owner handle whose next chunk is count.
func newOwnerStream(v view, tree *core.Tree, count uint64) (*OwnerStream, error) {
	builder, err := chunk.NewBuilder(v.epoch, v.interval)
	if err != nil {
		return nil, err
	}
	if err := builder.SkipTo(count); err != nil {
		return nil, err
	}
	s := &OwnerStream{
		view:        v,
		tree:        tree,
		enc:         core.NewEncryptor(tree.NewWalker()),
		builder:     builder,
		count:       count,
		resolutions: make(map[uint64]*resolutionState),
		openGrants:  make(map[string]*openGrantState),
	}
	if v.plain {
		s.dec = identityDecrypter{}
	} else {
		s.dec = &encDecrypter{enc: core.NewEncryptor(tree.NewWalker())}
	}
	return s, nil
}

// DeleteStream removes a stream and all server-side data.
func (o *Owner) DeleteStream(ctx context.Context, uuid string) error {
	_, err := call[*wire.OK](ctx, o.t, &wire.DeleteStream{UUID: uuid})
	return err
}

// ListStreams returns the sorted UUIDs of every stream the server (or,
// through a cluster router, every engine shard) currently serves.
func (o *Owner) ListStreams(ctx context.Context) ([]string, error) {
	resp, err := call[*wire.ListStreamsResp](ctx, o.t, &wire.ListStreams{})
	if err != nil {
		return nil, err
	}
	return resp.UUIDs, nil
}

// UUID returns the stream identifier.
func (s *OwnerStream) UUID() string { return s.uuid }

// Count returns the number of chunks inserted so far.
func (s *OwnerStream) Count() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// TreeSeed exposes the master secret for persistence. Never share it.
func (s *OwnerStream) TreeSeed() core.Node { return s.tree.Seed() }

// Append adds one record. When the record closes one or more chunk
// intervals, the completed chunks are sealed and inserted (InsertRecord,
// Table 1 #4).
func (s *OwnerStream) Append(ctx context.Context, p chunk.Point) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.noWriterLocked(); err != nil {
		return err
	}
	done, err := s.builder.Add(p)
	if err != nil {
		return err
	}
	for _, raw := range done {
		if err := s.insertLocked(ctx, raw); err != nil {
			return err
		}
	}
	return nil
}

// Flush seals and inserts the in-progress chunk, if any. The chunk still
// spans its full interval; flushing mid-interval simply persists early.
func (s *OwnerStream) Flush(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.noWriterLocked(); err != nil {
		return err
	}
	raw := s.builder.Flush()
	if raw == nil {
		return nil
	}
	return s.insertLocked(ctx, *raw)
}

// AppendChunk seals and inserts the given points as the next full chunk.
// Benchmarks and bulk loaders use it to skip per-point batching. Points
// must lie within the next chunk interval.
func (s *OwnerStream) AppendChunk(ctx context.Context, pts []chunk.Point) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.noWriterLocked(); err != nil {
		return err
	}
	raw, err := s.nextChunkRaw(s.count, pts)
	if err != nil {
		return err
	}
	if err := s.insertLocked(ctx, raw); err != nil {
		return err
	}
	// Keep the per-point builder in sync so Append/AppendRealTime can
	// continue after bulk loads.
	return s.builder.SkipTo(s.count)
}

// nextChunkRaw validates that every point lies within chunk idx's interval
// and assembles the raw chunk (shared by the blocking and pipelined bulk
// ingest paths). Caller holds s.mu.
func (s *OwnerStream) nextChunkRaw(idx uint64, pts []chunk.Point) (chunk.Raw, error) {
	start := s.chunkStart(idx)
	end := start + s.interval
	for _, p := range pts {
		if p.TS < start || p.TS >= end {
			return chunk.Raw{}, fmt.Errorf("client: point at %d outside chunk %d interval [%d,%d)", p.TS, idx, start, end)
		}
	}
	return chunk.Raw{Index: idx, Start: start, End: end, Points: pts}, nil
}

func (s *OwnerStream) insertLocked(ctx context.Context, raw chunk.Raw) error {
	if raw.Index != s.count {
		return fmt.Errorf("client: chunk %d out of order (expected %d)", raw.Index, s.count)
	}
	sealed, err := s.sealLocked(raw)
	if err != nil {
		return err
	}
	if _, err := call[*wire.OK](ctx, s.t, &wire.InsertChunk{UUID: s.uuid, Chunk: sealed}); err != nil {
		return err
	}
	s.count = raw.Index + 1
	return s.extendEnvelopesLocked(ctx)
}

// sealLocked seals one raw chunk into its wire encoding without sending
// it; the pipelined Writer seals ahead of server acknowledgements.
func (s *OwnerStream) sealLocked(raw chunk.Raw) ([]byte, error) {
	var sealed *chunk.Sealed
	var err error
	if s.plain {
		sealed, err = chunk.SealPlain(s.spec, s.comp, raw.Index, raw.Start, raw.End, raw.Points)
	} else {
		sealed, err = chunk.Seal(s.enc, s.spec, s.comp, raw.Index, raw.Start, raw.End, raw.Points)
	}
	if err != nil {
		return nil, err
	}
	return chunk.MarshalSealed(sealed), nil
}

// extendEnvelopesLocked uploads any resolution key envelopes whose window
// boundary the stream has now reached.
func (s *OwnerStream) extendEnvelopesLocked(ctx context.Context) error {
	for factor, st := range s.resolutions {
		var batch []wire.WireEnvelope
		for st.nextEnv*factor <= s.count && st.nextEnv < st.rs.MaxWindows() {
			leaf, err := st.walker.Leaf(st.nextEnv * factor)
			if err != nil {
				return err
			}
			env, err := st.rs.Seal(st.nextEnv, leaf)
			if err != nil {
				return err
			}
			batch = append(batch, wire.WireEnvelope{Index: env.Index, Box: env.Box})
			st.nextEnv++
		}
		if len(batch) > 0 {
			if _, err := call[*wire.OK](ctx, s.t, &wire.PutEnvelopes{UUID: s.uuid, Factor: factor, Envs: batch}); err != nil {
				return err
			}
		}
	}
	return nil
}

// EnableResolution creates the per-resolution keystream for aggregation
// factor f (in chunks) and uploads envelopes for all boundaries reached so
// far. Resolutions can be added at any time (§4.4.2: "a user … can
// dynamically at any point in time define a new resolution").
func (s *OwnerStream) EnableResolution(ctx context.Context, factor uint64) error {
	if factor < 2 {
		return errors.New("client: resolution factor must be >= 2 (1 is full resolution)")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.resolutions[factor]; dup {
		return nil
	}
	rs, err := core.NewResolutionStream(factor, maxResolutionWindows)
	if err != nil {
		return err
	}
	s.resolutions[factor] = &resolutionState{rs: rs, walker: s.tree.NewWalker()}
	return s.extendEnvelopesLocked(ctx)
}

// Resolutions lists the enabled resolution factors.
func (s *OwnerStream) Resolutions() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, 0, len(s.resolutions))
	for f := range s.resolutions {
		out = append(out, f)
	}
	return out
}

// chunkSpanForTimes maps a time range to chunk positions [a, b); te == 0
// means "open ended" and maps to the end of the keystream.
func (s *OwnerStream) chunkSpanForTimes(ts, te int64) (uint64, uint64, error) {
	if ts < s.epoch {
		ts = s.epoch
	}
	a := uint64((ts - s.epoch) / s.interval)
	var b uint64
	if te == 0 {
		b = s.tree.NumLeaves() - 1
	} else {
		if te <= ts {
			return 0, 0, fmt.Errorf("client: empty grant range [%d,%d)", ts, te)
		}
		b = uint64((te - s.epoch + s.interval - 1) / s.interval)
	}
	return a, b, nil
}

// Grant gives a principal access to [ts, te) at the given resolution
// factor (0 or 1 = full resolution: raw points plus any-granularity
// statistics; f >= 2: only f-chunk-aligned aggregates and coarser,
// crypto-enforced). The wrapped grant is stored in the server key store
// (GrantAccess, Table 1 #8). It returns the grant id.
func (s *OwnerStream) Grant(ctx context.Context, principalPub []byte, ts, te int64, factor uint64) (string, error) {
	if te == 0 {
		return "", errors.New("client: Grant needs a bounded range; use GrantOpen for subscriptions")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.grantLocked(ctx, principalPub, ts, te, factor, "")
}

func (s *OwnerStream) grantLocked(ctx context.Context, principalPub []byte, ts, te int64, factor uint64, grantID string) (string, error) {
	a, b, err := s.chunkSpanForTimes(ts, te)
	if err != nil {
		return "", err
	}
	specBytes, err := s.spec.MarshalBinary()
	if err != nil {
		return "", err
	}
	g := &Grant{
		StreamID:    s.uuid,
		Epoch:       s.epoch,
		Interval:    s.interval,
		TreeHeight:  uint8(s.tree.Height()),
		PRG:         core.PRGAES,
		DigestSpec:  specBytes,
		Compression: uint8(s.comp),
		FromChunk:   a,
		ToChunk:     b,
	}
	if factor <= 1 {
		// Full resolution: decrypting [a, b) needs leaves a..b.
		tokens, err := s.tree.Cover(a, b)
		if err != nil {
			return "", err
		}
		g.Tokens = tokens
	} else {
		st, ok := s.resolutions[factor]
		if !ok {
			return "", fmt.Errorf("client: resolution %d not enabled (call EnableResolution first)", factor)
		}
		loWin := (a + factor - 1) / factor
		hiWin := b / factor
		if hiWin <= loWin {
			return "", fmt.Errorf("client: grant range holds no complete %d-chunk window", factor)
		}
		g.Factor = factor
		g.FromChunk = loWin * factor
		g.ToChunk = hiWin * factor
		tok, err := st.rs.Share(loWin, hiWin-1)
		if err != nil {
			return "", err
		}
		g.Res = tok
	}
	blob, err := sealGrant(principalPub, g)
	if err != nil {
		return "", err
	}
	if grantID == "" {
		grantID, err = newGrantID()
		if err != nil {
			return "", err
		}
	}
	_, err = call[*wire.OK](ctx, s.t, &wire.PutGrant{
		UUID: s.uuid, Principal: PrincipalID(principalPub), GrantID: grantID, Blob: blob,
	})
	if err != nil {
		return "", err
	}
	return grantID, nil
}

// GrantOpen starts an open-ended subscription from ts (GrantOpenAccess,
// Table 1 #9): the principal immediately receives access up to the current
// stream head, and each ExtendOpenGrants call rolls the grant forward.
// Revoking simply stops the extension, giving forward secrecy: tokens for
// data written after revocation are never issued.
func (s *OwnerStream) GrantOpen(ctx context.Context, principalPub []byte, ts int64, factor uint64) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	grantID, err := newGrantID()
	if err != nil {
		return "", err
	}
	a := uint64(0)
	if ts > s.epoch {
		a = uint64((ts - s.epoch) / s.interval)
	}
	s.openGrants[grantID] = &openGrantState{
		principalPub: principalPub,
		fromChunk:    a,
		factor:       factor,
	}
	return grantID, s.extendOneLocked(ctx, grantID)
}

// ExtendOpenGrants rolls every active subscription forward to the current
// stream head. Owners call it periodically (e.g. after ingest batches).
func (s *OwnerStream) ExtendOpenGrants(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id := range s.openGrants {
		if err := s.extendOneLocked(ctx, id); err != nil {
			return err
		}
	}
	return nil
}

func (s *OwnerStream) extendOneLocked(ctx context.Context, grantID string) error {
	og := s.openGrants[grantID]
	if og == nil {
		return fmt.Errorf("client: unknown open grant %q", grantID)
	}
	if s.count == 0 || s.count <= og.fromChunk {
		return nil // nothing to share yet
	}
	ts := s.chunkStart(og.fromChunk)
	te := s.chunkStart(s.count)
	_, err := s.grantLocked(ctx, og.principalPub, ts, te, og.factor, grantID)
	og.grantSeq++
	return err
}

// Revoke removes a grant from the server key store and, for open-ended
// subscriptions, stops future extension (RevokeAccess, Table 1 #10). The
// principal keeps whatever it already cached — revoking old data is
// explicitly out of scope in the paper (§3.3).
func (s *OwnerStream) Revoke(ctx context.Context, principalPub []byte, grantID string) error {
	s.mu.Lock()
	delete(s.openGrants, grantID)
	s.mu.Unlock()
	_, err := call[*wire.OK](ctx, s.t, &wire.DeleteGrant{
		UUID: s.uuid, Principal: PrincipalID(principalPub), GrantID: grantID,
	})
	return err
}

// StatRange runs a statistical query over [ts, te) and decrypts the result
// with the owner's keys (owners can always query their own data).
func (s *OwnerStream) StatRange(ctx context.Context, ts, te int64) (StatResult, error) {
	return s.view.statRange(ctx, s.dec, ts, te)
}

// StatSeries runs a windowed statistical query (windowChunks chunks per
// result) and decrypts every window.
func (s *OwnerStream) StatSeries(ctx context.Context, ts, te int64, windowChunks uint64) ([]StatResult, error) {
	return s.view.statSeries(ctx, s.dec, ts, te, windowChunks)
}

// FitRange fits the private linear model v ≈ Slope·t + Intercept over
// [ts, te); the stream's digest spec must enable LinFit.
func (s *OwnerStream) FitRange(ctx context.Context, ts, te int64) (chunk.FitResult, error) {
	return s.view.fitRange(ctx, s.dec, ts, te)
}

// Points retrieves and decrypts the raw records in [ts, te).
func (s *OwnerStream) Points(ctx context.Context, ts, te int64) ([]chunk.Point, error) {
	s.mu.Lock()
	w := s.tree.NewWalker()
	s.mu.Unlock()
	return s.view.points(ctx, w, ts, te)
}

// DeleteRange asks the server to drop raw payloads in [ts, te) while
// keeping digests queryable (Table 1 #7).
func (s *OwnerStream) DeleteRange(ctx context.Context, ts, te int64) error {
	_, err := call[*wire.OK](ctx, s.t, &wire.DeleteRange{UUID: s.uuid, Ts: ts, Te: te})
	return err
}

// Rollup ages out [ts, te) to factor-chunk granularity (Table 1 #3).
func (s *OwnerStream) Rollup(ctx context.Context, factor uint64, ts, te int64) error {
	_, err := call[*wire.OK](ctx, s.t, &wire.Rollup{UUID: s.uuid, Factor: factor, Ts: ts, Te: te})
	return err
}
