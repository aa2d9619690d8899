package wire

import (
	"fmt"
)

// MsgType identifies a protocol message. Requests and responses share one
// namespace; every request maps to one response type (or Error/OK).
type MsgType uint8

// Protocol message types. The numbering is part of the wire format: a code
// is never reused or renumbered, and a retired code stays here as a
// "// N reserved: was X" line (TestMsgTypeCodesPinned holds every code).
const (
	TError            MsgType = 1
	TOK               MsgType = 2
	TCreateStream     MsgType = 3
	TDeleteStream     MsgType = 4
	TInsertChunk      MsgType = 5
	TGetRange         MsgType = 6
	TGetRangeResp     MsgType = 7
	TStatRange        MsgType = 8
	TStatRangeResp    MsgType = 9
	TDeleteRange      MsgType = 10
	TRollup           MsgType = 11
	TPutGrant         MsgType = 12
	TGetGrants        MsgType = 13
	TGetGrantsResp    MsgType = 14
	TDeleteGrant      MsgType = 15
	TPutEnvelopes     MsgType = 16
	TGetEnvelopes     MsgType = 17
	TGetEnvelopesResp MsgType = 18
	TStreamInfo       MsgType = 19
	TStreamInfoResp   MsgType = 20
	TStageRecord      MsgType = 21
	TGetStaged        MsgType = 22
	TGetStagedResp    MsgType = 23
	TListStreams      MsgType = 24
	TListStreamsResp  MsgType = 25
	TBatch            MsgType = 26
	TBatchResp        MsgType = 27
	TQueryStream      MsgType = 28
	TAggRange         MsgType = 29
	TAggRangeResp     MsgType = 30
	TStreamCredit     MsgType = 31
	TTopologyInfo     MsgType = 32
	TTopologyInfoResp MsgType = 33
	TTopologyUpdate   MsgType = 34
	TReshard          MsgType = 35
	TStreamSnapshot   MsgType = 36
	TSnapshotChunk    MsgType = 37
	TIngestSnapshot   MsgType = 38
	THandoffComplete  MsgType = 39
	TSubscribe        MsgType = 40
	TSubscribeResp    MsgType = 41
	TSubEvent         MsgType = 42
	TUnsubscribe      MsgType = 43
	TReplAppend       MsgType = 44
	TReplAck          MsgType = 45
	TReplSnapshot     MsgType = 46
	TPromote          MsgType = 47
	TLeaseInfo        MsgType = 48
	TLeaseInfoResp    MsgType = 49
)

// Message is one protocol message. Its codec method names each field once,
// in wire order; the same method encodes and decodes it.
type Message interface {
	Type() MsgType
	codec(c Codec)
}

// Marshal encodes a message as type byte + payload.
func Marshal(m Message) []byte {
	var e Encoder
	e.U8(uint8(m.Type()))
	m.codec(Codec{e: &e})
	return e.Bytes()
}

// Unmarshal decodes a message produced by Marshal.
func Unmarshal(data []byte) (Message, error) { return unmarshal(new(Decoder), data) }

// unmarshal is Unmarshal through d, which it resets first: a batch decodes
// every element through one Decoder instead of allocating one per element.
func unmarshal(d *Decoder, data []byte) (Message, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("wire: empty message")
	}
	t := data[0]
	if int(t) >= len(messages) || messages[t].new == nil {
		return nil, fmt.Errorf("wire: unknown message type %d", t)
	}
	m := messages[t].new()
	*d = Decoder{buf: data[1:]}
	m.codec(Codec{d: d})
	if err := d.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// Kind is what a message is to the layers that replicate, fence and retry
// it.
type Kind uint8

const (
	// KindResponse answers a request.
	KindResponse Kind = iota
	// KindRead changes nothing, so it is safe to replay after an ambiguous
	// failure (a redial, a failover).
	KindRead
	// KindMutation changes engine state: it goes through the leader, is
	// replicated, and is a valid replication record.
	KindMutation
	// KindControl is everything else: flow control, subscriptions,
	// resharding and the replication plane.
	KindControl
)

// messages is the one message table, indexed by type code: how to decode
// each message, its kind, and whether the engine's write fence guards it.
// The fence guards client data writes; the migration machinery that drives
// fences (IngestSnapshot, HandoffComplete) is exempt, and so is
// CreateStream (a fenced stream exists, so creation fails anyway, and after
// release the tombstone answers). Batch's kind is folded from its members
// by KindOf.
var messages = [...]struct {
	new    func() Message
	kind   Kind
	fenced bool
}{
	TError:            {func() Message { return &Error{} }, KindResponse, false},
	TOK:               {func() Message { return &OK{} }, KindResponse, false},
	TCreateStream:     {func() Message { return &CreateStream{} }, KindMutation, false},
	TDeleteStream:     {func() Message { return &DeleteStream{} }, KindMutation, true},
	TInsertChunk:      {func() Message { return &InsertChunk{} }, KindMutation, true},
	TGetRange:         {func() Message { return &GetRange{} }, KindRead, false},
	TGetRangeResp:     {func() Message { return &GetRangeResp{} }, KindResponse, false},
	TStatRange:        {func() Message { return &StatRange{} }, KindRead, false},
	TStatRangeResp:    {func() Message { return &StatRangeResp{} }, KindResponse, false},
	TDeleteRange:      {func() Message { return &DeleteRange{} }, KindMutation, true},
	TRollup:           {func() Message { return &Rollup{} }, KindMutation, true},
	TPutGrant:         {func() Message { return &PutGrant{} }, KindMutation, true},
	TGetGrants:        {func() Message { return &GetGrants{} }, KindRead, false},
	TGetGrantsResp:    {func() Message { return &GetGrantsResp{} }, KindResponse, false},
	TDeleteGrant:      {func() Message { return &DeleteGrant{} }, KindMutation, true},
	TPutEnvelopes:     {func() Message { return &PutEnvelopes{} }, KindMutation, true},
	TGetEnvelopes:     {func() Message { return &GetEnvelopes{} }, KindRead, false},
	TGetEnvelopesResp: {func() Message { return &GetEnvelopesResp{} }, KindResponse, false},
	TStreamInfo:       {func() Message { return &StreamInfo{} }, KindRead, false},
	TStreamInfoResp:   {func() Message { return &StreamInfoResp{} }, KindResponse, false},
	TStageRecord:      {func() Message { return &StageRecord{} }, KindMutation, true},
	TGetStaged:        {func() Message { return &GetStaged{} }, KindRead, false},
	TGetStagedResp:    {func() Message { return &GetStagedResp{} }, KindResponse, false},
	TListStreams:      {func() Message { return &ListStreams{} }, KindRead, false},
	TListStreamsResp:  {func() Message { return &ListStreamsResp{} }, KindResponse, false},
	TBatch:            {func() Message { return &Batch{} }, KindControl, false},
	TBatchResp:        {func() Message { return &BatchResp{} }, KindResponse, false},
	TQueryStream:      {func() Message { return &QueryStream{} }, KindRead, false},
	TAggRange:         {func() Message { return &AggRange{} }, KindRead, false},
	TAggRangeResp:     {func() Message { return &AggRangeResp{} }, KindResponse, false},
	TStreamCredit:     {func() Message { return &StreamCredit{} }, KindControl, false},
	TTopologyInfo:     {func() Message { return &TopologyInfo{} }, KindRead, false},
	TTopologyInfoResp: {func() Message { return &TopologyInfoResp{} }, KindResponse, false},
	TTopologyUpdate:   {func() Message { return &TopologyUpdate{} }, KindMutation, false},
	TReshard:          {func() Message { return &Reshard{} }, KindControl, false},
	TStreamSnapshot:   {func() Message { return &StreamSnapshot{} }, KindRead, false},
	TSnapshotChunk:    {func() Message { return &SnapshotChunk{} }, KindResponse, false},
	TIngestSnapshot:   {func() Message { return &IngestSnapshot{} }, KindMutation, false},
	THandoffComplete:  {func() Message { return &HandoffComplete{} }, KindMutation, false},
	TSubscribe:        {func() Message { return &Subscribe{} }, KindControl, false},
	TSubscribeResp:    {func() Message { return &SubscribeResp{} }, KindResponse, false},
	TSubEvent:         {func() Message { return &SubEvent{} }, KindResponse, false},
	TUnsubscribe:      {func() Message { return &Unsubscribe{} }, KindControl, false},
	TReplAppend:       {func() Message { return &ReplAppend{} }, KindControl, false},
	TReplAck:          {func() Message { return &ReplAck{} }, KindResponse, false},
	TReplSnapshot:     {func() Message { return &ReplSnapshot{} }, KindControl, false},
	TPromote:          {func() Message { return &Promote{} }, KindControl, false},
	TLeaseInfo:        {func() Message { return &LeaseInfo{} }, KindRead, false},
	TLeaseInfoResp:    {func() Message { return &LeaseInfoResp{} }, KindResponse, false},
}

// KindOf reports a message's kind. A Batch folds its members: any mutation
// makes it a mutation, and it is a read only when it is non-empty and every
// member is a read; otherwise it is control.
func KindOf(m Message) Kind {
	b, ok := m.(*Batch)
	if !ok {
		return messages[m.Type()].kind
	}
	read := len(b.Reqs) > 0
	for _, sub := range b.Reqs {
		if k := KindOf(sub); k == KindMutation {
			return KindMutation
		} else if k != KindRead {
			read = false
		}
	}
	if read {
		return KindRead
	}
	return KindControl
}

// FencedUUID reports the stream a request targets when the engine's write
// fence guards its type.
func FencedUUID(m Message) (string, bool) {
	if !messages[m.Type()].fenced {
		return "", false
	}
	return RoutingUUID(m)
}

// Error is the generic failure response. Aux carries structured detail for
// codes that define one (CodeWrongShard: the responder's topology epoch);
// it is zero otherwise.
type Error struct {
	Code uint32
	Aux  uint64
	Msg  string
}

// Error codes.
const (
	CodeInternal uint32 = iota + 1
	CodeNotFound
	CodeBadRequest
	CodeExists
	// CodeCanceled reports work abandoned because the caller's context was
	// canceled or its wire-propagated deadline expired.
	CodeCanceled
	// CodeBusy reports a request refused because the connection already
	// has its maximum number of requests in flight (the server-side
	// per-connection cap); the client should finish some calls — or back
	// off — and retry.
	CodeBusy
	// CodeWrongShard reports a request for a stream that migrated to a
	// different shard during a topology change the caller has not seen.
	// Error.Aux carries the topology epoch of the change, so a router (or
	// client) holding an older ring knows to refresh its topology
	// (TopologyInfo) and retry instead of failing. The engine write fence
	// answers it too: a mutation whose envelope epoch is older than the
	// stream's fence (or a replication frame carrying a deposed leader's
	// lease epoch) is rejected with the fencing epoch in Aux.
	CodeWrongShard
	// CodeReplGap reports a replication append whose FirstSeq is beyond
	// the follower's watermark + 1: records are missing in between and
	// applying would corrupt the replica. Error.Aux carries the follower's
	// current watermark so the leader can restart shipping from Aux+1 if
	// its log still holds those records, or fall back to a full
	// ReplSnapshot resync. Nothing is applied.
	CodeReplGap
	// CodeNotLeader reports a client mutation sent to a replication
	// follower (or a deposed leader). Error.Aux carries the responder's
	// replication epoch and Msg names the leader address it believes is
	// current, so failover-aware callers re-resolve and retry there.
	CodeNotLeader
)

func (*Error) Type() MsgType { return TError }
func (m *Error) codec(c Codec) {
	c.U32(&m.Code)
	c.U64(&m.Aux)
	c.Str(&m.Msg)
}

// Error implements the error interface so responses can flow through Go
// error handling.
func (m *Error) Error() string { return fmt.Sprintf("server error %d: %s", m.Code, m.Msg) }

// OK is the generic empty success response.
type OK struct{}

func (*OK) Type() MsgType { return TOK }
func (*OK) codec(Codec)   {}

// StreamConfig is the server-visible stream metadata. The server never sees
// key material; it needs only the time geometry (epoch, interval), the
// digest vector length for index arithmetic, and opaque client parameters
// (digest spec, compression) it hands back to consumers.
type StreamConfig struct {
	Epoch       int64  // start of chunk 0, Unix ms
	Interval    int64  // chunk interval Δ in ms
	VectorLen   uint32 // digest elements per chunk
	Fanout      uint32 // index tree arity
	Compression uint8  // chunk payload codec (client-interpreted)
	DigestSpec  []byte // opaque chunk.DigestSpec encoding (client-interpreted)
	Meta        string // free-form stream metadata (metric name, source, …)
}

// Encode appends the config to an encoder (exported for server-side
// metadata persistence).
func (s *StreamConfig) Encode(e *Encoder) { s.codec(Codec{e: e}) }

// Decode reads the config from a decoder; check d.Done or d.Err after.
func (s *StreamConfig) Decode(d *Decoder) { s.codec(Codec{d: d}) }

func (s *StreamConfig) codec(c Codec) {
	c.I64(&s.Epoch)
	c.I64(&s.Interval)
	c.U32(&s.VectorLen)
	c.U32(&s.Fanout)
	c.U8(&s.Compression)
	c.Blob(&s.DigestSpec)
	c.Str(&s.Meta)
}

// CreateStream registers a new stream (Table 1 #1).
type CreateStream struct {
	UUID string
	Cfg  StreamConfig
}

func (*CreateStream) Type() MsgType                { return TCreateStream }
func (m *CreateStream) routingKey() (string, bool) { return m.UUID, true }
func (m *CreateStream) codec(c Codec) {
	c.Str(&m.UUID)
	m.Cfg.codec(c)
}

// DeleteStream removes a stream and all associated data (Table 1 #2).
type DeleteStream struct{ UUID string }

func (*DeleteStream) Type() MsgType                { return TDeleteStream }
func (m *DeleteStream) routingKey() (string, bool) { return m.UUID, true }
func (m *DeleteStream) codec(c Codec) {
	c.Str(&m.UUID)
}

// InsertChunk appends one sealed chunk (the wire-level form of Table 1 #4;
// batching records into chunks happens client-side, §4.6).
type InsertChunk struct {
	UUID  string
	Chunk []byte // chunk.MarshalSealed encoding
}

func (*InsertChunk) Type() MsgType                { return TInsertChunk }
func (m *InsertChunk) routingKey() (string, bool) { return m.UUID, true }
func (m *InsertChunk) codec(c Codec) {
	c.Str(&m.UUID)
	c.Blob(&m.Chunk)
}

// GetRange retrieves the sealed chunks overlapping [Ts, Te) (Table 1 #5).
type GetRange struct {
	UUID   string
	Ts, Te int64
}

func (*GetRange) Type() MsgType                { return TGetRange }
func (m *GetRange) routingKey() (string, bool) { return m.UUID, true }
func (m *GetRange) codec(c Codec) {
	c.Str(&m.UUID)
	c.I64(&m.Ts)
	c.I64(&m.Te)
}

// GetRangeResp carries the matching sealed chunks.
type GetRangeResp struct{ Chunks [][]byte }

func (*GetRangeResp) Type() MsgType { return TGetRangeResp }
func (m *GetRangeResp) codec(c Codec) {
	c.Blobs(&m.Chunks, maxList, "chunk")
}

// StatRange is the statistical query (Table 1 #6). With multiple UUIDs the
// server homomorphically sums the per-stream aggregates (inter-stream
// queries, §4.3). WindowChunks > 0 partitions the range into windows of
// that many chunks and returns one aggregate per window (granularity
// queries and resolution-restricted access, §4.4).
type StatRange struct {
	UUIDs        []string
	Ts, Te       int64
	WindowChunks uint64
}

func (*StatRange) Type() MsgType                { return TStatRange }
func (m *StatRange) routingKey() (string, bool) { return soleUUID(m.UUIDs) }
func (m *StatRange) codec(c Codec) {
	c.Strs(&m.UUIDs, MaxAggStreams, "stream")
	c.I64(&m.Ts)
	c.I64(&m.Te)
	c.U64(&m.WindowChunks)
}

// StatRangeResp returns encrypted aggregates. FromChunk/ToChunk report the
// chunk-position range actually aggregated so clients know which keystream
// leaves decrypt it.
type StatRangeResp struct {
	FromChunk, ToChunk uint64
	Windows            [][]uint64
}

func (*StatRangeResp) Type() MsgType { return TStatRangeResp }
func (m *StatRangeResp) codec(c Codec) {
	c.U64(&m.FromChunk)
	c.U64(&m.ToChunk)
	c.Vecs(&m.Windows)
}

// DeleteRange removes chunk payloads in [Ts, Te) while preserving digests
// (Table 1 #7: "delete specified segment … while maintaining per-chunk
// digest").
type DeleteRange struct {
	UUID   string
	Ts, Te int64
}

func (*DeleteRange) Type() MsgType                { return TDeleteRange }
func (m *DeleteRange) routingKey() (string, bool) { return m.UUID, true }
func (m *DeleteRange) codec(c Codec) {
	c.Str(&m.UUID)
	c.I64(&m.Ts)
	c.I64(&m.Te)
}

// Rollup ages out data (Table 1 #3): chunk payloads and index detail below
// Factor chunks are dropped for [Ts, Te); coarser statistics remain.
type Rollup struct {
	UUID   string
	Factor uint64
	Ts, Te int64
}

func (*Rollup) Type() MsgType                { return TRollup }
func (m *Rollup) routingKey() (string, bool) { return m.UUID, true }
func (m *Rollup) codec(c Codec) {
	c.Str(&m.UUID)
	c.U64(&m.Factor)
	c.I64(&m.Ts)
	c.I64(&m.Te)
}

// PutGrant stores a hybrid-encrypted access grant in the server key store
// (Table 1 #8/#9; the blob is opaque to the server).
type PutGrant struct {
	UUID      string
	Principal string // principal identity (public key fingerprint)
	GrantID   string
	Blob      []byte
}

func (*PutGrant) Type() MsgType                { return TPutGrant }
func (m *PutGrant) routingKey() (string, bool) { return m.UUID, true }
func (m *PutGrant) codec(c Codec) {
	c.Str(&m.UUID)
	c.Str(&m.Principal)
	c.Str(&m.GrantID)
	c.Blob(&m.Blob)
}

// GetGrants fetches all grant blobs for a principal on a stream.
type GetGrants struct {
	UUID      string
	Principal string
}

func (*GetGrants) Type() MsgType                { return TGetGrants }
func (m *GetGrants) routingKey() (string, bool) { return m.UUID, true }
func (m *GetGrants) codec(c Codec) {
	c.Str(&m.UUID)
	c.Str(&m.Principal)
}

// GetGrantsResp carries the grant blobs.
type GetGrantsResp struct{ Blobs [][]byte }

func (*GetGrantsResp) Type() MsgType { return TGetGrantsResp }
func (m *GetGrantsResp) codec(c Codec) {
	c.Blobs(&m.Blobs, 1<<20, "grant")
}

// DeleteGrant revokes a stored grant (Table 1 #10; forward secrecy comes
// from the owner no longer extending open-ended grants).
type DeleteGrant struct {
	UUID      string
	Principal string
	GrantID   string // empty = all grants for the principal
}

func (*DeleteGrant) Type() MsgType                { return TDeleteGrant }
func (m *DeleteGrant) routingKey() (string, bool) { return m.UUID, true }
func (m *DeleteGrant) codec(c Codec) {
	c.Str(&m.UUID)
	c.Str(&m.Principal)
	c.Str(&m.GrantID)
}

// WireEnvelope is a resolution key envelope in transit (§4.4.2).
type WireEnvelope struct {
	Index uint64
	Box   []byte
}

// envelopes codes the envelope list of PutEnvelopes and GetEnvelopesResp.
func (c Codec) envelopes(p *[]WireEnvelope) {
	list(c, p, maxList, "envelope", func(w *WireEnvelope) {
		c.U64(&w.Index)
		c.Blob(&w.Box)
	})
}

// PutEnvelopes uploads resolution key envelopes for one resolution stream.
type PutEnvelopes struct {
	UUID   string
	Factor uint64
	Envs   []WireEnvelope
}

func (*PutEnvelopes) Type() MsgType                { return TPutEnvelopes }
func (m *PutEnvelopes) routingKey() (string, bool) { return m.UUID, true }
func (m *PutEnvelopes) codec(c Codec) {
	c.Str(&m.UUID)
	c.U64(&m.Factor)
	c.envelopes(&m.Envs)
}

// GetEnvelopes fetches envelopes Lo..Hi (inclusive) for a resolution stream.
type GetEnvelopes struct {
	UUID   string
	Factor uint64
	Lo, Hi uint64
}

func (*GetEnvelopes) Type() MsgType                { return TGetEnvelopes }
func (m *GetEnvelopes) routingKey() (string, bool) { return m.UUID, true }
func (m *GetEnvelopes) codec(c Codec) {
	c.Str(&m.UUID)
	c.U64(&m.Factor)
	c.U64(&m.Lo)
	c.U64(&m.Hi)
}

// GetEnvelopesResp carries the requested envelopes.
type GetEnvelopesResp struct{ Envs []WireEnvelope }

func (*GetEnvelopesResp) Type() MsgType { return TGetEnvelopesResp }
func (m *GetEnvelopesResp) codec(c Codec) {
	c.envelopes(&m.Envs)
}

// StageRecord uploads one encrypted record in real time, ahead of its
// chunk (paper §4.6: client-side batching latency "can be eradicated …
// by instantly uploading encrypted data records in real-time to the
// datastore and dropping the encrypted records once the corresponding
// chunk is stored"). The server deletes a chunk's staged records when the
// sealed chunk arrives.
type StageRecord struct {
	UUID       string
	ChunkIndex uint64
	Seq        uint64 // record sequence within the chunk
	Box        []byte // AES-GCM sealed record under the chunk key
}

func (*StageRecord) Type() MsgType                { return TStageRecord }
func (m *StageRecord) routingKey() (string, bool) { return m.UUID, true }
func (m *StageRecord) codec(c Codec) {
	c.Str(&m.UUID)
	c.U64(&m.ChunkIndex)
	c.U64(&m.Seq)
	c.Blob(&m.Box)
}

// GetStaged fetches the staged records of one (usually in-progress) chunk.
type GetStaged struct {
	UUID       string
	ChunkIndex uint64
}

func (*GetStaged) Type() MsgType                { return TGetStaged }
func (m *GetStaged) routingKey() (string, bool) { return m.UUID, true }
func (m *GetStaged) codec(c Codec) {
	c.Str(&m.UUID)
	c.U64(&m.ChunkIndex)
}

// GetStagedResp carries staged record boxes in sequence order.
type GetStagedResp struct{ Boxes [][]byte }

func (*GetStagedResp) Type() MsgType { return TGetStagedResp }
func (m *GetStagedResp) codec(c Codec) {
	c.Blobs(&m.Boxes, maxList, "staged")
}

// StreamInfo requests stream metadata.
type StreamInfo struct{ UUID string }

func (*StreamInfo) Type() MsgType                { return TStreamInfo }
func (m *StreamInfo) routingKey() (string, bool) { return m.UUID, true }
func (m *StreamInfo) codec(c Codec) {
	c.Str(&m.UUID)
}

// StreamInfoResp returns stream metadata plus ingest progress.
type StreamInfoResp struct {
	Cfg   StreamConfig
	Count uint64 // chunks ingested so far
}

func (*StreamInfoResp) Type() MsgType { return TStreamInfoResp }
func (m *StreamInfoResp) codec(c Codec) {
	m.Cfg.codec(c)
	c.U64(&m.Count)
}

// ListStreams requests the UUIDs of all streams an engine (or, through a
// cluster router, every engine shard) currently serves.
type ListStreams struct{}

func (*ListStreams) Type() MsgType { return TListStreams }
func (*ListStreams) codec(Codec)   {}

// ListStreamsResp carries the sorted stream UUIDs.
type ListStreamsResp struct{ UUIDs []string }

func (*ListStreamsResp) Type() MsgType { return TListStreamsResp }
func (m *ListStreamsResp) codec(c Codec) {
	c.Strs(&m.UUIDs, maxList, "stream")
}

// MaxPageWindows bounds how many windows one query page may carry: the
// client cursor caps each AggRange it sends at this many windows, keeping
// each response frame (and the server work behind it) bounded.
const MaxPageWindows = 4096

// QueryStream is the retired streamed single-stream query (wire protocol
// v3), kept so older clients still get an answer: the server replies with
// one frame, the StatRangeResp (or Error) of the equivalent StatRange over
// [Ts, Te) at WindowChunks, and ignores PageWindows. An older client's
// stream reads that final frame as its last page followed by the end.
type QueryStream struct {
	UUID         string
	Ts, Te       int64
	WindowChunks uint64
	PageWindows  uint32
}

func (*QueryStream) Type() MsgType                { return TQueryStream }
func (m *QueryStream) routingKey() (string, bool) { return m.UUID, true }
func (m *QueryStream) codec(c Codec) {
	c.Str(&m.UUID)
	c.I64(&m.Ts)
	c.I64(&m.Te)
	c.U64(&m.WindowChunks)
	c.Clamp32(&m.PageWindows, MaxPageWindows)
}

// MaxAggStreams bounds the member streams of one AggRange: generous enough
// for population-scale aggregation ("average over all patients"), small
// enough that one frame cannot pin unbounded index walks.
const MaxAggStreams = 1 << 16

// MaxAggElems bounds the digest element projection of one AggRange; digest
// vectors are at most a few thousand elements (histogram bins), so anything
// larger is hostile.
const MaxAggElems = 1 << 16

// AggRange is the typed-plan aggregation query: a set of member streams, a
// window spec, and an optional projection of digest elements. The server
// resolves each stream's index subtree, homomorphically sums the
// per-window digests ACROSS the streams (ciphertexts are additively
// combinable, so the sum of encrypted digests is the encryption of the
// summed digest under the summed keystreams), and projects each window
// vector down to Elems before responding — one round trip carries a whole
// population aggregate. All member streams must share geometry
// (epoch/interval/digest length); behind a cluster router the stream set
// is split by owning shard and the partial ciphertext aggregates are
// combined shard-side.
//
// Elems lists the digest element indices to return (computed client-side
// from the plan's typed statistic selectors, so the server stays ignorant
// of the digest layout); empty means the full vector. WindowChunks == 0
// asks for one aggregate over the whole range. PageWindows is ignored: it
// once selected a pushed, paged response, and every AggRange is now
// answered with one frame. Callers page by sending one AggRange per page.
type AggRange struct {
	UUIDs        []string
	Ts, Te       int64
	WindowChunks uint64
	Elems        []uint32
	PageWindows  uint32
}

func (*AggRange) Type() MsgType                { return TAggRange }
func (m *AggRange) routingKey() (string, bool) { return soleUUID(m.UUIDs) }
func (m *AggRange) codec(c Codec) {
	c.Strs(&m.UUIDs, MaxAggStreams, "stream")
	c.I64(&m.Ts)
	c.I64(&m.Te)
	c.U64(&m.WindowChunks)
	c.Elems(&m.Elems)
	c.Clamp32(&m.PageWindows, MaxPageWindows)
}

// AggRangeResp answers an AggRange: encrypted per-window aggregates summed across the
// member streams, projected to the request's Elems. StreamCount echoes how
// many member streams the aggregate combines — a client-side cross-check
// that no shard's partial sum went missing (decryption would silently
// produce garbage otherwise). Epoch and Interval echo the streams' shared
// time geometry: a cluster router combining shard partials compares them,
// so two shards that clamped the same chunk range over *different*
// geometries (mismatched member streams) can never be silently summed.
type AggRangeResp struct {
	FromChunk, ToChunk uint64
	Epoch, Interval    int64
	StreamCount        uint32
	Windows            [][]uint64
}

func (*AggRangeResp) Type() MsgType { return TAggRangeResp }
func (m *AggRangeResp) codec(c Codec) {
	c.U64(&m.FromChunk)
	c.U64(&m.ToChunk)
	c.I64(&m.Epoch)
	c.I64(&m.Interval)
	c.Max32(&m.StreamCount, MaxAggStreams, "stream count")
	c.Vecs(&m.Windows)
}

// StreamInitialCredit is how many frames of a push stream (a subscription)
// the server may push before the consumer acknowledges any: the client-side page buffer
// and the server's initial send window are both this constant, so a
// conforming server can never overflow the client buffer. The consumer
// replenishes credit as it drains pages (StreamCredit frames).
const StreamInitialCredit = 8

// MaxStreamCredit caps a single credit grant (and the accumulated credit
// server-side); a hostile peer must not overflow the counter.
const MaxStreamCredit = 1 << 20

// StreamCredit is the flow-control frame for streamed responses. It is
// connection-level, not a request: the client sends it with correlation ID
// 0 and the server answers nothing — the read loop just credits the
// streamed call named by ID with Pages more pages (the server pauses a
// stream that runs out of credit, so one slow subscriber stalls only its
// own stream, never the connection). Pages == 0 abandons the stream:
// the server stops paging and terminates it with a canceled Error, letting
// the client reclaim the correlation ID.
type StreamCredit struct {
	ID    uint64
	Pages uint32
}

func (*StreamCredit) Type() MsgType { return TStreamCredit }
func (m *StreamCredit) codec(c Codec) {
	c.U64(&m.ID)
	c.Clamp32(&m.Pages, MaxStreamCredit)
}

// MaxMembers bounds a topology's member list: far above any plausible
// shard count, low enough that one frame cannot allocate unbounded strings.
const MaxMembers = 1 << 12

// members codes the member list of the topology and replication messages
// (TopologyInfoResp, TopologyUpdate, Reshard, Promote, LeaseInfoResp), so
// the bound and layout cannot diverge between them.
func (c Codec) members(p *[]string) { c.Strs(p, MaxMembers, "member") }

// TopologyInfo asks the responder for its current cluster topology. A
// router answers with its live ring membership; an engine shard answers
// with the last topology a coordinator published to it (TopologyUpdate),
// or epoch 0 with no members if it has never been part of a resharded
// cluster. Stale routers use it to recover from CodeWrongShard.
type TopologyInfo struct{}

func (*TopologyInfo) Type() MsgType { return TTopologyInfo }
func (*TopologyInfo) codec(Codec)   {}

// TopologyInfoResp carries a versioned ring membership: the epoch
// increments on every membership change, and Members lists the shard
// names (dialable addresses, for remote shards) in ring order.
type TopologyInfoResp struct {
	Epoch   uint64
	Members []string
}

func (*TopologyInfoResp) Type() MsgType { return TTopologyInfoResp }

// Encode appends the topology to an encoder (exported for server-side
// topology persistence).
func (m *TopologyInfoResp) Encode(e *Encoder) { m.codec(Codec{e: e}) }

// Decode reads the topology from a decoder; check d.Done or d.Err after.
func (m *TopologyInfoResp) Decode(d *Decoder) { m.codec(Codec{d: d}) }

func (m *TopologyInfoResp) codec(c Codec) {
	c.U64(&m.Epoch)
	c.members(&m.Members)
}

// TopologyUpdate publishes a new topology to an engine shard after a
// reshard completes. The shard persists it and answers later TopologyInfo
// requests with it, so a router holding a stale ring can learn the new
// membership from any shard that was part of the change. Updates with an
// epoch at or below the stored one are ignored (stale coordinator).
type TopologyUpdate struct {
	Epoch   uint64
	Members []string
}

func (*TopologyUpdate) Type() MsgType { return TTopologyUpdate }
func (m *TopologyUpdate) codec(c Codec) {
	c.U64(&m.Epoch)
	c.members(&m.Members)
}

// Reshard asks a router to change the ring membership to exactly Members,
// migrating every stream whose ownership changes while both sides keep
// serving. Members it does not already know are dialed through the
// router's configured dialer. The response is the TopologyInfoResp of the
// new topology (or Error; a reshard already in progress answers
// CodeBusy). Engines reject it — membership is a routing-tier concern.
//
// ExpectEpoch != 0 makes the change conditional: it is refused
// (CodeBusy) unless the router's topology epoch still equals it — the
// compare-and-swap that keeps two concurrent fetch-then-reshard callers
// (e.g. two servers starting with -join) from silently evicting each
// other's membership. 0 reshards unconditionally (explicit operator
// intent).
type Reshard struct {
	Members     []string
	ExpectEpoch uint64
}

func (*Reshard) Type() MsgType { return TReshard }
func (m *Reshard) codec(c Codec) {
	c.members(&m.Members)
	c.U64(&m.ExpectEpoch)
}

// MaxSnapshotItems bounds the key/value pairs in one SnapshotChunk or
// IngestSnapshot frame; page sizes stay well below it, and a hostile
// frame cannot pin unbounded allocation.
const MaxSnapshotItems = 1 << 16

// KVItem is one raw key/value pair of a stream's persisted state in
// transit during migration. Keys are the engine's store keys (chunk,
// index-node, staged-record, grant, envelope, and meta keys, all scoped
// to the migrating stream's UUID); the importer validates the scoping, so
// a hostile migration source cannot write outside the stream.
type KVItem struct {
	Key   string
	Value []byte
}

// kvItems codes the item list of the migration and resync messages
// (SnapshotChunk, IngestSnapshot, ReplSnapshot).
func (c Codec) kvItems(p *[]KVItem) {
	list(c, p, MaxSnapshotItems, "snapshot item", func(it *KVItem) {
		c.Str(&it.Key)
		c.Blob(&it.Value)
	})
}

// StreamSnapshot asks an engine to export one stream's persisted state
// for migration. FromChunk skips sealed chunks below it (already copied
// by an earlier round); WithMeta additionally exports the stream's meta,
// index nodes, staged records, grants, and envelopes — the final
// (write-frozen) round sets it so the copy is consistent. The export is
// paged: Cursor resumes where the previous page's SnapshotChunk left off
// (empty = start), MaxItems bounds the page. Push once selected a pushed
// export and is now refused with CodeBadRequest by the TCP front end: a
// single page would read to an older router as the whole export and
// truncate the move.
type StreamSnapshot struct {
	UUID      string
	FromChunk uint64
	WithMeta  bool
	Cursor    string
	MaxItems  uint32
	Push      bool
}

func (*StreamSnapshot) Type() MsgType                { return TStreamSnapshot }
func (m *StreamSnapshot) routingKey() (string, bool) { return m.UUID, true }
func (m *StreamSnapshot) codec(c Codec) {
	c.Str(&m.UUID)
	c.U64(&m.FromChunk)
	c.Bool(&m.WithMeta)
	c.Str(&m.Cursor)
	c.Clamp32(&m.MaxItems, MaxSnapshotItems)
	c.Bool(&m.Push)
}

// SnapshotChunk is one page of a stream export: raw key/value items plus
// the resume cursor. The first page of an export carries the stream's
// config and the chunk count pinned for this round (HasCfg); Done marks
// the final page (Cursor is then empty).
type SnapshotChunk struct {
	HasCfg bool
	Cfg    StreamConfig
	Count  uint64 // chunk count pinned at the start of the export round
	Items  []KVItem
	Cursor string
	Done   bool
}

func (*SnapshotChunk) Type() MsgType { return TSnapshotChunk }
func (m *SnapshotChunk) codec(c Codec) {
	c.Bool(&m.HasCfg)
	if m.HasCfg {
		m.Cfg.codec(c)
	}
	c.U64(&m.Count)
	c.kvItems(&m.Items)
	c.Str(&m.Cursor)
	c.Bool(&m.Done)
}

// IngestSnapshot imports one page of a migrating stream's exported state
// into the destination shard's store. The stream is NOT registered by the
// import — it stays invisible to queries until HandoffComplete commits
// it, so a half-copied stream is never served. Keys outside the stream's
// own prefixes are rejected.
type IngestSnapshot struct {
	UUID  string
	Items []KVItem
}

func (*IngestSnapshot) Type() MsgType                { return TIngestSnapshot }
func (m *IngestSnapshot) routingKey() (string, bool) { return m.UUID, true }
func (m *IngestSnapshot) codec(c Codec) {
	c.Str(&m.UUID)
	c.kvItems(&m.Items)
}

// Handoff actions (HandoffComplete.Action).
const (
	// HandoffCommit registers an imported stream on the destination: the
	// shard opens the stream from its imported meta and starts serving it.
	HandoffCommit uint8 = 1
	// HandoffRelease retires a migrated stream on the source: its data is
	// deleted and a tombstone recording Epoch remains, so requests from
	// stale rings answer CodeWrongShard{Epoch} instead of NotFound.
	HandoffRelease uint8 = 2
	// HandoffAbort discards a partial import on the destination (the
	// migration failed before commit); the stream stays with the source.
	HandoffAbort uint8 = 3
	// HandoffReclaim clears a stale migration tombstone so the UUID can
	// be created again: a stream that moved away, was deleted on its new
	// owner, and whose old owner later regained ring ownership would
	// otherwise answer CodeWrongShard to CreateStream forever. Routers
	// send it only when their ring is at least as new as the tombstone's
	// epoch and the tombstoned shard is the current ring owner.
	HandoffReclaim uint8 = 4
	// HandoffFence arms the source engine's write fence for a migrating
	// stream: from this point mutations whose envelope epoch is below
	// Epoch answer CodeWrongShard{Epoch} instead of landing. The
	// coordinator sends it the moment it freezes the stream for the final
	// drain, so writes routed through *other* front ends (whose rings
	// predate the move) can no longer slip in after the drain copy and be
	// lost with the source's data. Epoch 0 lifts the fence (the migration
	// was abandoned); HandoffRelease lifts it too, the tombstone taking
	// over rejection duty.
	HandoffFence uint8 = 5
)

// HandoffComplete finishes (or aborts) one stream's migration on one
// side. Epoch is the topology epoch of the membership change driving the
// move (recorded in the source's tombstone on release).
type HandoffComplete struct {
	UUID   string
	Epoch  uint64
	Action uint8
}

func (*HandoffComplete) Type() MsgType                { return THandoffComplete }
func (m *HandoffComplete) routingKey() (string, bool) { return m.UUID, true }
func (m *HandoffComplete) codec(c Codec) {
	c.Str(&m.UUID)
	c.U64(&m.Epoch)
	c.Enum(&m.Action, HandoffCommit, HandoffFence, "handoff action")
}

// MaxBatch bounds the sub-requests in one Batch envelope: large enough to
// amortize a round trip thousands of times over, small enough that one
// frame cannot pin unbounded server work.
const MaxBatch = 4096

// Batch is the pipelining envelope: N independent sub-requests carried in
// one frame and answered by one BatchResp with the sub-responses in the
// same order. Engines execute sub-requests against their lock stripes and
// cluster routers split a batch by owning shard, fanning the pieces out
// concurrently. The only ordering guarantee is per stream: sub-requests
// sharing a routing UUID execute in batch order; everything else —
// different streams, multi-stream StatRange, ListStreams — may execute
// concurrently. Batches do not nest.
type Batch struct{ Reqs []Message }

func (*Batch) Type() MsgType { return TBatch }
func (m *Batch) codec(c Codec) {
	c.msgs(&m.Reqs, "batch")
}

// BatchResp carries one response per Batch sub-request, in request order.
// Individual failures are *Error elements; they do not fail the envelope.
type BatchResp struct{ Resps []Message }

func (*BatchResp) Type() MsgType { return TBatchResp }
func (m *BatchResp) codec(c Codec) {
	c.msgs(&m.Resps, "batch response")
}

// msgs codes the element list of Batch and BatchResp: the count, then
// each element as a fixed 4-byte length followed by the message encoded in
// place (no per-element intermediate buffer — batches sit on the ingest
// hot path). Decoding refuses nested envelopes, so recursion depth stays
// at most 2 even on hostile input. Elements decode from aliased views of
// the frame buffer; each element's codec copies what it keeps.
func (c Codec) msgs(p *[]Message, what string) {
	n := c.count(len(*p), MaxBatch, what)
	if c.d == nil {
		for _, m := range *p {
			c.e.Msg(m)
		}
		return
	}
	*p = make([]Message, 0, n)
	elem := new(Decoder)
	for i := 0; i < n && c.d.err == nil; i++ {
		view := c.d.view(uint64(c.d.FixedU32()))
		if c.d.err != nil {
			return
		}
		sub, err := unmarshal(elem, view)
		if err != nil {
			c.d.refuse("wire: %s element %d: %w", what, i, err)
			return
		}
		switch sub.(type) {
		case *Batch, *BatchResp:
			c.d.refuse("wire: %s element %d: nested batch envelope", what, i)
			return
		}
		*p = append(*p, sub)
	}
}

// BatchPartition is the routing decomposition of a batch's sub-requests,
// shared by the engine (keys = stream UUIDs mapping to lock stripes) and
// the cluster router (keys = owning shards) so their batch semantics
// cannot diverge.
type BatchPartition struct {
	Order   []string         // keys in first-seen order
	Groups  map[string][]int // key -> request indices, in batch order
	Singles []int            // requests without a routing key (fan-out types)
	Nested  []int            // nested envelopes, rejected per element
}

// PartitionBatch groups a batch's sub-requests by routing key, preserving
// per-key request order (chunk inserts for one stream must stay ordered;
// everything else may execute concurrently).
func PartitionBatch(reqs []Message, key func(Message) (string, bool)) BatchPartition {
	p := BatchPartition{Groups: make(map[string][]int)}
	for i, sub := range reqs {
		switch sub.(type) {
		case *Batch, *BatchResp:
			// The wire decoder rejects nesting; guard locally built ones.
			p.Nested = append(p.Nested, i)
			continue
		}
		if k, ok := key(sub); ok {
			if _, seen := p.Groups[k]; !seen {
				p.Order = append(p.Order, k)
			}
			p.Groups[k] = append(p.Groups[k], i)
		} else {
			p.Singles = append(p.Singles, i)
		}
	}
	return p
}

// RoutingUUID extracts the single-stream routing key of a request, when it
// has one. Requests without a unique key (multi-stream StatRange,
// ListStreams, mixed Batch) route by fan-out instead.
func RoutingUUID(req Message) (string, bool) {
	if k, ok := req.(interface{ routingKey() (string, bool) }); ok {
		return k.routingKey()
	}
	return "", false
}

// soleUUID is the routing key of a multi-stream request: one naming a
// single stream routes like any single-stream request (a subscription
// handshake then orders after earlier same-stream writes on the
// connection); larger ones fan out.
func soleUUID(uuids []string) (string, bool) {
	if len(uuids) == 1 {
		return uuids[0], true
	}
	return "", false
}

// routingKey of a batch whose elements all share one routing key is that
// key, so a multiplexed server connection keeps successive same-stream
// ingest batches (the pipelined Writer's output) in arrival order.
// Mixed-key batches have no single key and schedule as fan-outs.
// PartitionBatch never consults it: it filters envelope types before
// calling its key func.
func (m *Batch) routingKey() (string, bool) {
	common := ""
	for _, sub := range m.Reqs {
		k, ok := RoutingUUID(sub)
		if !ok {
			return "", false
		}
		if common == "" {
			common = k
		} else if k != common {
			return "", false
		}
	}
	return common, common != ""
}

// Live subscriptions (wire protocol v5).

// Subscribe opens a live subscription over a query plan (wire protocol
// v5): the server maintains the encrypted windowed aggregate of the member
// streams incrementally as chunks arrive — the HEAC digest sum is
// homomorphic, so keeping a window current is one ciphertext addition per
// chunk — and pushes one SubEvent per completed window under the request's
// correlation ID, governed by per-stream credit flow control (see
// StreamCredit). The first pushed frame is a SubscribeResp naming the
// subscription's start; SubEvent frames follow until the consumer sends
// Unsubscribe (or a zero-page StreamCredit), the stream fails, or the
// connection closes.
//
// All member streams must share geometry, exactly as for AggRange; behind
// a cluster router the member set is split by owning shard, each shard
// pushes its partial per-window ciphertext sums, and the router combines
// them by window sequence number before pushing the final event.
//
// FromSeq names the first window sequence number (window index on the
// absolute chunk-position grid: seq = chunkPos / WindowChunks) to deliver;
// windows already complete are recovered from the index (Resync events),
// later ones arrive live. FromLatest ignores FromSeq and starts at the
// subscribe-time frontier — the common "dashboard" mode that only wants
// new windows. Elems projects each event's vector exactly as AggRange
// does; empty keeps the full digest.
type Subscribe struct {
	UUIDs        []string
	WindowChunks uint64
	Elems        []uint32
	FromSeq      uint64
	FromLatest   bool
}

func (*Subscribe) Type() MsgType                { return TSubscribe }
func (m *Subscribe) routingKey() (string, bool) { return soleUUID(m.UUIDs) }
func (m *Subscribe) codec(c Codec) {
	c.Strs(&m.UUIDs, MaxAggStreams, "stream")
	c.U64(&m.WindowChunks)
	c.Elems(&m.Elems)
	c.U64(&m.FromSeq)
	c.Bool(&m.FromLatest)
}

// SubscribeResp is the first frame of an accepted subscription: where the
// event stream starts and the geometry it is aggregated over. FirstSeq is
// the sequence number of the first window the subscription will deliver
// (the resolved FromSeq, or the frontier for FromLatest). Epoch, Interval,
// and StreamCount echo the member set's shared geometry exactly as
// AggRangeResp does, so a router combining shard partials can refuse to
// sum subscriptions that silently disagree.
type SubscribeResp struct {
	FirstSeq     uint64
	WindowChunks uint64
	Epoch        int64
	Interval     int64
	StreamCount  uint32
}

func (*SubscribeResp) Type() MsgType { return TSubscribeResp }
func (m *SubscribeResp) codec(c Codec) {
	c.U64(&m.FirstSeq)
	c.U64(&m.WindowChunks)
	c.I64(&m.Epoch)
	c.I64(&m.Interval)
	c.Max32(&m.StreamCount, MaxAggStreams, "stream count")
}

// SubEvent is one committed window delta of a subscription: the encrypted
// aggregate of window Seq (chunk positions [FromChunk, ToChunk)), summed
// across the member streams and projected to the subscription's Elems —
// byte-identical to the window an AggRange over the same chunk range
// would return. Seq is the window's absolute index on the chunk-position
// grid; consumers deduplicate and order by it (a resubscribe or a shard
// heal may replay a window already seen). Resync marks a window recovered
// from the index — a backfill before the subscribe point, or windows
// dropped while the consumer was out of credit (bounded queue +
// drop-to-resync) — rather than pushed live; the payload is identical
// either way, because committed windows are immutable.
type SubEvent struct {
	Seq                uint64
	FromChunk, ToChunk uint64
	Resync             bool
	Window             []uint64
}

func (*SubEvent) Type() MsgType { return TSubEvent }
func (m *SubEvent) codec(c Codec) {
	c.U64(&m.Seq)
	c.U64(&m.FromChunk)
	c.U64(&m.ToChunk)
	c.Bool(&m.Resync)
	c.Vec(&m.Window)
}

// Unsubscribe ends a live subscription. Like StreamCredit it is
// connection-level flow control, not a request: the client sends it with
// correlation ID 0 naming the subscription's correlation ID, it consumes
// no in-flight slot and earns no response, and the server tears the
// subscription down exactly as a zero-page credit grant would (the
// in-flight frames already pushed are absorbed by the client's tombstone).
// An ID for a subscription that already finished — or that never existed,
// hostile peers included — is stale noise and is dropped.
type Unsubscribe struct {
	ID uint64
}

func (*Unsubscribe) Type() MsgType { return TUnsubscribe }
func (m *Unsubscribe) codec(c Codec) {
	c.U64(&m.ID)
}

// Per-shard replication (wire protocol v6).

// ReplRoutingKey is the scheduling key replication frames ride under on a
// follower connection, so they apply in shipping order (a cluster router
// never routes them: the leader dials its followers directly). It contains
// a byte no stream UUID produced by this system uses, so replication
// ordering never collides with a stream's own ordering chain.
const ReplRoutingKey = "\x00repl"

// Replication roles, as reported by LeaseInfoResp.Role.
const (
	// ReplStandalone is a node with no replication configured (or one that
	// has not yet been adopted by a leader).
	ReplStandalone uint8 = 0
	// ReplLeader holds the group's epoch'd lease: it applies client
	// mutations, ships them to every follower, and acks only when each
	// active follower has applied.
	ReplLeader uint8 = 1
	// ReplFollower applies the leader's shipped records in sequence order
	// and serves reads behind its watermark; client mutations answer
	// CodeNotLeader.
	ReplFollower uint8 = 2
	// ReplDeposed is a former leader that observed a higher epoch: it
	// refuses all mutations until a current leader adopts it (full resync)
	// as a follower.
	ReplDeposed uint8 = 3
)

// Replication acknowledgement modes, reported in LeaseInfoResp.Mode and
// echoed by followers in ReplAck.Mode so a leader can warn about a group
// whose members disagree on the durability contract.
const (
	// ReplModeAvailability is the default: the leader deactivates
	// unreachable followers and keeps acknowledging with whoever remains
	// (durability degrades, writes never block).
	ReplModeAvailability uint8 = 0
	// ReplModeQuorum acknowledges a write only after ⌈N/2⌉ of the
	// N-member group (leader included) have durably applied it; writes
	// refuse with CodeBusy — nothing applied — while a quorum is
	// unreachable, and promotion requires a majority-side candidate.
	ReplModeQuorum uint8 = 1
)

// MaxReplRecords bounds the records in one ReplAppend frame: large enough
// to drain a deep backlog in few round trips, small enough that a hostile
// frame cannot pin unbounded allocation (each record is itself bounded by
// the frame size).
const MaxReplRecords = 1 << 12

// ReplAppend ships a contiguous run of the leader's mutation log to a
// follower. Epoch is the leader's lease epoch; a follower that knows a
// higher epoch refuses with CodeWrongShard{knownEpoch} — the shipping
// leader has been deposed and must stop acking. Leader is the shipping
// leader's advertised address: a follower adopting Epoch records it so
// CodeNotLeader referrals point clients at the node that actually holds
// the lease ("" when the sender has no advertised address). Records are
// marshaled mutation requests (Marshal framing), applied in order; record
// i carries sequence number FirstSeq+i. A fully-duplicate run (at or
// below the follower's watermark) is acked idempotently without
// reapplying; a run starting beyond watermark+1 answers
// CodeReplGap{watermark} and applies nothing. An empty Records run is the
// leader's heartbeat: it renews the lease and re-acks the watermark.
type ReplAppend struct {
	Epoch    uint64
	FirstSeq uint64
	Records  [][]byte
	Leader   string
}

func (*ReplAppend) Type() MsgType              { return TReplAppend }
func (*ReplAppend) routingKey() (string, bool) { return ReplRoutingKey, true }
func (m *ReplAppend) codec(c Codec) {
	c.U64(&m.Epoch)
	c.U64(&m.FirstSeq)
	c.Blobs(&m.Records, MaxReplRecords, "replication record")
	c.Str(&m.Leader)
}

// ReplAck answers a ReplAppend: the follower's epoch and the watermark
// (highest contiguous sequence number applied). The leader releases client
// acks blocked on seq <= Watermark. Mode (v6, encoded last so every older
// field boundary is unchanged) is the answering member's configured
// acknowledgement mode; a leader whose follower reports a different mode
// than its own has a misconfigured group and logs it.
type ReplAck struct {
	Epoch     uint64
	Watermark uint64
	Mode      uint8
}

func (*ReplAck) Type() MsgType { return TReplAck }
func (m *ReplAck) codec(c Codec) {
	c.U64(&m.Epoch)
	c.U64(&m.Watermark)
	c.Enum(&m.Mode, ReplModeAvailability, ReplModeQuorum, "replication mode")
}

// ReplSnapshot is one page of a full-state resync from leader to follower:
// the leader's entire store, paged as raw key/value items, captured
// atomically at log position Watermark. First tells the follower to wipe
// its store and enter installing mode (reads answer CodeBusy); Done ends
// the install — the follower reopens its engine over the loaded store,
// adopts Epoch, and sets its watermark to Watermark. Leader is the sending
// leader's advertised address, recorded on adoption so referrals stay
// accurate (same contract as ReplAppend.Leader). Every page answers OK
// (or Error). Resync is the recovery path for any replica whose fine-grained
// position is unknown or unusable: a follower restarted from disk, a
// deposed leader rejoining, or a follower that lagged past the leader's
// log retention.
type ReplSnapshot struct {
	Epoch     uint64
	Watermark uint64
	First     bool
	Done      bool
	Items     []KVItem
	Leader    string
}

func (*ReplSnapshot) Type() MsgType              { return TReplSnapshot }
func (*ReplSnapshot) routingKey() (string, bool) { return ReplRoutingKey, true }
func (m *ReplSnapshot) codec(c Codec) {
	c.U64(&m.Epoch)
	c.U64(&m.Watermark)
	c.Bool(&m.First)
	c.Bool(&m.Done)
	c.kvItems(&m.Items)
	c.Str(&m.Leader)
}

// Promote makes the recipient the replication group's leader at Epoch
// (which must exceed every epoch the group has seen — the promoting router
// picks max(observed)+1). Leader is the address the recipient is reachable
// at (it reports it from LeaseInfo and in CodeNotLeader redirects);
// Members is the full group, from which the recipient takes everyone but
// itself as its follower set — including the dead old leader, which is
// adopted back (full resync) when it returns. Answers ReplAck with the new
// leader's watermark.
type Promote struct {
	Epoch   uint64
	Leader  string
	Members []string
}

func (*Promote) Type() MsgType { return TPromote }
func (m *Promote) codec(c Codec) {
	c.U64(&m.Epoch)
	c.Str(&m.Leader)
	c.members(&m.Members)
}

// LeaseInfo asks a node for its replication status. It is read-only and
// retriable; routers use it to discover group membership, pick the most
// advanced follower during failover, and stick clients to the leader.
type LeaseInfo struct{}

func (*LeaseInfo) Type() MsgType { return TLeaseInfo }
func (*LeaseInfo) codec(Codec)   {}

// LeaseInfoResp reports a node's replication status: its role, lease
// epoch, replication watermark (records applied), the durable store's
// committed WAL sequence (0 when the store is not durable), the leader
// address it believes is current, and the group member list (leader's own
// view; empty on a standalone node). LeaseMS is the lease duration the
// node was configured with, so a router can time failover without
// out-of-band configuration. Mode and Quorum (v6, encoded last so every
// older field boundary is unchanged) report the acknowledgement mode the
// node was configured with and — on a leader in quorum mode — the number
// of members (itself included) a write must reach before it is
// acknowledged; Quorum is 0 on followers and in availability mode.
type LeaseInfoResp struct {
	Role      uint8
	Epoch     uint64
	Watermark uint64
	StoreSeq  uint64
	LeaseMS   int64
	Leader    string
	Members   []string
	Mode      uint8
	Quorum    uint32
}

func (*LeaseInfoResp) Type() MsgType { return TLeaseInfoResp }
func (m *LeaseInfoResp) codec(c Codec) {
	c.Enum(&m.Role, ReplStandalone, ReplDeposed, "replication role")
	c.U64(&m.Epoch)
	c.U64(&m.Watermark)
	c.U64(&m.StoreSeq)
	c.NonNeg(&m.LeaseMS, "lease duration")
	c.Str(&m.Leader)
	c.members(&m.Members)
	c.Enum(&m.Mode, ReplModeAvailability, ReplModeQuorum, "replication mode")
	c.Max32(&m.Quorum, MaxMembers, "quorum size")
}
