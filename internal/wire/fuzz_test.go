package wire

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"maps"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestUnmarshalNeverPanicsOnRandomBytes hammers the decoder with random
// and mutated inputs: a hostile peer must only ever produce errors.
func TestUnmarshalNeverPanicsOnRandomBytes(t *testing.T) {
	r := rand.New(rand.NewPCG(0xF00D, 0xBEEF))
	for trial := 0; trial < 5000; trial++ {
		n := r.IntN(256)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(r.Uint32())
		}
		// Must not panic; errors are fine, and a successful decode must
		// re-marshal without panicking.
		if m, err := Unmarshal(buf); err == nil {
			Marshal(m)
		}
	}
}

// TestUnmarshalMutatedMessages flips bytes of valid messages: decoding
// must never panic and any accepted mutant must re-marshal cleanly.
func TestUnmarshalMutatedMessages(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, m := range allMessages() {
		orig := Marshal(m)
		for trial := 0; trial < 300; trial++ {
			data := append([]byte(nil), orig...)
			// 1-3 mutations: flip, truncate, or extend.
			for k := 0; k < 1+r.IntN(3); k++ {
				switch r.IntN(3) {
				case 0:
					if len(data) > 0 {
						data[r.IntN(len(data))] ^= byte(1 << r.IntN(8))
					}
				case 1:
					if len(data) > 1 {
						data = data[:r.IntN(len(data))]
					}
				case 2:
					data = append(data, byte(r.Uint32()))
				}
			}
			if got, err := Unmarshal(data); err == nil {
				Marshal(got)
			}
		}
	}
}

// FuzzUnmarshal feeds the decoder arbitrary bytes. Decoding must never
// panic, and whatever it accepts must re-marshal to bytes it accepts again
// and that marshal the same way. That is idempotence, not Marshal(m) == b:
// a clamped field (a page size, a credit grant) re-encodes as its clamp.
// The seeds, one per allMessages entry plus the message bodies of the
// hot-path golden frames, run in every plain go test; fuzz with
//
//	go test -run '^$' -fuzz FuzzUnmarshal -fuzztime 30s ./internal/wire/
func FuzzUnmarshal(f *testing.F) {
	for _, m := range allMessages() {
		f.Add(Marshal(m))
	}
	for _, body := range goldenFrameBodies(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Unmarshal(b)
		if err != nil {
			return
		}
		first := Marshal(m)
		again, err := Unmarshal(first)
		if err != nil {
			t.Fatalf("%T re-marshals to bytes it refuses: %v\n% x", m, err, first)
		}
		if second := Marshal(again); !bytes.Equal(second, first) {
			t.Fatalf("%T re-marshals unstably:\n% x\n% x", m, first, second)
		}
	})
}

// goldenFrameBodies returns the messages inside the wire frames of the
// root package's hot-path golden file, envelopes stripped.
func goldenFrameBodies(f *testing.F) [][]byte {
	raw, err := os.ReadFile("../../testdata/hotpath_golden.json")
	if err != nil {
		f.Fatal(err)
	}
	var golden struct{ Frames map[string]string }
	if err := json.Unmarshal(raw, &golden); err != nil {
		f.Fatal(err)
	}
	var bodies [][]byte
	for _, name := range slices.Sorted(maps.Keys(golden.Frames)) {
		frame, err := hex.DecodeString(golden.Frames[name])
		if err != nil || len(frame) < 4 {
			f.Fatalf("golden frame %s: %v", name, err)
		}
		var m Message
		if strings.HasPrefix(name, "req_") {
			_, _, _, m, err = DecodeRequest(frame[4:])
		} else {
			_, _, m, err = DecodeResponse(frame[4:])
		}
		if err != nil {
			f.Fatalf("golden frame %s: %v", name, err)
		}
		bodies = append(bodies, Marshal(m))
	}
	if len(bodies) == 0 {
		f.Fatal("no frames in the hot-path golden file")
	}
	return bodies
}

// TestHostileCountsAllocateLittle sends each list-carrying message a count
// at its cap with no elements behind it. Every element takes at least one
// byte, so the count cannot be met: the decoder must refuse it before it
// allocates for the claimed elements (a 5-byte GetRangeResp once made it
// allocate 384 MiB).
func TestHostileCountsAllocateLittle(t *testing.T) {
	frame := func(typ MsgType, head func(e *Encoder), count uint64) []byte {
		var e Encoder
		e.U8(uint8(typ))
		if head != nil {
			head(&e)
		}
		e.U64(count)
		return e.Bytes()
	}
	uuid := func(e *Encoder) { e.Str("s") }
	twoU64 := func(e *Encoder) { e.U64(1); e.U64(2) }
	for name, b := range map[string][]byte{
		"GetRangeResp":     frame(TGetRangeResp, nil, maxList),
		"StatRange":        frame(TStatRange, nil, MaxAggStreams),
		"StatRangeResp":    frame(TStatRangeResp, twoU64, maxList),
		"GetGrantsResp":    frame(TGetGrantsResp, nil, 1<<20),
		"PutEnvelopes":     frame(TPutEnvelopes, func(e *Encoder) { e.Str("s"); e.U64(6) }, maxList),
		"GetEnvelopesResp": frame(TGetEnvelopesResp, nil, maxList),
		"GetStagedResp":    frame(TGetStagedResp, nil, maxList),
		"ListStreamsResp":  frame(TListStreamsResp, nil, maxList),
		"IngestSnapshot":   frame(TIngestSnapshot, uuid, MaxSnapshotItems),
		"ReplAppend":       frame(TReplAppend, twoU64, MaxReplRecords),
		"TopologyUpdate":   frame(TTopologyUpdate, func(e *Encoder) { e.U64(1) }, MaxMembers),
		"Batch":            frame(TBatch, nil, MaxBatch),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Unmarshal(b)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: count with no elements accepted", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Errorf("%s: a %d-byte frame allocated %d bytes before refusal", name, len(b), n)
		}
	}
}

// TestFrameReaderHostileHeaders feeds adversarial frame headers.
func TestFrameReaderHostileHeaders(t *testing.T) {
	cases := [][]byte{
		{},
		{0x00},
		{0x00, 0x00, 0x00},
		{0xFF, 0xFF, 0xFF, 0xFF},       // oversized claim
		{0x00, 0x00, 0x00, 0x05, 0x01}, // truncated body
		{0x7F, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00}, // huge claim, no body
	}
	for i, data := range cases {
		if _, err := ReadFrame(bytes.NewReader(data)); err == nil {
			t.Errorf("case %d: hostile frame accepted", i)
		}
	}
}

// TestBatchDecodeHostileInputs covers the batch envelope's decode guards:
// truncated payloads, nested envelopes, garbage elements, and implausible
// counts must all error without panicking.
func TestBatchDecodeHostileInputs(t *testing.T) {
	valid := Marshal(&Batch{Reqs: []Message{
		&InsertChunk{UUID: "s", Chunk: []byte{1, 2, 3}},
		&StreamInfo{UUID: "s"},
	}})
	// Every truncation must fail cleanly (a batch with fewer elements than
	// claimed can never be a valid prefix).
	for cut := 1; cut < len(valid); cut++ {
		if _, err := Unmarshal(valid[:cut]); err == nil {
			t.Errorf("truncated batch of %d/%d bytes accepted", cut, len(valid))
		}
	}

	// Nested batch envelopes are rejected, in both directions.
	var e Encoder
	e.U8(uint8(TBatch))
	e.U64(1)
	e.Msg(&Batch{Reqs: []Message{&OK{}}})
	if _, err := Unmarshal(e.Bytes()); err == nil {
		t.Error("nested Batch accepted")
	}
	var e2 Encoder
	e2.U8(uint8(TBatchResp))
	e2.U64(1)
	e2.Msg(&BatchResp{Resps: []Message{&OK{}}})
	if _, err := Unmarshal(e2.Bytes()); err == nil {
		t.Error("nested BatchResp accepted")
	}

	// An element that is itself garbage fails the whole envelope.
	var e3 Encoder
	e3.U8(uint8(TBatch))
	e3.U64(1)
	e3.buf = append(e3.buf, 0, 0, 0, 2, 0xEE, 0xEE)
	if _, err := Unmarshal(e3.Bytes()); err == nil {
		t.Error("garbage batch element accepted")
	}

	// A batch element is any message, so a request frame reaches every
	// decoder: one whose digest vector claims 2^61 words is refused, not a
	// panic that takes the server down.
	var e5 Encoder
	e5.U8(ProtoVersion)
	e5.U64(1) // correlation ID
	e5.I64(0) // time budget
	e5.U64(0) // epoch
	e5.U8(uint8(TBatch))
	e5.U64(1)
	e5.buf = append(e5.buf, 0, 0, 0, 14, uint8(TSubEvent), 0, 0, 0, 0)
	e5.U64(1 << 61)
	if _, _, _, _, err := DecodeRequest(e5.Bytes()); err == nil {
		t.Error("batch element with a 2^61-word vector accepted")
	}

	// A count beyond MaxBatch is rejected before any allocation.
	var e4 Encoder
	e4.U8(uint8(TBatch))
	e4.U64(MaxBatch + 1)
	if _, err := Unmarshal(e4.Bytes()); err == nil {
		t.Error("oversized batch count accepted")
	}
}

// TestBatchFuzzMutations flips bytes of a valid batch frame: decoding must
// never panic and accepted mutants must re-marshal.
func TestBatchFuzzMutations(t *testing.T) {
	r := rand.New(rand.NewPCG(0xBA7C4, 5))
	orig := Marshal(&Batch{Reqs: []Message{
		&InsertChunk{UUID: "stream-1", Chunk: bytes.Repeat([]byte{7}, 64)},
		&StatRange{UUIDs: []string{"a", "b"}, Ts: 0, Te: 100, WindowChunks: 4},
		&StageRecord{UUID: "stream-1", ChunkIndex: 3, Seq: 9, Box: []byte{1}},
	}})
	for trial := 0; trial < 2000; trial++ {
		data := append([]byte(nil), orig...)
		for k := 0; k < 1+r.IntN(4); k++ {
			switch r.IntN(3) {
			case 0:
				data[r.IntN(len(data))] ^= byte(1 << r.IntN(8))
			case 1:
				if len(data) > 1 {
					data = data[:1+r.IntN(len(data)-1)]
				}
			case 2:
				data = append(data, byte(r.Uint32()))
			}
		}
		if m, err := Unmarshal(data); err == nil {
			Marshal(m)
		}
	}
}

// TestRequestEnvelopeHostileInputs covers the request header (version,
// correlation ID, deadline, sender epoch): wrong versions, hostile IDs,
// negative deadlines, truncation, and random bytes.
func TestRequestEnvelopeHostileInputs(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRequest(&buf, 9, 30_000, &StreamInfo{UUID: "s"}); err != nil {
		t.Fatal(err)
	}
	id, timeout, epoch, m, err := readRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if id != 9 || timeout != 30_000 || epoch != 0 {
		t.Errorf("id = %d, timeout = %d, epoch = %d", id, timeout, epoch)
	}
	if si, ok := m.(*StreamInfo); !ok || si.UUID != "s" {
		t.Errorf("message = %#v", m)
	}

	// Hostile correlation IDs are opaque: any 64-bit value must decode
	// (matching responses to calls is the session's job, not the codec's).
	for _, hostile := range []uint64{0, 1, 1<<64 - 1, 1 << 63} {
		buf.Reset()
		if err := WriteRequest(&buf, hostile, 0, &OK{}); err != nil {
			t.Fatal(err)
		}
		if id, _, _, _, err := readRequest(&buf); err != nil || id != hostile {
			t.Errorf("correlation ID %d -> %d, %v", hostile, id, err)
		}
	}

	// An absurd claimed budget is clamped, not trusted: unchecked it would
	// overflow duration arithmetic server-side.
	buf.Reset()
	if err := WriteRequest(&buf, 1, 1<<60, &StreamInfo{UUID: "s"}); err != nil {
		t.Fatal(err)
	}
	if _, timeout, _, _, err = readRequest(&buf); err != nil || timeout != MaxTimeoutMS {
		t.Errorf("oversized timeout -> %d, %v (want clamp to %d)", timeout, err, int64(MaxTimeoutMS))
	}

	if _, _, _, _, err := DecodeRequest(nil); err == nil {
		t.Error("empty request accepted")
	}
	// Wrong protocol version surfaces the negotiation sentinel.
	var e Encoder
	e.U8(ProtoVersion + 1)
	e.U64(1)
	e.I64(0)
	if _, _, _, _, err := DecodeRequest(append(e.Bytes(), Marshal(&OK{})...)); !errors.Is(err, ErrProtoVersion) {
		t.Errorf("wrong protocol version -> %v, want ErrProtoVersion", err)
	}
	// Negative deadline.
	var e2 Encoder
	e2.U8(ProtoVersion)
	e2.U64(1)
	e2.I64(-5)
	e2.U64(0)
	if _, _, _, _, err := DecodeRequest(append(e2.Bytes(), Marshal(&OK{})...)); err == nil {
		t.Error("negative deadline accepted")
	}
	// Header without a message.
	var e3 Encoder
	e3.U8(ProtoVersion)
	e3.U64(1)
	e3.I64(0)
	if _, _, _, _, err := DecodeRequest(e3.Bytes()); err == nil {
		t.Error("headless request accepted")
	}
	// Truncated mid-header (inside the correlation ID varint).
	var e4 Encoder
	e4.U8(ProtoVersion)
	e4.U64(1 << 62)
	if _, _, _, _, err := DecodeRequest(e4.Bytes()[:3]); err == nil {
		t.Error("truncated header accepted")
	}
	// Random bytes never panic.
	r := rand.New(rand.NewPCG(3, 9))
	for trial := 0; trial < 3000; trial++ {
		data := make([]byte, r.IntN(128))
		for i := range data {
			data[i] = byte(r.Uint32())
		}
		if _, _, _, m, err := DecodeRequest(data); err == nil {
			Marshal(m)
		}
	}
}

// TestResponseEnvelopeHostileInputs covers the v3 response envelope:
// unknown flag bits, truncated stream frames, headless envelopes, and
// random bytes must error without panicking. (Unknown and duplicate
// correlation IDs decode fine here — rejecting them is the session's job,
// covered by the client package's hostile-server tests.)
func TestResponseEnvelopeHostileInputs(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteResponse(&buf, 3, true, &StatRangeResp{Windows: [][]uint64{{1}}}); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	frame, err := ReadFrame(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation of a stream-envelope frame must fail cleanly.
	for cut := 0; cut < len(frame); cut++ {
		if _, _, _, err := DecodeResponse(frame[:cut]); err == nil {
			t.Errorf("truncated response envelope of %d/%d bytes accepted", cut, len(frame))
		}
	}
	// Unknown flag bits are a protocol error, not ignorable extension
	// space: a v4 peer must fail loudly here.
	for _, flags := range []uint8{0x02, 0x80, 0xFF} {
		hostile := append([]byte(nil), frame...)
		hostile[1] = flags // id varint "3" is one byte; flags follow
		if _, _, _, err := DecodeResponse(hostile); err == nil {
			t.Errorf("unknown response flags %#x accepted", flags)
		}
	}
	// Headless and random inputs never panic.
	if _, _, _, err := DecodeResponse(nil); err == nil {
		t.Error("empty response accepted")
	}
	r := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 3000; trial++ {
		data := make([]byte, r.IntN(128))
		for i := range data {
			data[i] = byte(r.Uint32())
		}
		if _, _, m, err := DecodeResponse(data); err == nil {
			Marshal(m)
		}
	}
}

// TestDecoderRandomizedPrimitives checks the latching decoder never reads
// out of bounds under random operation sequences.
func TestDecoderRandomizedPrimitives(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	for trial := 0; trial < 2000; trial++ {
		buf := make([]byte, r.IntN(64))
		for i := range buf {
			buf[i] = byte(r.Uint32())
		}
		d := NewDecoder(buf)
		for op := 0; op < 16; op++ {
			switch r.IntN(7) {
			case 0:
				d.U8()
			case 1:
				d.U64()
			case 2:
				d.I64()
			case 3:
				d.Bool()
			case 4:
				d.Blob()
			case 5:
				d.Str()
			case 6:
				d.Vec()
			}
		}
		d.Done() // must not panic
	}
}

// TestAggRangeHostileInputs covers the typed-plan aggregation pair:
// implausible stream/element counts, truncation at every boundary,
// duplicate stream IDs (legal at the codec layer — the plan builder and
// engine own that semantic), and random mutations.
func TestAggRangeHostileInputs(t *testing.T) {
	valid := Marshal(&AggRange{
		UUIDs: []string{"a", "b", "a"}, // duplicates must decode, not panic
		Ts:    -9, Te: 1000, WindowChunks: 6,
		Elems: []uint32{0, 2, 2, 7}, PageWindows: 16,
	})
	m, err := Unmarshal(valid)
	if err != nil {
		t.Fatalf("valid AggRange rejected: %v", err)
	}
	if agg := m.(*AggRange); len(agg.UUIDs) != 3 || agg.UUIDs[2] != "a" {
		t.Errorf("duplicate stream IDs mangled: %#v", agg.UUIDs)
	}
	for cut := 1; cut < len(valid); cut++ {
		if _, err := Unmarshal(valid[:cut]); err == nil {
			t.Errorf("truncated AggRange of %d/%d bytes accepted", cut, len(valid))
		}
	}

	// A stream count beyond MaxAggStreams is rejected before allocation.
	var e Encoder
	e.U8(uint8(TAggRange))
	e.U64(MaxAggStreams + 1)
	if _, err := Unmarshal(e.Bytes()); err == nil {
		t.Error("oversized stream count accepted")
	}
	// An element count beyond MaxAggElems likewise.
	var e2 Encoder
	e2.U8(uint8(TAggRange))
	e2.U64(1)
	e2.Str("s")
	e2.I64(0)
	e2.I64(10)
	e2.U64(0)
	e2.U64(MaxAggElems + 1)
	if _, err := Unmarshal(e2.Bytes()); err == nil {
		t.Error("oversized element count accepted")
	}
	// An element index that does not fit uint32 is rejected, not wrapped.
	var e3 Encoder
	e3.U8(uint8(TAggRange))
	e3.U64(1)
	e3.Str("s")
	e3.I64(0)
	e3.I64(10)
	e3.U64(0)
	e3.U64(1)
	e3.U64(1 << 40)
	e3.U64(0)
	if _, err := Unmarshal(e3.Bytes()); err == nil {
		t.Error("overflowing element index accepted")
	}

	// The response side: hostile stream counts and truncation.
	resp := Marshal(&AggRangeResp{FromChunk: 4, ToChunk: 16, Epoch: 100, Interval: 10,
		StreamCount: 3, Windows: [][]uint64{{1, 2, 3}, {4, 5, 6}}})
	for cut := 1; cut < len(resp); cut++ {
		if _, err := Unmarshal(resp[:cut]); err == nil {
			t.Errorf("truncated AggRangeResp of %d/%d bytes accepted", cut, len(resp))
		}
	}
	var e4 Encoder
	e4.U8(uint8(TAggRangeResp))
	e4.U64(0)
	e4.U64(0)
	e4.I64(0)
	e4.I64(0)
	e4.U64(MaxAggStreams + 1)
	if _, err := Unmarshal(e4.Bytes()); err == nil {
		t.Error("oversized response stream count accepted")
	}

	// Random mutations of the request never panic; accepted mutants
	// re-marshal.
	r := rand.New(rand.NewPCG(0xA66, 0xA66))
	for trial := 0; trial < 2000; trial++ {
		data := append([]byte(nil), valid...)
		for k := 0; k < 1+r.IntN(4); k++ {
			switch r.IntN(3) {
			case 0:
				data[r.IntN(len(data))] ^= byte(1 << r.IntN(8))
			case 1:
				if len(data) > 1 {
					data = data[:1+r.IntN(len(data)-1)]
				}
			case 2:
				data = append(data, byte(r.Uint32()))
			}
		}
		if m, err := Unmarshal(data); err == nil {
			Marshal(m)
		}
	}

	// Credit frames: a hostile page grant is clamped, never trusted.
	cm, err := Unmarshal(Marshal(&StreamCredit{ID: 7, Pages: 1<<32 - 1}))
	if err != nil {
		t.Fatal(err)
	}
	if c := cm.(*StreamCredit); c.Pages != MaxStreamCredit {
		t.Errorf("credit grant %d not clamped to %d", c.Pages, MaxStreamCredit)
	}
}

// TestSubscriptionMessagesHostileInputs covers the v5 live-subscription
// messages: hostile subscription IDs are opaque 64-bit values, a zero-page
// credit grant (the abandon signal) decodes as-is, implausible stream and
// element counts are rejected before allocation, duplicate window sequence
// numbers decode cleanly (deduplication is the consumer's job, not the
// codec's), and truncation or random mutation never panics.
func TestSubscriptionMessagesHostileInputs(t *testing.T) {
	// Hostile subscription IDs are opaque: any 64-bit value must round-trip
	// (dropping stale or never-issued IDs is the server broker's job).
	for _, hostile := range []uint64{0, 1, 1<<64 - 1, 1 << 63} {
		m, err := Unmarshal(Marshal(&Unsubscribe{ID: hostile}))
		if err != nil {
			t.Fatalf("Unsubscribe ID %d rejected: %v", hostile, err)
		}
		if u := m.(*Unsubscribe); u.ID != hostile {
			t.Errorf("Unsubscribe ID %d mangled to %d", hostile, u.ID)
		}
	}

	// A zero-page credit grant is the tear-down signal, not an invalid
	// value: it must decode to exactly zero (only oversized grants clamp).
	cm, err := Unmarshal(Marshal(&StreamCredit{ID: 9, Pages: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if c := cm.(*StreamCredit); c.Pages != 0 {
		t.Errorf("zero credit grant decoded as %d", c.Pages)
	}

	// Implausible counts are rejected before any allocation: the stream
	// list, then the projected-element list.
	var e Encoder
	e.U8(uint8(TSubscribe))
	e.U64(MaxAggStreams + 1)
	if _, err := Unmarshal(e.Bytes()); err == nil {
		t.Error("oversized subscription stream count accepted")
	}
	var e2 Encoder
	e2.U8(uint8(TSubscribe))
	e2.U64(1)
	e2.Str("s")
	e2.U64(3) // WindowChunks
	e2.U64(MaxAggElems + 1)
	if _, err := Unmarshal(e2.Bytes()); err == nil {
		t.Error("oversized subscription element count accepted")
	}
	var e3 Encoder
	e3.U8(uint8(TSubscribeResp))
	e3.U64(0)
	e3.U64(3)
	e3.I64(0)
	e3.I64(10)
	e3.U64(MaxAggStreams + 1)
	if _, err := Unmarshal(e3.Bytes()); err == nil {
		t.Error("oversized subscription response stream count accepted")
	}

	// Duplicate window sequence numbers are legal at the codec layer — a
	// resubscribe or shard heal may replay a window already delivered, and
	// ordering/deduplication by Seq belongs to the consumer.
	for _, ev := range []*SubEvent{
		{Seq: 7, FromChunk: 21, ToChunk: 24, Window: []uint64{1, 2, 3}},
		{Seq: 7, FromChunk: 21, ToChunk: 24, Resync: true, Window: []uint64{1, 2, 3}},
	} {
		m, err := Unmarshal(Marshal(ev))
		if err != nil {
			t.Fatalf("duplicate-seq event rejected: %v", err)
		}
		if got := m.(*SubEvent); got.Seq != 7 || got.Resync != ev.Resync {
			t.Errorf("event mangled: %#v", got)
		}
	}

	// Truncation at every boundary errors cleanly; random mutations never
	// panic and accepted mutants re-marshal.
	r := rand.New(rand.NewPCG(0x5B5C, 0xCAFE))
	for _, m := range []Message{
		&Subscribe{UUIDs: []string{"a", "b", "a"}, WindowChunks: 6,
			Elems: []uint32{0, 2, 2}, FromSeq: 41, FromLatest: true},
		&SubscribeResp{FirstSeq: 12, WindowChunks: 6, Epoch: 100, Interval: 10, StreamCount: 3},
		&SubEvent{Seq: 12, FromChunk: 72, ToChunk: 78, Resync: true, Window: []uint64{9, 8, 7}},
		&Unsubscribe{ID: 1<<64 - 1},
	} {
		valid := Marshal(m)
		for cut := 1; cut < len(valid); cut++ {
			if _, err := Unmarshal(valid[:cut]); err == nil {
				t.Errorf("%T truncated at %d/%d bytes accepted", m, cut, len(valid))
			}
		}
		for trial := 0; trial < 500; trial++ {
			data := append([]byte(nil), valid...)
			for k := 0; k < 1+r.IntN(4); k++ {
				switch r.IntN(3) {
				case 0:
					data[r.IntN(len(data))] ^= byte(1 << r.IntN(8))
				case 1:
					if len(data) > 1 {
						data = data[:1+r.IntN(len(data)-1)]
					}
				case 2:
					data = append(data, byte(r.Uint32()))
				}
			}
			if got, err := Unmarshal(data); err == nil {
				Marshal(got)
			}
		}
	}
}

// TestReshardingMessagesHostileInputs covers the v4 topology and
// migration messages: implausible member/item counts are rejected before
// allocation, truncation at every boundary errors cleanly, a hostile
// snapshot page size is clamped, and random mutations never panic.
func TestReshardingMessagesHostileInputs(t *testing.T) {
	// Member-list counts beyond MaxMembers are rejected for every
	// membership-carrying message.
	for _, typ := range []MsgType{TTopologyInfoResp, TTopologyUpdate} {
		var e Encoder
		e.U8(uint8(typ))
		e.U64(0) // epoch
		e.U64(MaxMembers + 1)
		if _, err := Unmarshal(e.Bytes()); err == nil {
			t.Errorf("type %d: oversized member count accepted", typ)
		}
	}
	var er Encoder
	er.U8(uint8(TReshard))
	er.U64(MaxMembers + 1)
	if _, err := Unmarshal(er.Bytes()); err == nil {
		t.Error("oversized reshard member count accepted")
	}

	// Snapshot item counts beyond MaxSnapshotItems likewise, on both the
	// export page and the import request.
	var e2 Encoder
	e2.U8(uint8(TSnapshotChunk))
	e2.Bool(false)
	e2.U64(0)
	e2.U64(MaxSnapshotItems + 1)
	if _, err := Unmarshal(e2.Bytes()); err == nil {
		t.Error("oversized snapshot item count accepted")
	}
	var e3 Encoder
	e3.U8(uint8(TIngestSnapshot))
	e3.Str("s")
	e3.U64(MaxSnapshotItems + 1)
	if _, err := Unmarshal(e3.Bytes()); err == nil {
		t.Error("oversized ingest item count accepted")
	}

	// A hostile snapshot page size is clamped, never trusted.
	sm, err := Unmarshal(Marshal(&StreamSnapshot{UUID: "s", MaxItems: 1<<32 - 1}))
	if err != nil {
		t.Fatal(err)
	}
	if s := sm.(*StreamSnapshot); s.MaxItems != MaxSnapshotItems {
		t.Errorf("snapshot page size %d not clamped to %d", s.MaxItems, MaxSnapshotItems)
	}

	// Truncation at every boundary errors cleanly; random mutations never
	// panic and accepted mutants re-marshal.
	r := rand.New(rand.NewPCG(0x5A4D, 0x7071))
	for _, m := range []Message{
		&TopologyInfoResp{Epoch: 9, Members: []string{"a:1", "b:2", "c:3"}},
		&TopologyUpdate{Epoch: 10, Members: []string{"a:1", "b:2"}},
		&Reshard{Members: []string{"a:1", "b:2", "c:3"}, ExpectEpoch: 2},
		&StreamSnapshot{UUID: "s", FromChunk: 7, WithMeta: true, Cursor: "P:3:xyz", MaxItems: 32, Push: true},
		&SnapshotChunk{HasCfg: true, Cfg: StreamConfig{Interval: 5, VectorLen: 1}, Count: 3,
			Items: []KVItem{{Key: "c/s/0", Value: []byte{1}}}, Cursor: "P:5:2"},
		&IngestSnapshot{UUID: "s", Items: []KVItem{{Key: "m/s", Value: []byte{2, 3}}}},
		&HandoffComplete{UUID: "s", Epoch: 4, Action: HandoffRelease},
	} {
		valid := Marshal(m)
		for cut := 1; cut < len(valid); cut++ {
			if _, err := Unmarshal(valid[:cut]); err == nil {
				t.Errorf("%T truncated at %d/%d bytes accepted", m, cut, len(valid))
			}
		}
		for trial := 0; trial < 500; trial++ {
			data := append([]byte(nil), valid...)
			for k := 0; k < 1+r.IntN(4); k++ {
				switch r.IntN(3) {
				case 0:
					data[r.IntN(len(data))] ^= byte(1 << r.IntN(8))
				case 1:
					if len(data) > 1 {
						data = data[:1+r.IntN(len(data)-1)]
					}
				case 2:
					data = append(data, byte(r.Uint32()))
				}
			}
			if got, err := Unmarshal(data); err == nil {
				Marshal(got)
			}
		}
	}
}

// TestReplicationMessagesHostileInputs covers the v6 replication plane the
// way TestReshardingMessagesHostileInputs covers resharding: a follower
// decodes ReplAppend/ReplSnapshot/Promote frames from whoever currently
// claims the lease, so hostile counts, truncation at every byte boundary,
// and random mutation must all fail cleanly at the codec — before any
// record touches an engine.
func TestReplicationMessagesHostileInputs(t *testing.T) {
	// Record counts beyond MaxReplRecords are refused before any record
	// body is read.
	var ea Encoder
	ea.U8(uint8(TReplAppend))
	ea.U64(1) // epoch
	ea.U64(1) // first seq
	ea.U64(MaxReplRecords + 1)
	if _, err := Unmarshal(ea.Bytes()); err == nil {
		t.Error("oversized repl record count accepted")
	}

	// Snapshot pages share the resharding item bound.
	var es Encoder
	es.U8(uint8(TReplSnapshot))
	es.U64(1) // epoch
	es.U64(0) // watermark
	es.Bool(true)
	es.Bool(false)
	es.U64(MaxSnapshotItems + 1)
	if _, err := Unmarshal(es.Bytes()); err == nil {
		t.Error("oversized repl snapshot item count accepted")
	}

	// Promote shares the membership bound.
	var ep Encoder
	ep.U8(uint8(TPromote))
	ep.U64(2) // epoch
	ep.Str("a:1")
	ep.U64(MaxMembers + 1)
	if _, err := Unmarshal(ep.Bytes()); err == nil {
		t.Error("oversized promote member count accepted")
	}

	// A lease report with an unknown role or a negative lease duration is
	// malformed, not something for the router to interpret.
	bad := Marshal(&LeaseInfoResp{Role: ReplDeposed, LeaseMS: 1})
	bad[1] = ReplDeposed + 1 // role is the first body byte
	if _, err := Unmarshal(bad); err == nil {
		t.Error("unknown replication role accepted")
	}
	var el Encoder
	el.U8(uint8(TLeaseInfoResp))
	el.U8(ReplLeader)
	el.U64(7)   // epoch
	el.U64(9)   // watermark
	el.U64(9)   // store seq
	el.I64(-50) // lease
	el.Str("a:1")
	el.U64(0)
	if _, err := Unmarshal(el.Bytes()); err == nil {
		t.Error("negative lease duration accepted")
	}

	// The v6 mode/quorum tail fields are validated the same way: an
	// unknown acknowledgement mode or an implausible quorum size is
	// malformed, and both live at the end of their messages so every
	// pre-v6 field boundary is unchanged.
	badAck := Marshal(&ReplAck{Epoch: 1, Watermark: 2, Mode: ReplModeQuorum})
	badAck[len(badAck)-1] = ReplModeQuorum + 1 // mode is the last body byte
	if _, err := Unmarshal(badAck); err == nil {
		t.Error("unknown replication mode accepted in ReplAck")
	}
	badLease := Marshal(&LeaseInfoResp{Role: ReplLeader, LeaseMS: 1, Mode: ReplModeQuorum, Quorum: 2})
	badLease[len(badLease)-2] = ReplModeQuorum + 1 // mode precedes the 1-byte quorum varint
	if _, err := Unmarshal(badLease); err == nil {
		t.Error("unknown replication mode accepted in LeaseInfoResp")
	}
	var eq Encoder
	eq.U8(uint8(TLeaseInfoResp))
	eq.U8(ReplLeader)
	eq.U64(7) // epoch
	eq.U64(9) // watermark
	eq.U64(9) // store seq
	eq.I64(50)
	eq.Str("a:1")
	eq.U64(0) // members
	eq.U8(ReplModeQuorum)
	eq.U64(MaxMembers + 1) // quorum larger than any possible group
	if _, err := Unmarshal(eq.Bytes()); err == nil {
		t.Error("implausible quorum size accepted")
	}

	// Hostile epochs, watermarks, and sequence numbers are data, not
	// protocol: every extreme value round-trips so the epoch comparison
	// happens in replication logic where it can answer with an error
	// frame, never by tearing down the connection.
	hostile := []uint64{0, 1, 1<<63 - 1, 1 << 63, ^uint64(0)}
	for _, v := range hostile {
		got, err := Unmarshal(Marshal(&ReplAppend{Epoch: v, FirstSeq: v, Records: [][]byte{{1}}}))
		if err != nil {
			t.Fatalf("epoch/seq %d: %v", v, err)
		}
		if a := got.(*ReplAppend); a.Epoch != v || a.FirstSeq != v {
			t.Errorf("epoch/seq %d mangled: %+v", v, a)
		}
		ack, err := Unmarshal(Marshal(&ReplAck{Epoch: v, Watermark: v}))
		if err != nil {
			t.Fatalf("watermark %d: %v", v, err)
		}
		if a := ack.(*ReplAck); a.Watermark != v {
			t.Errorf("watermark %d mangled: %+v", v, a)
		}
	}
	// A duplicate or regressing FirstSeq is likewise a codec-clean frame:
	// the follower's sequencing check refuses it, not the decoder.
	if _, err := Unmarshal(Marshal(&ReplAppend{Epoch: 1, FirstSeq: 3, Records: [][]byte{{1}, {2}}})); err != nil {
		t.Fatalf("regressing-seq frame must decode cleanly: %v", err)
	}

	// Truncation at every boundary errors cleanly; random mutations never
	// panic and accepted mutants re-marshal.
	r := rand.New(rand.NewPCG(0x7265, 0x706C))
	for _, m := range []Message{
		&ReplAppend{Epoch: 9, FirstSeq: 100, Records: [][]byte{{1, 2, 3}, {}, {4}}, Leader: "b:2"},
		&ReplAck{Epoch: 9, Watermark: 102, Mode: ReplModeQuorum},
		&ReplSnapshot{Epoch: 10, Watermark: 50, First: true, Leader: "b:2",
			Items: []KVItem{{Key: "m/s", Value: []byte{1}}, {Key: "c/s/0", Value: []byte{2}}}},
		&ReplSnapshot{Epoch: 10, Watermark: 50, Done: true},
		&Promote{Epoch: 11, Leader: "b:2", Members: []string{"a:1", "b:2", "c:3"}},
		&LeaseInfoResp{Role: ReplLeader, Epoch: 11, Watermark: 60, StoreSeq: 61,
			LeaseMS: 2000, Leader: "a:1", Members: []string{"a:1", "b:2", "c:3"},
			Mode: ReplModeQuorum, Quorum: 2},
	} {
		valid := Marshal(m)
		for cut := 1; cut < len(valid); cut++ {
			if _, err := Unmarshal(valid[:cut]); err == nil {
				t.Errorf("%T truncated at %d/%d bytes accepted", m, cut, len(valid))
			}
		}
		for trial := 0; trial < 500; trial++ {
			data := append([]byte(nil), valid...)
			for k := 0; k < 1+r.IntN(4); k++ {
				switch r.IntN(3) {
				case 0:
					data[r.IntN(len(data))] ^= byte(1 << r.IntN(8))
				case 1:
					if len(data) > 1 {
						data = data[:1+r.IntN(len(data)-1)]
					}
				case 2:
					data = append(data, byte(r.Uint32()))
				}
			}
			if got, err := Unmarshal(data); err == nil {
				Marshal(got)
			}
		}
	}
}

// TestEnvelopeEpochHostileInputs pins the v6 sender-epoch field: any epoch
// value survives the envelope round trip (including ReplayEpoch, which is
// meaningful only in-process and must never be trusted off the wire as a
// bypass — the server treats it as just a very large epoch).
func TestEnvelopeEpochHostileInputs(t *testing.T) {
	for _, epoch := range []uint64{0, 1, 1 << 40, ^uint64(0) - 1, ^uint64(0)} {
		var buf bytes.Buffer
		if err := WriteRequestEpoch(&buf, 5, 100, epoch, &OK{}); err != nil {
			t.Fatal(err)
		}
		_, _, got, _, err := readRequest(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got != epoch {
			t.Errorf("epoch %d round-tripped as %d", epoch, got)
		}
	}
	// A header truncated inside the epoch field errors cleanly.
	var e Encoder
	e.U8(ProtoVersion)
	e.U64(1)
	e.I64(0)
	e.U64(1 << 40)
	full := append(e.Bytes(), Marshal(&OK{})...)
	for cut := 1 + 1 + 8; cut < len(full)-1; cut++ {
		if _, _, _, _, err := DecodeRequest(full[:cut]); err == nil {
			t.Errorf("truncated envelope at %d/%d accepted", cut, len(full))
		}
	}
}
