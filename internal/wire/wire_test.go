package wire

import (
	"bytes"
	"encoding/hex"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncoderDecoderPrimitives(t *testing.T) {
	var e Encoder
	e.U8(200)
	e.U64(math.MaxUint64)
	e.I64(-42)
	e.Bool(true)
	e.Bool(false)
	e.Blob([]byte{1, 2, 3})
	e.Str("hello")
	e.Vec([]uint64{7, 8, 9})
	d := NewDecoder(e.Bytes())
	if d.U8() != 200 {
		t.Error("u8")
	}
	if d.U64() != math.MaxUint64 {
		t.Error("u64")
	}
	if d.I64() != -42 {
		t.Error("i64")
	}
	if !d.Bool() || d.Bool() {
		t.Error("bool")
	}
	if !bytes.Equal(d.Blob(), []byte{1, 2, 3}) {
		t.Error("blob")
	}
	if d.Str() != "hello" {
		t.Error("str")
	}
	if v := d.Vec(); len(v) != 3 || v[0] != 7 || v[2] != 9 {
		t.Error("vec")
	}
	if err := d.Done(); err != nil {
		t.Errorf("Done: %v", err)
	}
}

func TestDecoderLatchesErrors(t *testing.T) {
	d := NewDecoder([]byte{})
	d.U8()
	if d.Err() == nil {
		t.Fatal("no error after truncated read")
	}
	// Subsequent reads keep returning zero values without panicking.
	if d.U64() != 0 || d.Str() != "" || d.Blob() != nil {
		t.Error("reads after error returned data")
	}
	if d.Done() == nil {
		t.Error("Done ignored latched error")
	}
}

func TestDecoderTrailingBytes(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3})
	d.U8()
	if d.Done() == nil {
		t.Error("Done accepted trailing bytes")
	}
}

// TestDecoderRefusesNonCanonical holds the decoder to the one encoding
// Encoder writes: an overlong varint (a multi-byte varint whose last byte
// is zero) and a bool byte other than 0 and 1 are refused, so no value has
// two byte forms. Canonical neighbours still decode.
func TestDecoderRefusesNonCanonical(t *testing.T) {
	u64 := func(d *Decoder) { d.U64() }
	i64 := func(d *Decoder) { d.I64() }
	boolean := func(d *Decoder) { d.Bool() }
	for _, tc := range []struct {
		name string
		in   []byte
		read func(*Decoder)
		ok   bool
	}{
		{"u64 0", []byte{0x00}, u64, true},
		{"u64 128", []byte{0x80, 0x01}, u64, true},
		{"u64 max", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, u64, true},
		{"u64 0 in two bytes", []byte{0x80, 0x00}, u64, false},
		{"u64 1 in two bytes", []byte{0x81, 0x00}, u64, false},
		{"u64 128 in three bytes", []byte{0x80, 0x81, 0x00}, u64, false},
		{"i64 -1", []byte{0x01}, i64, true},
		{"i64 0 in two bytes", []byte{0x80, 0x00}, i64, false},
		{"i64 -1 in three bytes", []byte{0x81, 0x80, 0x00}, i64, false},
		{"bool 0", []byte{0}, boolean, true},
		{"bool 1", []byte{1}, boolean, true},
		{"bool 2", []byte{2}, boolean, false},
		{"bool 7", []byte{7}, boolean, false},
		{"bool 255", []byte{255}, boolean, false},
	} {
		d := NewDecoder(tc.in)
		tc.read(d)
		if err := d.Done(); (err == nil) != tc.ok {
			t.Errorf("%s (% x): err = %v, want ok = %v", tc.name, tc.in, err, tc.ok)
		}
	}
	// The same holds inside messages: a flag byte of 2, or a field written
	// in an overlong varint, fails the whole message.
	snap := Marshal(&StreamSnapshot{UUID: "s", WithMeta: true})
	snap[len(snap)-4] = 2 // WithMeta, before the empty Cursor and the 1-byte MaxItems and Push
	if _, err := Unmarshal(snap); err == nil {
		t.Error("StreamSnapshot with WithMeta byte 2 accepted")
	}
	overlong := append([]byte{uint8(TGetRange), 1, 's', 0x80, 0x00}, 0x02)
	if _, err := Unmarshal(overlong); err == nil {
		t.Error("GetRange with an overlong Ts accepted")
	}
}

func TestDecoderOversizeClaims(t *testing.T) {
	var e Encoder
	e.U64(1 << 40) // claim a huge blob
	d := NewDecoder(e.Bytes())
	if d.Blob() != nil || d.Err() == nil {
		t.Error("oversized blob claim accepted")
	}
	var e2 Encoder
	e2.U64(1 << 40)
	d2 := NewDecoder(e2.Bytes())
	if d2.Vec() != nil || d2.Err() == nil {
		t.Error("oversized vec claim accepted")
	}
	// 2^61 words are 2^64 bytes: a size check that multiplies wraps to 0.
	var e3 Encoder
	e3.U64(1 << 61)
	d3 := NewDecoder(e3.Bytes())
	if d3.Vec() != nil || d3.Err() == nil {
		t.Error("vec claim of 2^61 words accepted")
	}
}

// allMessages returns one populated instance of every message type.
func allMessages() []Message {
	return []Message{
		&Error{Code: CodeNotFound, Msg: "missing"},
		&OK{},
		&CreateStream{UUID: "s1", Cfg: StreamConfig{
			Epoch: 1700000000000, Interval: 10000, VectorLen: 19, Fanout: 64,
			Compression: 1, DigestSpec: []byte{5, 6}, Meta: "heart-rate",
		}},
		&DeleteStream{UUID: "s1"},
		&InsertChunk{UUID: "s1", Chunk: []byte{9, 9, 9}},
		&GetRange{UUID: "s1", Ts: -5, Te: 100},
		&GetRangeResp{Chunks: [][]byte{{1}, {2, 3}, {}}},
		&StatRange{UUIDs: []string{"a", "b"}, Ts: 0, Te: 99, WindowChunks: 6},
		&StatRangeResp{FromChunk: 3, ToChunk: 9, Windows: [][]uint64{{1, 2}, {3, 4}}},
		&DeleteRange{UUID: "s1", Ts: 10, Te: 20},
		&Rollup{UUID: "s1", Factor: 60, Ts: 0, Te: 1000},
		&PutGrant{UUID: "s1", Principal: "doc", GrantID: "g1", Blob: []byte{7}},
		&GetGrants{UUID: "s1", Principal: "doc"},
		&GetGrantsResp{Blobs: [][]byte{{1, 2}}},
		&DeleteGrant{UUID: "s1", Principal: "doc", GrantID: "g1"},
		&PutEnvelopes{UUID: "s1", Factor: 6, Envs: []WireEnvelope{{Index: 0, Box: []byte{1}}, {Index: 1, Box: []byte{2}}}},
		&GetEnvelopes{UUID: "s1", Factor: 6, Lo: 2, Hi: 9},
		&GetEnvelopesResp{Envs: []WireEnvelope{{Index: 5, Box: []byte{3, 4}}}},
		&StreamInfo{UUID: "s1"},
		&StreamInfoResp{Cfg: StreamConfig{Interval: 60000, VectorLen: 1}, Count: 12345},
		&StageRecord{UUID: "s1", ChunkIndex: 4, Seq: 2, Box: []byte{8, 9}},
		&GetStaged{UUID: "s1", ChunkIndex: 4},
		&GetStagedResp{Boxes: [][]byte{{1}, {2}}},
		&ListStreams{},
		&ListStreamsResp{UUIDs: []string{"a", "b"}},
		&QueryStream{UUID: "s1", Ts: 0, Te: 600, WindowChunks: 6, PageWindows: 64},
		&AggRange{UUIDs: []string{"a", "b", "c"}, Ts: -7, Te: 900, WindowChunks: 6,
			Elems: []uint32{0, 1, 4}, PageWindows: 32},
		&AggRangeResp{FromChunk: 6, ToChunk: 18, Epoch: 1700000000000, Interval: 10000,
			StreamCount: 3, Windows: [][]uint64{{9, 8}, {7, 6}}},
		&StreamCredit{ID: 42, Pages: 4},
		&Error{Code: CodeWrongShard, Aux: 7, Msg: "stream moved in epoch 7"},
		&TopologyInfo{},
		&TopologyInfoResp{Epoch: 3, Members: []string{"a:7733", "b:7733"}},
		&TopologyUpdate{Epoch: 4, Members: []string{"a:7733", "b:7733", "c:7733"}},
		&Reshard{Members: []string{"a:7733", "c:7733"}, ExpectEpoch: 5},
		&StreamSnapshot{UUID: "s1", FromChunk: 12, WithMeta: true, Cursor: "P:2:c/s1/a", MaxItems: 64, Push: true},
		&SnapshotChunk{HasCfg: true, Cfg: StreamConfig{Epoch: 5, Interval: 10, VectorLen: 2},
			Count: 99, Items: []KVItem{{Key: "c/s1/0", Value: []byte{1, 2}}, {Key: "m/s1", Value: []byte{3}}},
			Cursor: "P:5:17", Done: false},
		&SnapshotChunk{Count: 99, Items: nil, Done: true},
		&IngestSnapshot{UUID: "s1", Items: []KVItem{{Key: "i/s1/0/0", Value: []byte{9}}}},
		&HandoffComplete{UUID: "s1", Epoch: 8, Action: HandoffCommit},
		&HandoffComplete{UUID: "s1", Epoch: 8, Action: HandoffRelease},
		&Subscribe{UUIDs: []string{"a", "b"}, WindowChunks: 6, Elems: []uint32{0, 2}, FromSeq: 17},
		&Subscribe{UUIDs: []string{"a"}, WindowChunks: 1, FromLatest: true},
		&SubscribeResp{FirstSeq: 17, WindowChunks: 6, Epoch: 1700000000000, Interval: 10000, StreamCount: 2},
		&SubEvent{Seq: 17, FromChunk: 102, ToChunk: 108, Resync: true, Window: []uint64{9, 8, 7}},
		&Unsubscribe{ID: 42},
		&ReplAppend{Epoch: 3, FirstSeq: 42, Records: [][]byte{{1, 2}, {}, {3}}, Leader: "a:7733"},
		&ReplAck{Epoch: 3, Watermark: 44, Mode: ReplModeQuorum},
		&ReplSnapshot{Epoch: 4, Watermark: 99, First: true, Leader: "a:7733",
			Items: []KVItem{{Key: "m/s1", Value: []byte{1}}, {Key: "c/s1/0", Value: []byte{2, 3}}}},
		&ReplSnapshot{Epoch: 4, Watermark: 99, Done: true},
		&Promote{Epoch: 5, Leader: "b:7733", Members: []string{"a:7733", "b:7733", "c:7733"}},
		&LeaseInfo{},
		&LeaseInfoResp{Role: ReplFollower, Epoch: 5, Watermark: 17, StoreSeq: 203,
			LeaseMS: 3000, Leader: "a:7733", Members: []string{"a:7733", "b:7733", "c:7733"},
			Mode: ReplModeQuorum, Quorum: 2},
		&Batch{Reqs: []Message{
			&InsertChunk{UUID: "s1", Chunk: []byte{1, 2}},
			&InsertChunk{UUID: "s1", Chunk: []byte{3}},
			&StreamInfo{UUID: "s2"},
		}},
		&BatchResp{Resps: []Message{
			&OK{},
			&Error{Code: CodeBadRequest, Msg: "nope"},
			&StreamInfoResp{Cfg: StreamConfig{Interval: 10, VectorLen: 1}, Count: 3},
		}},
	}
}

func TestEveryMessageRoundTrips(t *testing.T) {
	for _, m := range allMessages() {
		data := Marshal(m)
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if !reflect.DeepEqual(normalize(got), normalize(m)) {
			t.Errorf("%T round trip mismatch:\n got %#v\nwant %#v", m, got, m)
		}
	}
}

// messagesGolden holds Marshal of every allMessages entry, one hex line
// each, in order. It pins each message's field layout in both directions: a
// field order that is wrong in the encoder and the decoder alike still
// round-trips, but it no longer matches these bytes. Regenerate it with
// TIMECRYPT_UPDATE_GOLDEN=1 only for a deliberate wire change.
const messagesGolden = "testdata/messages.golden"

func TestEveryMessageMatchesGolden(t *testing.T) {
	msgs := allMessages()
	if os.Getenv("TIMECRYPT_UPDATE_GOLDEN") == "1" {
		var b strings.Builder
		for _, m := range msgs {
			b.WriteString(hex.EncodeToString(Marshal(m)) + "\n")
		}
		if err := os.WriteFile(messagesGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(messagesGolden)
	if err != nil {
		t.Fatalf("reading golden file (run with TIMECRYPT_UPDATE_GOLDEN=1 to capture): %v", err)
	}
	lines := strings.Fields(string(raw))
	if len(lines) != len(msgs) {
		t.Fatalf("%s has %d lines, allMessages has %d entries", messagesGolden, len(lines), len(msgs))
	}
	for i, m := range msgs {
		want, err := hex.DecodeString(lines[i])
		if err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if got := Marshal(m); !bytes.Equal(got, want) {
			t.Errorf("line %d %T encodes as\n %x\nwant\n %x", i+1, m, got, want)
		}
		// Decoding the golden bytes and encoding the result must give them
		// back: a decoder that reads two fields in swapped order fails here.
		dm, err := Unmarshal(want)
		if err != nil {
			t.Errorf("line %d %T: %v", i+1, m, err)
		} else if got := Marshal(dm); !bytes.Equal(got, want) {
			t.Errorf("line %d %T decodes to %#v", i+1, m, dm)
		}
	}
}

// normalize maps nil and empty slices to a comparable form (the codec may
// decode an empty list as an allocated empty slice).
func normalize(m Message) string {
	return string(Marshal(m))
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("empty message accepted")
	}
	if _, err := Unmarshal([]byte{0xEE}); err == nil {
		t.Error("unknown type accepted")
	}
	// Codes outside the table, on both sides of it.
	for _, code := range []byte{0, byte(len(messages)), 255} {
		if _, err := Unmarshal([]byte{code}); err == nil {
			t.Errorf("unknown type %d accepted", code)
		}
	}
	// Every message truncated at every boundary must error, not panic.
	for _, m := range allMessages() {
		data := Marshal(m)
		for cut := 0; cut < len(data); cut++ {
			if _, err := Unmarshal(data[:cut]); err == nil && cut < len(data) {
				// Some prefixes are legitimately complete
				// messages (e.g. OK has no payload); only the
				// type byte being present is required.
				if cut == 0 {
					t.Errorf("%T: empty prefix accepted", m)
				}
			}
		}
	}
}

func TestUnmarshalRejectsTrailing(t *testing.T) {
	data := append(Marshal(&OK{}), 0xFF)
	if _, err := Unmarshal(data); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{7}, 100000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame mismatch: %d vs %d bytes", len(got), len(want))
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("expected EOF on empty stream, got %v", err)
	}
}

func TestFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, MaxFrameSize+1)); err == nil {
		t.Error("oversized frame written")
	}
	// A header claiming an enormous frame must be rejected before
	// allocation.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("oversized frame header accepted")
	}
	// Truncated body.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 10, 1, 2})
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestWriteReadMessage(t *testing.T) {
	var buf bytes.Buffer
	want := &StatRange{UUIDs: []string{"x"}, Ts: 1, Te: 2, WindowChunks: 3}
	if err := WriteFrame(&buf, Marshal(want)); err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	sr, ok := got.(*StatRange)
	if !ok || sr.UUIDs[0] != "x" || sr.WindowChunks != 3 {
		t.Errorf("got %#v", got)
	}
}

func TestRequestEnvelopeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRequestEpoch(&buf, 42, 1500, 7, &StreamInfo{UUID: "s"}); err != nil {
		t.Fatal(err)
	}
	id, timeout, epoch, m, err := readRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if id != 42 || timeout != 1500 || epoch != 7 {
		t.Errorf("id=%d timeout=%d epoch=%d", id, timeout, epoch)
	}
	if si, ok := m.(*StreamInfo); !ok || si.UUID != "s" {
		t.Errorf("message = %#v", m)
	}
}

func TestResponseEnvelopeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteResponse(&buf, 7, true, &StatRangeResp{FromChunk: 1, ToChunk: 2, Windows: [][]uint64{{9}}}); err != nil {
		t.Fatal(err)
	}
	if err := WriteResponse(&buf, 7, false, &OK{}); err != nil {
		t.Fatal(err)
	}
	id, more, m, err := readResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 || !more {
		t.Errorf("id=%d more=%v", id, more)
	}
	if sr, ok := m.(*StatRangeResp); !ok || sr.Windows[0][0] != 9 {
		t.Errorf("page = %#v", m)
	}
	id, more, m, err = readResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 || more {
		t.Errorf("final id=%d more=%v", id, more)
	}
	if _, ok := m.(*OK); !ok {
		t.Errorf("final = %#v", m)
	}
}

func TestCodecProperty(t *testing.T) {
	f := func(u64 uint64, i64 int64, s string, blob []byte, vec []uint64) bool {
		var e Encoder
		e.U64(u64)
		e.I64(i64)
		e.Str(s)
		e.Blob(blob)
		e.Vec(vec)
		d := NewDecoder(e.Bytes())
		if d.U64() != u64 || d.I64() != i64 || d.Str() != s {
			return false
		}
		gotBlob := d.Blob()
		if len(gotBlob) != len(blob) || !bytes.Equal(gotBlob, blob) {
			return false
		}
		gotVec := d.Vec()
		if len(gotVec) != len(vec) {
			return false
		}
		for i := range vec {
			if gotVec[i] != vec[i] {
				return false
			}
		}
		return d.Done() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestErrorImplementsError(t *testing.T) {
	var err error = &Error{Code: CodeBadRequest, Msg: "nope"}
	if err.Error() == "" {
		t.Error("empty error string")
	}
}

func TestHandoffCompleteRejectsUnknownAction(t *testing.T) {
	for _, action := range []uint8{0, HandoffFence + 1, 200} {
		var e Encoder
		e.U8(uint8(THandoffComplete))
		e.Str("s1")
		e.U64(3)
		e.U8(action)
		if _, err := Unmarshal(e.Bytes()); err == nil {
			t.Errorf("handoff action %d accepted", action)
		}
	}
}

func TestWrongShardCarriesEpoch(t *testing.T) {
	data := Marshal(&Error{Code: CodeWrongShard, Aux: 42, Msg: "moved"})
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := got.(*Error)
	if !ok || e.Code != CodeWrongShard || e.Aux != 42 {
		t.Errorf("round trip lost the epoch: %#v", got)
	}
}

func TestBatchRoutingUUID(t *testing.T) {
	uniform := &Batch{Reqs: []Message{
		&InsertChunk{UUID: "s1", Chunk: []byte{1}},
		&InsertChunk{UUID: "s1", Chunk: []byte{2}},
	}}
	if k, ok := RoutingUUID(uniform); !ok || k != "s1" {
		t.Errorf("uniform batch -> %q, %v", k, ok)
	}
	mixed := &Batch{Reqs: []Message{
		&InsertChunk{UUID: "s1", Chunk: []byte{1}},
		&StreamInfo{UUID: "s2"},
	}}
	if _, ok := RoutingUUID(mixed); ok {
		t.Error("mixed batch reported a routing key")
	}
	fanout := &Batch{Reqs: []Message{&ListStreams{}}}
	if _, ok := RoutingUUID(fanout); ok {
		t.Error("fan-out batch reported a routing key")
	}
	if _, ok := RoutingUUID(&Batch{}); ok {
		t.Error("empty batch reported a routing key")
	}
}

func TestSnapshotMessagesRouteByUUID(t *testing.T) {
	for _, m := range []Message{
		&StreamSnapshot{UUID: "s9"},
		&IngestSnapshot{UUID: "s9"},
		&HandoffComplete{UUID: "s9", Action: HandoffCommit},
	} {
		if k, ok := RoutingUUID(m); !ok || k != "s9" {
			t.Errorf("%T -> %q, %v", m, k, ok)
		}
	}
	// Topology and reshard messages are connection-level admin: no key.
	for _, m := range []Message{&TopologyInfo{}, &Reshard{Members: []string{"a"}}, &TopologyUpdate{}} {
		if _, ok := RoutingUUID(m); ok {
			t.Errorf("%T reported a routing key", m)
		}
	}
}

// readRequest reads one framed request envelope.
func readRequest(r io.Reader) (uint64, int64, uint64, Message, error) {
	payload, err := ReadFrame(r)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	return DecodeRequest(payload)
}

// readResponse reads one framed response envelope.
func readResponse(r io.Reader) (uint64, bool, Message, error) {
	payload, err := ReadFrame(r)
	if err != nil {
		return 0, false, nil, err
	}
	return DecodeResponse(payload)
}
