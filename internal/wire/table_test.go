package wire

import (
	"bufio"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// tableName is the Go type name of the message a table row constructs.
func tableName(code int) string {
	return reflect.TypeOf(messages[code].new()).Elem().Name()
}

// TestMsgTypeCodesPinned holds every type code to its number: a code that
// moves, a message that leaves the table, or a gap that is not listed as
// reserved breaks every peer built from another revision.
func TestMsgTypeCodesPinned(t *testing.T) {
	pinned := map[string]MsgType{
		"Error": 1, "OK": 2, "CreateStream": 3,
		"DeleteStream": 4, "InsertChunk": 5, "GetRange": 6,
		"GetRangeResp": 7, "StatRange": 8, "StatRangeResp": 9,
		"DeleteRange": 10, "Rollup": 11, "PutGrant": 12,
		"GetGrants": 13, "GetGrantsResp": 14, "DeleteGrant": 15,
		"PutEnvelopes": 16, "GetEnvelopes": 17, "GetEnvelopesResp": 18,
		"StreamInfo": 19, "StreamInfoResp": 20, "StageRecord": 21,
		"GetStaged": 22, "GetStagedResp": 23, "ListStreams": 24,
		"ListStreamsResp": 25, "Batch": 26, "BatchResp": 27,
		"QueryStream": 28, "AggRange": 29, "AggRangeResp": 30,
		"StreamCredit": 31, "TopologyInfo": 32, "TopologyInfoResp": 33,
		"TopologyUpdate": 34, "Reshard": 35, "StreamSnapshot": 36,
		"SnapshotChunk": 37, "IngestSnapshot": 38, "HandoffComplete": 39,
		"Subscribe": 40, "SubscribeResp": 41, "SubEvent": 42,
		"Unsubscribe": 43, "ReplAppend": 44, "ReplAck": 45,
		"ReplSnapshot": 46, "Promote": 47, "LeaseInfo": 48,
		"LeaseInfoResp": 49,
	}
	// Retired codes, by the name they had; none yet.
	reserved := map[MsgType]string{}

	seen := map[string]bool{}
	for code := 1; code < len(messages); code++ {
		if messages[code].new == nil {
			if reserved[MsgType(code)] == "" {
				t.Errorf("code %d has no table row and is not reserved", code)
			}
			continue
		}
		name := tableName(code)
		seen[name] = true
		if got := messages[code].new().Type(); got != MsgType(code) {
			t.Errorf("row %d constructs %s, whose Type() is %d", code, name, got)
		}
		if want, ok := pinned[name]; !ok {
			t.Errorf("%s (code %d) is not pinned", name, code)
		} else if want != MsgType(code) {
			t.Errorf("%s moved from code %d to %d", name, want, code)
		}
	}
	for name, code := range pinned {
		if !seen[name] {
			t.Errorf("%s (code %d) is missing from the table", name, code)
		}
	}
}

// TestMessageFacts pins what every message is to the layers around the
// codec: its kind (replicated as a mutation, replayed after a redial as a
// read, or neither), whether the engine's write fence guards it, and its
// routing key. Every code has a row; batches fold their members.
func TestMessageFacts(t *testing.T) {
	rows := []struct {
		m      Message
		kind   Kind
		fenced bool
		key    string // "" = no routing key: fan-out or connection-level
	}{
		{&Error{}, KindResponse, false, ""},
		{&OK{}, KindResponse, false, ""},
		{&CreateStream{UUID: "s1"}, KindMutation, false, "s1"},
		{&DeleteStream{UUID: "s1"}, KindMutation, true, "s1"},
		{&InsertChunk{UUID: "s1"}, KindMutation, true, "s1"},
		{&GetRange{UUID: "s1"}, KindRead, false, "s1"},
		{&GetRangeResp{}, KindResponse, false, ""},
		{&StatRange{UUIDs: []string{"s1"}}, KindRead, false, "s1"},
		{&StatRange{UUIDs: []string{"a", "b"}}, KindRead, false, ""},
		{&StatRangeResp{}, KindResponse, false, ""},
		{&DeleteRange{UUID: "s1"}, KindMutation, true, "s1"},
		{&Rollup{UUID: "s1"}, KindMutation, true, "s1"},
		{&PutGrant{UUID: "s1"}, KindMutation, true, "s1"},
		{&GetGrants{UUID: "s1"}, KindRead, false, "s1"},
		{&GetGrantsResp{}, KindResponse, false, ""},
		{&DeleteGrant{UUID: "s1"}, KindMutation, true, "s1"},
		{&PutEnvelopes{UUID: "s1"}, KindMutation, true, "s1"},
		{&GetEnvelopes{UUID: "s1"}, KindRead, false, "s1"},
		{&GetEnvelopesResp{}, KindResponse, false, ""},
		{&StreamInfo{UUID: "s1"}, KindRead, false, "s1"},
		{&StreamInfoResp{}, KindResponse, false, ""},
		{&StageRecord{UUID: "s1"}, KindMutation, true, "s1"},
		{&GetStaged{UUID: "s1"}, KindRead, false, "s1"},
		{&GetStagedResp{}, KindResponse, false, ""},
		{&ListStreams{}, KindRead, false, ""},
		{&ListStreamsResp{}, KindResponse, false, ""},
		{&BatchResp{}, KindResponse, false, ""},
		{&QueryStream{UUID: "s1"}, KindRead, false, "s1"},
		{&AggRange{UUIDs: []string{"s1"}}, KindRead, false, "s1"},
		{&AggRange{UUIDs: []string{"a", "b", "c"}}, KindRead, false, ""},
		{&AggRangeResp{}, KindResponse, false, ""},
		{&StreamCredit{}, KindControl, false, ""},
		{&TopologyInfo{}, KindRead, false, ""},
		{&TopologyInfoResp{}, KindResponse, false, ""},
		{&TopologyUpdate{}, KindMutation, false, ""},
		{&Reshard{Members: []string{"a"}}, KindControl, false, ""},
		{&StreamSnapshot{UUID: "s9"}, KindRead, false, "s9"},
		{&SnapshotChunk{}, KindResponse, false, ""},
		{&IngestSnapshot{UUID: "s9"}, KindMutation, false, "s9"},
		{&HandoffComplete{UUID: "s9", Action: HandoffCommit}, KindMutation, false, "s9"},
		{&Subscribe{UUIDs: []string{"s1"}}, KindControl, false, "s1"},
		{&Subscribe{UUIDs: []string{"a", "b"}}, KindControl, false, ""},
		{&SubscribeResp{}, KindResponse, false, ""},
		{&SubEvent{}, KindResponse, false, ""},
		{&Unsubscribe{}, KindControl, false, ""},
		{&ReplAppend{}, KindControl, false, ReplRoutingKey},
		{&ReplAck{}, KindResponse, false, ""},
		{&ReplSnapshot{}, KindControl, false, ReplRoutingKey},
		{&Promote{}, KindControl, false, ""},
		{&LeaseInfo{}, KindRead, false, ""},
		{&LeaseInfoResp{}, KindResponse, false, ""},

		// Batches: uniform, mixed, fan-out, empty, read-only, read+write,
		// mutations only, read+control.
		{&Batch{Reqs: []Message{&InsertChunk{UUID: "s1"}, &InsertChunk{UUID: "s1"}}}, KindMutation, false, "s1"},
		{&Batch{Reqs: []Message{&InsertChunk{UUID: "s1"}, &StreamInfo{UUID: "s2"}}}, KindMutation, false, ""},
		{&Batch{Reqs: []Message{&ListStreams{}}}, KindRead, false, ""},
		{&Batch{}, KindControl, false, ""},
		{&Batch{Reqs: []Message{&StatRange{}, &AggRange{}}}, KindRead, false, ""},
		{&Batch{Reqs: []Message{&StatRange{}, &InsertChunk{}}}, KindMutation, false, ""},
		{&Batch{Reqs: []Message{&DeleteRange{UUID: "s1"}, &PutGrant{UUID: "s2"}}}, KindMutation, false, ""},
		{&Batch{Reqs: []Message{&StreamInfo{UUID: "s1"}, &StreamCredit{}}}, KindControl, false, ""},
	}
	covered := map[MsgType]bool{}
	for i, r := range rows {
		covered[r.m.Type()] = true
		if got := KindOf(r.m); got != r.kind {
			t.Errorf("row %d %T: kind %d, want %d", i, r.m, got, r.kind)
		}
		if key, ok := RoutingUUID(r.m); key != r.key || ok != (r.key != "") {
			t.Errorf("row %d %T: routing key %q, %v; want %q", i, r.m, key, ok, r.key)
		}
		if key, fenced := FencedUUID(r.m); fenced != r.fenced || (fenced && key != r.key) {
			t.Errorf("row %d %T: fenced %q, %v; want %v", i, r.m, key, fenced, r.fenced)
		}
	}
	for code := range messages {
		if messages[code].new != nil && !covered[MsgType(code)] {
			t.Errorf("%s (code %d) has no facts row", tableName(code), code)
		}
	}
}

// TestAllMessagesCoverEveryCode keeps the round-trip, truncation and
// mutation tests complete: allMessages must construct every code the table
// decodes.
func TestAllMessagesCoverEveryCode(t *testing.T) {
	var got, want []MsgType
	for _, m := range allMessages() {
		got = append(got, m.Type())
	}
	for code := range messages {
		if messages[code].new != nil {
			want = append(want, MsgType(code))
		}
	}
	slices.Sort(got)
	if got = slices.Compact(got); !slices.Equal(got, want) {
		t.Errorf("allMessages covers codes %v, the table has %v", got, want)
	}
}

// TestProtocolMessageTableMatchesWire ties docs/PROTOCOL.md's message
// reference to the table: the request and response columns name exactly
// the messages the codec decodes.
func TestProtocolMessageTableMatchesWire(t *testing.T) {
	f, err := os.Open("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	backticked := regexp.MustCompile("`(\\w+)`")
	documented := map[string]bool{}
	inSection, inTable := false, false
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "## "):
			inSection = line == "## Message reference"
		case !inSection:
		case strings.HasPrefix(line, "|"):
			inTable = true
			// Columns 1 and 2 are the request and the response.
			if cells := strings.Split(line, "|"); len(cells) > 3 {
				for _, m := range backticked.FindAllStringSubmatch(cells[1]+cells[2], -1) {
					documented[m[1]] = true
				}
			}
		case inTable:
			inSection = false
		}
	}
	if len(documented) == 0 {
		t.Fatal("no message names found under docs/PROTOCOL.md's \"## Message reference\" table")
	}
	wire := map[string]bool{}
	for code := range messages {
		if messages[code].new != nil {
			wire[tableName(code)] = true
		}
	}
	for name := range wire {
		if !documented[name] {
			t.Errorf("%s is on the wire but missing from the PROTOCOL.md message reference", name)
		}
	}
	for name := range documented {
		if !wire[name] {
			t.Errorf("PROTOCOL.md's message reference names %s, which the wire does not decode", name)
		}
	}
}
