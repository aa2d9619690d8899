package chunk

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestMarshalPointsRoundTrip(t *testing.T) {
	pts := []Point{
		{TS: 1000, Val: -5},
		{TS: 1010, Val: 0},
		{TS: 1020, Val: math.MaxInt64},
		{TS: 1035, Val: math.MinInt64},
		{TS: 1035, Val: 7}, // duplicate timestamps allowed
	}
	got, err := UnmarshalPoints(MarshalPoints(pts))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("got %d points, want %d", len(got), len(pts))
	}
	for i := range pts {
		if got[i] != pts[i] {
			t.Errorf("point %d: got %+v want %+v", i, got[i], pts[i])
		}
	}
}

func TestMarshalPointsEmpty(t *testing.T) {
	got, err := UnmarshalPoints(MarshalPoints(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("got %d points from empty chunk", len(got))
	}
}

func TestUnmarshalPointsRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{},
		{0xff}, // truncated varint
		{5},    // claims 5 points, no data
		append(MarshalPoints([]Point{{1, 2}}), 0x00), // trailing bytes
	}
	for i, data := range cases {
		if _, err := UnmarshalPoints(data); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestPointsCompactForRegularSeries(t *testing.T) {
	// Regularly spaced small values should encode far below 16
	// bytes/point thanks to delta-of-delta.
	pts := make([]Point, 500)
	for i := range pts {
		pts[i] = Point{TS: int64(1700000000000 + i*20), Val: int64(60 + i%5)}
	}
	enc := MarshalPoints(pts)
	if len(enc) > len(pts)*4 {
		t.Errorf("encoding is %d bytes for %d points; expected < 4 bytes/point", len(enc), len(pts))
	}
}

func TestPointsProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := rand.New(rand.NewPCG(seed, 42))
		pts := make([]Point, int(n))
		ts := int64(r.Uint64N(1 << 40))
		for i := range pts {
			ts += int64(r.Uint64N(10000))
			pts[i] = Point{TS: ts, Val: int64(r.Uint64())}
		}
		got, err := UnmarshalPoints(MarshalPoints(pts))
		if err != nil || len(got) != len(pts) {
			return false
		}
		for i := range pts {
			if got[i] != pts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCompressionRoundTrip(t *testing.T) {
	data := MarshalPoints([]Point{{1, 10}, {2, 20}, {3, 30}})
	for _, c := range []Compression{CompressionNone, CompressionZlib} {
		enc, err := Compress(c, data)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		dec, err := decompress(c, enc)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if string(dec) != string(data) {
			t.Errorf("%s: round trip mismatch", c)
		}
	}
}

func TestCompressionUnknownCodec(t *testing.T) {
	if _, err := Compress(Compression(99), []byte("x")); err == nil {
		t.Error("unknown codec accepted in Compress")
	}
	if _, err := decompress(Compression(99), []byte("x")); err == nil {
		t.Error("unknown codec accepted in decompress")
	}
	if _, err := decompress(CompressionZlib, []byte("not zlib")); err == nil {
		t.Error("invalid zlib stream accepted")
	}
}

func TestZlibShrinksRepetitiveData(t *testing.T) {
	pts := make([]Point, 500)
	for i := range pts {
		pts[i] = Point{TS: int64(i * 20), Val: 72}
	}
	raw := MarshalPoints(pts)
	z, err := Compress(CompressionZlib, raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(z) >= len(raw) {
		t.Errorf("zlib did not shrink repetitive payload: %d -> %d", len(raw), len(z))
	}
}
