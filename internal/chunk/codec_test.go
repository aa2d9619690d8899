package chunk

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	mrand "math/rand/v2"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// The per-chunk codec: which payloads are offered to deflate, which form is
// kept, and what the sealed chunk authenticates about that choice.

// sealLegacy seals the way Seal did before the codec was chosen per chunk:
// always the stream's codec, the 24-byte associated data, no CodecBound.
// It is the reference for chunks already in stores.
func sealLegacy(t testing.TB, tree *core.Tree, comp Compression, index uint64, start, end int64, pts []Point) *Sealed {
	t.Helper()
	li, err := tree.Leaf(index)
	if err != nil {
		t.Fatal(err)
	}
	lj, err := tree.Leaf(index + 1)
	if err != nil {
		t.Fatal(err)
	}
	aead, err := core.ChunkAEAD(core.ChunkKey(li, lj))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := Compress(comp, MarshalPoints(pts))
	if err != nil {
		t.Fatal(err)
	}
	nonce := make([]byte, aead.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		t.Fatal(err)
	}
	s := &Sealed{Index: index, Start: start, End: end, Digest: []uint64{7}, Compression: comp}
	s.Payload = aead.Seal(nonce, nonce, payload, appendAAD(nil, s))
	return s
}

// devOpsPoints is the benchmark's DevOps shape: six CPU percentages ten
// seconds apart, 20–26 bytes serialized.
func devOpsPoints(rng *mrand.Rand, index uint64) []Point {
	pts := make([]Point, 6)
	base := int64(rng.IntN(80))
	for i := range pts {
		v := min(max(base+int64(rng.IntN(21))-10, 0), 100)
		pts[i] = Point{TS: 1_700_000_000_000 + int64(index)*60_000 + int64(i)*10_000, Val: v}
	}
	return pts
}

// mHealthPoints is the benchmark's mHealth shape: a bounded random walk at
// 50 Hz, n points.
func mHealthPoints(rng *mrand.Rand, index uint64, n int) []Point {
	pts := make([]Point, n)
	v := int64(60 + rng.IntN(40))
	for i := range pts {
		v = min(max(v+int64(rng.IntN(5))-2, 40), 200)
		pts[i] = Point{TS: 1_700_000_000_000 + int64(index)*int64(n)*20 + int64(i)*20, Val: v}
	}
	return pts
}

// noisePoints serializes to random varints deflate cannot shrink.
func noisePoints(rng *mrand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{TS: int64(i) * 1000, Val: int64(rng.Uint64())}
	}
	return pts
}

// constantPoints serializes to exactly size bytes, all but the first few of
// them a two-byte repeat — a payload deflate shrinks as early as it can.
func constantPoints(t *testing.T, size int) []Point {
	t.Helper()
	ts0 := int64(0) // 1 + (1+1) + (2+1) bytes for two points, 2 more for each further one
	if size%2 == 1 {
		ts0 = 64 // a two-byte first timestamp
	}
	n := 2 + (size-6-int(ts0)/64)/2
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{TS: ts0 + int64(i)*1000, Val: 42}
	}
	if got := len(MarshalPoints(pts)); got != size {
		t.Fatalf("constantPoints(%d) serializes to %d bytes", size, got)
	}
	return pts
}

func samePoints(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDeflateGate(t *testing.T) {
	tree, enc := newTestEncryptor(t)
	for _, tc := range []struct {
		name string
		pts  []Point
		comp Compression
		want Compression
	}{
		// Deflate takes the 31-byte payload to 26 bytes, and is not asked.
		{"gate-1 compressible", constantPoints(t, deflateGate-1), CompressionZlib, CompressionNone},
		{"gate compressible", constantPoints(t, deflateGate), CompressionZlib, CompressionZlib},
		{"gate+1 compressible", constantPoints(t, deflateGate+1), CompressionZlib, CompressionZlib},
		{"gate compressible, stream set to none", constantPoints(t, deflateGate), CompressionNone, CompressionNone},
		// Offered to deflate, which returns more than it was given. (No
		// large payload does that: varints are a tenth redundancy, so 4 KB
		// of random values still deflate by 10 %.)
		{"above the gate, incompressible", noisePoints(mrand.New(mrand.NewPCG(1, 1)), 8), CompressionZlib, CompressionNone},
		{"no points", nil, CompressionZlib, CompressionNone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := MarshalPoints(tc.pts)
			taken := countDeflaters(t)
			sealed, err := Seal(enc, SumOnlySpec(), tc.comp, 0, 0, 1<<40, tc.pts)
			if err != nil {
				t.Fatal(err)
			}
			if offered := tc.comp == CompressionZlib && len(raw) >= deflateGate; offered != (*taken > 0) {
				t.Errorf("%d-byte payload: offered to deflate %v, want %v", len(raw), *taken > 0, offered)
			}
			if sealed.Compression != tc.want || !sealed.CodecBound {
				t.Errorf("%d-byte payload sealed as %v (bound %v), want %v, bound", len(raw), sealed.Compression, sealed.CodecBound, tc.want)
			}
			const nonceAndTag = 12 + 16
			if got := len(sealed.Payload) - nonceAndTag; got > len(raw) {
				t.Errorf("sealed payload holds %d bytes, more than the %d serialized", got, len(raw))
			} else if tc.want == CompressionNone && got != len(raw) {
				t.Errorf("raw payload holds %d bytes, want the %d serialized", got, len(raw))
			}
			got, err := Open(tree.NewWalker(), sealed)
			if err != nil || !samePoints(got, tc.pts) {
				t.Errorf("round trip: err %v, points equal: %v", err, samePoints(got, tc.pts))
			}
			// The plaintext baseline is the same pipeline.
			plain, err := SealPlain(SumOnlySpec(), tc.comp, 0, 0, 1<<40, tc.pts)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Compression != sealed.Compression || len(plain.Payload) != len(sealed.Payload)-nonceAndTag {
				t.Errorf("SealPlain chose %v and %d bytes, Seal %v and %d", plain.Compression, len(plain.Payload),
					sealed.Compression, len(sealed.Payload)-nonceAndTag)
			}
			if got, err := OpenPlain(plain); err != nil || !samePoints(got, tc.pts) {
				t.Errorf("plain round trip: err %v", err)
			}
		})
	}
	if _, err := Seal(enc, SumOnlySpec(), Compression(9), 0, 0, 100, nil); err == nil {
		t.Error("Seal accepted an unknown codec")
	}
}

// countDeflaters swaps in an empty deflater pool whose New counts, so the
// count is zero exactly when no deflater was taken.
func countDeflaters(t *testing.T) *int {
	t.Helper()
	taken := new(int)
	build := deflaters.New
	deflaters = sync.Pool{New: func() any { *taken++; return build() }}
	t.Cleanup(func() { deflaters = sync.Pool{New: build} })
	return taken
}

// The benchmark's DevOps chunks are below the gate: sealing and opening
// them must never take a deflater (resetting one is what used to cost 18 of
// a seal's 27 µs) nor an inflater.
func TestDevOpsSealNeverTouchesADeflater(t *testing.T) {
	tree, enc := newTestEncryptor(t)
	taken := countDeflaters(t)
	inflated := new(int)
	buildIn := inflaters.New
	inflaters = sync.Pool{New: func() any { *inflated++; return buildIn() }}
	t.Cleanup(func() { inflaters = sync.Pool{New: buildIn} })

	rng := mrand.New(mrand.NewPCG(11, 12))
	w := tree.NewWalker()
	for i := uint64(0); i < 2000; i++ {
		pts := devOpsPoints(rng, i)
		if n := len(MarshalPoints(pts)); n < 20 || n > 26 {
			t.Fatalf("DevOps chunk serializes to %d bytes, the shape is 20..26", n)
		}
		start := 1_700_000_000_000 + int64(i)*60_000
		sealed, err := Seal(enc, DefaultSpec(), CompressionZlib, i, start, start+60_000, pts)
		if err != nil {
			t.Fatal(err)
		}
		if sealed.Compression != CompressionNone {
			t.Fatalf("chunk %d sealed as %v", i, sealed.Compression)
		}
		if got, err := OpenInStream(w, CompressionZlib, sealed); err != nil || !samePoints(got, pts) {
			t.Fatalf("chunk %d: round trip failed: %v", i, err)
		}
	}
	if *taken != 0 || *inflated != 0 {
		t.Errorf("2000 DevOps chunks took %d deflaters and %d inflaters, want none", *taken, *inflated)
	}
	// The counter counts: one mHealth chunk takes one of each.
	pts := mHealthPoints(rng, 2000, 500)
	sealed, err := Seal(enc, DefaultSpec(), CompressionZlib, 2000, 0, 100, pts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(w, sealed); err != nil {
		t.Fatal(err)
	}
	if sealed.Compression != CompressionZlib || *taken != 1 || *inflated != 1 {
		t.Errorf("an mHealth chunk sealed as %v taking %d deflaters and %d inflaters, want zlib, 1, 1", sealed.Compression, *taken, *inflated)
	}
}

// One stream holds raw and deflated chunks, sealed before and after the
// codec was bound, and every one of them survives storage and opens.
func TestMixedCodecStreamRoundTrips(t *testing.T) {
	tree, enc := newTestEncryptor(t)
	rng := mrand.New(mrand.NewPCG(21, 22))
	w := tree.NewWalker()
	codecs := map[Compression]int{}
	for i := uint64(0); i < 60; i++ {
		var pts []Point
		switch i % 3 {
		case 0:
			pts = devOpsPoints(rng, i)
		case 1:
			pts = mHealthPoints(rng, i, 40+int(i))
		default:
			pts = noisePoints(rng, 5+int(i))
		}
		var sealed *Sealed
		if i%4 == 3 {
			sealed = sealLegacy(t, tree, CompressionZlib, i, int64(i)*100, int64(i+1)*100, pts)
		} else {
			var err error
			if sealed, err = Seal(enc, SumOnlySpec(), CompressionZlib, i, int64(i)*100, int64(i+1)*100, pts); err != nil {
				t.Fatal(err)
			}
		}
		stored, err := UnmarshalSealed(MarshalSealed(sealed))
		if err != nil {
			t.Fatal(err)
		}
		if stored.Compression != sealed.Compression || stored.CodecBound != sealed.CodecBound {
			t.Fatalf("chunk %d: codec %v bound %v came back as %v bound %v", i,
				sealed.Compression, sealed.CodecBound, stored.Compression, stored.CodecBound)
		}
		got, err := OpenInStream(w, CompressionZlib, stored)
		if err != nil || !samePoints(got, pts) {
			t.Fatalf("chunk %d (%v, bound %v): err %v", i, stored.Compression, stored.CodecBound, err)
		}
		codecs[stored.Compression]++
	}
	if codecs[CompressionNone] == 0 || codecs[CompressionZlib] == 0 {
		t.Errorf("the stream is not mixed: %v", codecs)
	}
}

// Two chunks marshaled by the code before this format revision (tree:
// AES PRG, height 16, seed {1}; SumOnlySpec): a DevOps chunk whose 21
// serialized bytes zlib made 34, and one from a stream set to none.
var legacyGolden = []struct {
	name   string
	hex    string
	stream Compression
	pts    []Point
}{
	{
		"zlib, 21-byte payload",
		"3a8087d481fa62c0b0db81fa62000001c0a142b0aaef03d73e96009d4eef934b808acd8624fe349a9268223d4a03532534d4a95fce9d5f959b6c1f0de0d33f89d63005047f6494857ec3696ff1009c064dda254d689cc9",
		CompressionZlib,
		[]Point{{1700003480000, 53}, {1700003490000, 55}, {1700003500000, 57}, {1700003510000, 53}, {1700003520000, 59}, {1700003530000, 69}},
	},
	{
		"none",
		"0280f3b9fef962c09cc1fef9620100011e7f55f6529684ac322d2497dda882c6fb81c4afb2bf916a147b596c0f7690b2fb358ca5ffbf495a6c16247c4f23ce0c5482ddebbce98a18d05149",
		CompressionNone,
		[]Point{{1700000120000, 63}, {1700000130000, 67}, {1700000140000, 67}, {1700000150000, 55}, {1700000160000, 51}, {1700000170000, 61}},
	},
}

func TestLegacyGoldenChunksStillOpen(t *testing.T) {
	tree, _ := newTestEncryptor(t)
	for _, g := range legacyGolden {
		t.Run(g.name, func(t *testing.T) {
			blob, err := hex.DecodeString(g.hex)
			if err != nil {
				t.Fatal(err)
			}
			sealed, err := UnmarshalSealed(blob)
			if err != nil {
				t.Fatal(err)
			}
			if sealed.CodecBound || sealed.Compression != g.stream {
				t.Fatalf("parsed as %v, bound %v", sealed.Compression, sealed.CodecBound)
			}
			got, err := OpenInStream(tree.NewWalker(), g.stream, sealed)
			if err != nil || !samePoints(got, g.pts) {
				t.Errorf("err %v, points %v", err, got)
			}
			if again := MarshalSealed(sealed); hex.EncodeToString(again) != g.hex {
				t.Error("re-marshaling a legacy chunk changed its bytes")
			}
		})
	}
}

// The codec byte used to be outside the AEAD: a store that relabeled a
// deflated chunk as raw got Open to parse the deflate stream as points
// (0x78 reads as "120 points") — some 90 of 20,000 mHealth chunks came back as
// well-formed garbage with no error. A bound chunk now fails
// authentication; a legacy chunk is refused by the reader that knows its
// stream's codec.
func TestOpenRejectsFlippedCodec(t *testing.T) {
	tree, enc := newTestEncryptor(t)
	w := tree.NewWalker()
	rng := mrand.New(mrand.NewPCG(31, 32))
	flip := map[Compression]Compression{CompressionZlib: CompressionNone, CompressionNone: CompressionZlib}
	var bound, legacy int
	for i := uint64(0); i < 2000; i++ {
		pts := mHealthPoints(rng, i, 500)
		if i%2 == 1 {
			pts = devOpsPoints(rng, i)
		}
		sealed, err := Seal(enc, SumOnlySpec(), CompressionZlib, i, 0, 100, pts)
		if err != nil {
			t.Fatal(err)
		}
		sealed.Compression = flip[sealed.Compression]
		if got, err := Open(w, sealed); err == nil {
			t.Fatalf("bound chunk %d relabeled %v opened to %d points", i, sealed.Compression, len(got))
		} else if !strings.Contains(err.Error(), "authentication failed") {
			t.Fatalf("bound chunk %d: %v, want an authentication failure", i, err)
		}
		bound++
		// Clearing the bit does not turn it into a legacy chunk either.
		sealed.CodecBound = false
		if _, err := Open(w, sealed); err == nil {
			t.Fatalf("chunk %d opened with its codec unbound and relabeled", i)
		}

		for _, stream := range []Compression{CompressionZlib, CompressionNone} {
			old := sealLegacy(t, tree, stream, i, 0, 100, pts)
			if got, err := OpenInStream(w, stream, old); err != nil || !samePoints(got, pts) {
				t.Fatalf("legacy %v chunk %d: %v", stream, i, err)
			}
			old.Compression = flip[stream]
			if got, err := OpenInStream(w, stream, old); err == nil {
				t.Fatalf("legacy chunk %d of a %v stream relabeled %v opened to %d points", i, stream, old.Compression, len(got))
			}
			legacy++
		}
	}
	t.Logf("%d bound and %d legacy relabelings refused", bound, legacy)
}

func TestSealPlainRejectsOutOfOrderPoints(t *testing.T) {
	if _, err := SealPlain(DefaultSpec(), CompressionNone, 0, 100, 200,
		[]Point{{TS: 150, Val: 1}, {TS: 120, Val: 2}}); err == nil {
		t.Error("out-of-order points accepted")
	}
}

// Hostile stores: every single-bit flip and a seeded random rewrite of every
// byte of a stored chunk — header (index, interval, codec, flags, lengths),
// digest and payload — must yield an error or the original points, never
// other points. Raw and deflated, bound and legacy.
func TestOpenMutatedChunks(t *testing.T) {
	tree, enc := newTestEncryptor(t)
	w := tree.NewWalker()
	rng := mrand.New(mrand.NewPCG(0xC0DE, 0xC0DEC))
	seal := func(pts []Point) *Sealed {
		s, err := Seal(enc, SumOnlySpec(), CompressionZlib, 3, 300, 400, pts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	small, large := devOpsPoints(rng, 3), mHealthPoints(rng, 3, 120)
	for _, tc := range []struct {
		name   string
		stream Compression
		sealed *Sealed
		pts    []Point
	}{
		{"bound raw", CompressionZlib, seal(small), small},
		{"bound zlib", CompressionZlib, seal(large), large},
		{"legacy raw", CompressionNone, sealLegacy(t, tree, CompressionNone, 3, 300, 400, small), small},
		{"legacy zlib", CompressionZlib, sealLegacy(t, tree, CompressionZlib, 3, 300, 400, large), large},
	} {
		t.Run(tc.name, func(t *testing.T) {
			good := MarshalSealed(tc.sealed)
			var rejected, harmless int
			try := func(what string, data []byte) {
				s, err := UnmarshalSealed(data)
				if err != nil {
					rejected++
					return
				}
				got, err := OpenInStream(w, tc.stream, s)
				switch {
				case err != nil:
					rejected++
				case samePoints(got, tc.pts):
					harmless++ // the digest and unused flag bits are not the payload's
				default:
					t.Fatalf("%s: opened to %d other points", what, len(got))
				}
			}
			for pos := range good {
				for bit := 0; bit < 8; bit++ {
					data := append([]byte(nil), good...)
					data[pos] ^= 1 << bit
					try(fmt.Sprintf("byte %d bit %d", pos, bit), data)
				}
				data := append([]byte(nil), good...)
				data[pos] = byte(rng.Uint32())
				try(fmt.Sprintf("byte %d rewritten", pos), data)
			}
			for cut := 0; cut < len(good); cut++ {
				try(fmt.Sprintf("truncated to %d", cut), good[:cut])
			}
			if rejected == 0 {
				t.Error("no mutant was rejected")
			}
			t.Logf("%d bytes: %d mutants rejected, %d harmless", len(good), rejected, harmless)
		})
	}
}
