package chunk

import (
	"bytes"
	"compress/zlib"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
)

// owned copies a codec's result out of pooled (or caller) memory.
func owned(b []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// Compress encodes data with the codec through the pooled deflaters, as
// Seal does, and copies the result out of the deflater's buffer.
func Compress(c Compression, data []byte) ([]byte, error) {
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	return owned(d.encode(c, data))
}

// decompress reverses Compress through the pooled inflaters, as Open
// does, and copies the result out of the inflater's buffer.
func decompress(c Compression, data []byte) ([]byte, error) {
	in := inflaters.Get().(*inflater)
	defer in.release()
	return owned(in.decode(c, data))
}

// freshCompress is the unpooled reference: what Compress did before the
// codecs were pooled, a zlib.Writer built for this one payload.
func freshCompress(t testing.TB, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := zlib.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// codecPayload builds n bytes that deflate has something to do with:
// runs, repeats at a distance and noise.
func codecPayload(seed uint64, n int) []byte {
	rng := rand.New(rand.NewPCG(seed, 0xC0DEC))
	out := make([]byte, 0, n)
	for len(out) < n {
		switch rng.Uint64N(3) {
		case 0:
			out = append(out, bytes.Repeat([]byte{byte(rng.Uint64())}, 1+int(rng.Uint64N(40)))...)
		case 1:
			if len(out) > 8 {
				from := int(rng.Uint64N(uint64(len(out) - 8)))
				out = append(out, out[from:from+8]...)
				continue
			}
			fallthrough
		default:
			out = append(out, byte(rng.Uint64()), byte(rng.Uint64()), byte(rng.Uint64()))
		}
	}
	return out[:n]
}

var codecSizes = []int{0, 1, 96, 4 << 10, 1 << 20}

// A Reset writer must produce what a fresh one does, whatever it
// compressed before: stored chunks, golden vectors and the benchmark's byte
// counters all depend on the sealed bytes not moving.
func TestCompressMatchesFreshWriter(t *testing.T) {
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	var kept [][2][]byte // results handed to the caller, and what they must still hold at the end
	for i, n := range codecSizes {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			data := codecPayload(uint64(i), n)
			want := freshCompress(t, data)
			// Dirty both this deflater and whichever one the pool hands
			// Compress with a different input first.
			other := codecPayload(uint64(100+i), 3000+n/2)
			if _, err := d.encode(CompressionZlib, other); err != nil {
				t.Fatal(err)
			}
			if _, err := Compress(CompressionZlib, other); err != nil {
				t.Fatal(err)
			}
			got, err := d.encode(CompressionZlib, data)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("reused deflater: %d bytes differ from a fresh writer's %d", len(got), len(want))
			}
			pub, err := Compress(CompressionZlib, data)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pub, want) {
				t.Errorf("Compress: %d bytes differ from a fresh writer's %d", len(pub), len(want))
			}
			back, err := decompress(CompressionZlib, pub)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, data) {
				t.Errorf("round trip changed the %d-byte payload", n)
			}
			kept = append(kept, [2][]byte{pub, want}, [2][]byte{back, data})
		})
	}
	// Results belong to the caller: later calls through the same pooled
	// codecs must not have written over them.
	for i, k := range kept {
		if !bytes.Equal(k[0], k[1]) {
			t.Errorf("result %d was overwritten by a later call: it aliases pooled memory", i)
		}
	}
}

// A payload that fails — bad header, truncated stream, wrong checksum —
// must leave nothing behind in the reader the next payload gets.
func TestDecompressErrorDoesNotPoisonReader(t *testing.T) {
	data := codecPayload(7, 4<<10)
	good := freshCompress(t, data)
	truncated := good[:len(good)/2]
	badSum := append([]byte(nil), good...)
	badSum[len(badSum)-1] ^= 0xFF
	badHeader := append([]byte{0xFF, 0xFF}, good[2:]...)

	in := new(inflater) // no reader yet: the first payload goes through zlib.NewReader
	check := func(step string) {
		t.Helper()
		got, err := in.decode(CompressionZlib, good)
		if err != nil {
			t.Fatalf("valid payload after %s: %v", step, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("valid payload after %s decoded wrong", step)
		}
	}
	for _, bad := range []struct {
		name string
		data []byte
	}{
		{"a bad header on a new reader", badHeader},
		{"a truncated stream", truncated},
		{"a bad header on a used reader", badHeader},
		{"a wrong checksum", badSum},
		{"an empty payload", nil},
	} {
		if _, err := in.decode(CompressionZlib, bad.data); err == nil {
			t.Errorf("%s was accepted", bad.name)
		}
		check(bad.name)
	}
	// And through the pool, whichever reader it hands out.
	for i := 0; i < 8; i++ {
		if _, err := decompress(CompressionZlib, truncated); err == nil {
			t.Fatal("truncated stream accepted")
		}
		got, err := decompress(CompressionZlib, good)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("valid payload after a failed one: err=%v", err)
		}
	}
}

// The bomb limit is enforced by the read loop, not by a wrapper built per
// call, so it must hold on a reader that has been used before and leave the
// reader usable.
func TestDecompressBombLimitOnReusedReader(t *testing.T) {
	if testing.Short() {
		t.Skip("inflates 64 MiB")
	}
	var bomb bytes.Buffer
	zw, err := zlib.NewWriterLevel(&bomb, zlib.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 1<<20)
	for written := 0; written < maxDecompressed; written += len(zeros) {
		zw.Write(zeros)
	}
	zw.Write([]byte{0}) // one byte over
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	small := freshCompress(t, []byte("before and after"))

	in := new(inflater)
	if _, err := in.decode(CompressionZlib, small); err != nil {
		t.Fatal(err)
	}
	_, err = in.decode(CompressionZlib, bomb.Bytes())
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("%d-byte bomb: err = %v, want the size limit", maxDecompressed+1, err)
	}
	if got, err := in.decode(CompressionZlib, small); err != nil || string(got) != "before and after" {
		t.Fatalf("reader unusable after the bomb: %q, %v", got, err)
	}
}

// The hammer, for -race: pooled codecs handed between goroutines must
// never share state. Every result is compared with the unpooled reference.
func TestCodecPoolHammer(t *testing.T) {
	const workers, rounds = 8, 60
	type sample struct{ data, compressed []byte }
	samples := make([]sample, 12)
	for i := range samples {
		data := codecPayload(uint64(i), []int{0, 1, 96, 700, 4 << 10, 40 << 10}[i%6])
		samples[i] = sample{data, freshCompress(t, data)}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 1))
			for i := 0; i < rounds; i++ {
				s := samples[rng.Uint64N(uint64(len(samples)))]
				if rng.Uint64N(2) == 0 {
					got, err := Compress(CompressionZlib, s.data)
					if err != nil || !bytes.Equal(got, s.compressed) {
						t.Errorf("Compress of %d bytes under contention: err=%v, matches reference: %v", len(s.data), err, bytes.Equal(got, s.compressed))
						return
					}
				} else {
					got, err := decompress(CompressionZlib, s.compressed)
					if err != nil || !bytes.Equal(got, s.data) {
						t.Errorf("Decompress to %d bytes under contention: err=%v, matches reference: %v", len(s.data), err, bytes.Equal(got, s.data))
						return
					}
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
}

// Opened points must not depend on the inflater's buffer either: Open
// parses straight out of it.
func TestOpenResultSurvivesNextOpen(t *testing.T) {
	// Long and regular enough to be stored deflated.
	a, b := make([]Point, 40), make([]Point, 40)
	for i := range a {
		a[i] = Point{TS: int64(i), Val: 10}
		b[i] = Point{TS: 100 + int64(i), Val: -3}
	}
	sa, err := SealPlain(DefaultSpec(), CompressionZlib, 0, 0, 100, a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := SealPlain(DefaultSpec(), CompressionZlib, 1, 100, 200, b)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Compression != CompressionZlib || sb.Compression != CompressionZlib {
		t.Fatalf("chunks stored as %v and %v: the test needs the inflater", sa.Compression, sb.Compression)
	}
	gotA, err := OpenPlain(sa)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPlain(sb); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if gotA[i] != a[i] {
			t.Fatalf("point %d of the first chunk changed to %v after opening the second", i, gotA[i])
		}
	}
}
