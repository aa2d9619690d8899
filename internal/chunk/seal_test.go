package chunk

import (
	"testing"

	"repro/internal/core"
)

func newTestEncryptor(t *testing.T) (*core.Tree, *core.Encryptor) {
	t.Helper()
	tree, err := core.NewTree(core.NewPRG(core.PRGAES), 16, core.Node{1})
	if err != nil {
		t.Fatal(err)
	}
	return tree, core.NewEncryptor(tree.NewWalker())
}

func TestSealOpenRoundTrip(t *testing.T) {
	tree, enc := newTestEncryptor(t)
	spec := DefaultSpec()
	pts := []Point{{TS: 100, Val: 60}, {TS: 120, Val: 75}, {TS: 140, Val: 62}}
	sealed, err := Seal(enc, spec, CompressionZlib, 0, 100, 200, pts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(tree.NewWalker(), sealed)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("got %d points, want %d", len(got), len(pts))
	}
	for i := range pts {
		if got[i] != pts[i] {
			t.Errorf("point %d mismatch", i)
		}
	}
}

func TestSealedDigestDecrypts(t *testing.T) {
	tree, enc := newTestEncryptor(t)
	spec := DigestSpec{Sum: true, Count: true}
	pts := []Point{{TS: 100, Val: 10}, {TS: 150, Val: 32}}
	sealed, err := Seal(enc, spec, CompressionNone, 0, 100, 200, pts)
	if err != nil {
		t.Fatal(err)
	}
	dec := core.NewEncryptor(tree.NewWalker())
	vec, err := dec.DecryptRange(0, 1, sealed.Digest, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.Interpret(vec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sum != 42 || r.Count != 2 {
		t.Errorf("sum=%d count=%d, want 42, 2", r.Sum, r.Count)
	}
}

func TestSealValidation(t *testing.T) {
	_, enc := newTestEncryptor(t)
	if _, err := Seal(enc, DefaultSpec(), CompressionNone, 0, 200, 100, nil); err == nil {
		t.Error("reversed interval accepted")
	}
	if _, err := Seal(enc, DefaultSpec(), CompressionNone, 0, 100, 200,
		[]Point{{TS: 150, Val: 1}, {TS: 120, Val: 2}}); err == nil {
		t.Error("out-of-order points accepted")
	}
}

func TestOpenRejectsTamper(t *testing.T) {
	tree, enc := newTestEncryptor(t)
	sealed, err := Seal(enc, SumOnlySpec(), CompressionNone, 0, 0, 100, []Point{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	w := tree.NewWalker()
	// Flip a payload byte.
	sealed.Payload[len(sealed.Payload)-1] ^= 1
	if _, err := Open(w, sealed); err == nil {
		t.Error("tampered payload accepted")
	}
	sealed.Payload[len(sealed.Payload)-1] ^= 1
	// Transplant to a different chunk position: key and AAD both change.
	sealed.Index = 3
	if _, err := Open(w, sealed); err == nil {
		t.Error("transplanted chunk accepted")
	}
	sealed.Index = 0
	// Tamper with the claimed time interval (AAD covers it).
	sealed.Start += 5
	if _, err := Open(w, sealed); err == nil {
		t.Error("interval-modified chunk accepted")
	}
}

func TestOpenRequiresBothLeaves(t *testing.T) {
	tree, enc := newTestEncryptor(t)
	sealed, err := Seal(enc, SumOnlySpec(), CompressionNone, 5, 500, 600, []Point{{501, 9}})
	if err != nil {
		t.Fatal(err)
	}
	// Key set covering only leaf 5 (not 6) cannot open chunk 5.
	tokens, _ := tree.Cover(5, 5)
	ks, err := core.NewKeySet(core.NewPRG(core.PRGAES), 16, tokens)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ks.NewWalker(), sealed); err == nil {
		t.Error("chunk opened without leaf i+1")
	}
	// Covering 5..6 suffices.
	tokens, _ = tree.Cover(5, 6)
	ks, err = core.NewKeySet(core.NewPRG(core.PRGAES), 16, tokens)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ks.NewWalker(), sealed); err != nil {
		t.Errorf("chunk failed to open with both leaves: %v", err)
	}
}

func TestOpenDigestOnlyChunkFails(t *testing.T) {
	tree, enc := newTestEncryptor(t)
	sealed, err := Seal(enc, SumOnlySpec(), CompressionNone, 0, 0, 100, []Point{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	sealed.Payload = nil // DeleteRange keeps digests, drops payloads
	if _, err := Open(tree.NewWalker(), sealed); err == nil {
		t.Error("digest-only chunk opened")
	}
}

func TestMarshalSealedRoundTrip(t *testing.T) {
	_, enc := newTestEncryptor(t)
	sealed, err := Seal(enc, DefaultSpec(), CompressionZlib, 7, 700, 800,
		[]Point{{TS: 710, Val: -3}, {TS: 790, Val: 250}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalSealed(MarshalSealed(sealed))
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != sealed.Index || got.Start != sealed.Start || got.End != sealed.End ||
		got.Compression != sealed.Compression || got.CodecBound != sealed.CodecBound || got.Plain != sealed.Plain {
		t.Error("header mismatch after round trip")
	}
	if len(got.Digest) != len(sealed.Digest) {
		t.Fatal("digest length mismatch")
	}
	for i := range got.Digest {
		if got.Digest[i] != sealed.Digest[i] {
			t.Fatal("digest mismatch")
		}
	}
	if string(got.Payload) != string(sealed.Payload) {
		t.Error("payload mismatch")
	}
}

func TestUnmarshalSealedRejectsGarbage(t *testing.T) {
	_, enc := newTestEncryptor(t)
	sealed, _ := Seal(enc, SumOnlySpec(), CompressionNone, 0, 0, 100, []Point{{1, 2}})
	good := MarshalSealed(sealed)
	for _, data := range [][]byte{
		{},
		good[:3],
		good[:len(good)-2],
		append(append([]byte{}, good...), 1, 2, 3),
	} {
		if _, err := UnmarshalSealed(data); err == nil {
			t.Errorf("garbage of %d bytes accepted", len(data))
		}
	}
}
