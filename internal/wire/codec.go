// Package wire implements TimeCrypt's client/server protocol: length-
// prefixed frames carrying compact hand-rolled binary messages. It replaces
// the Netty + protobuf stack of the paper's prototype (§5) with a
// stdlib-only equivalent covering the full Table 1 API.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Encoder appends primitive values to a byte buffer. The zero value is
// ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U64 appends a varint-encoded unsigned integer.
func (e *Encoder) U64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// I64 appends a zigzag-varint-encoded signed integer.
func (e *Encoder) I64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Bool appends a boolean.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(v []byte) {
	e.U64(uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(v string) {
	e.U64(uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// Msg appends a sub-message as a fixed 4-byte length prefix followed by
// the message encoded in place, avoiding the intermediate buffer a
// Blob(Marshal(m)) would allocate and copy.
func (e *Encoder) Msg(m Message) {
	e.buf = append(e.buf, 0, 0, 0, 0)
	at := len(e.buf)
	e.U8(uint8(m.Type()))
	m.codec(Codec{e: e})
	binary.BigEndian.PutUint32(e.buf[at-4:at], uint32(len(e.buf)-at))
}

// Vec appends a length-prefixed []uint64 in fixed 8-byte encoding (digest
// vectors are high-entropy ciphertexts; varints would only add overhead).
func (e *Encoder) Vec(v []uint64) {
	e.U64(uint64(len(v)))
	for _, x := range v {
		var tmp [8]byte
		binary.BigEndian.PutUint64(tmp[:], x)
		e.buf = append(e.buf, tmp[:]...)
	}
}

// Decoder consumes primitive values from a byte buffer, latching the first
// error so call sites can decode whole structs before checking once. It
// accepts only the canonical encoding of each value, the one Encoder
// writes, so every accepted value has exactly one byte form.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder wraps data.
func NewDecoder(data []byte) *Decoder { return &Decoder{buf: data} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Done returns an error unless the buffer was fully and cleanly consumed.
func (d *Decoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(d.buf))
	}
	return nil
}

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = errors.New("wire: truncated " + what)
	}
}

// refuse latches a decoding error unless one is latched already.
func (d *Decoder) refuse(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// canonical reports whether the n-byte varint at the head of the buffer
// is one Encoder writes: a multi-byte varint whose last byte is zero is
// overlong, encoding a value that fewer bytes already encode.
func (d *Decoder) canonical(n int) bool { return n == 1 || n > 1 && d.buf[n-1] != 0 }

// badVarint latches the error for a varint binary.Uvarint rejected (n <= 0)
// or that is overlong.
func (d *Decoder) badVarint(n int, what string) {
	if n <= 0 {
		d.fail(what)
	} else {
		d.refuse("wire: overlong %s varint", what)
	}
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 1 {
		d.fail("u8")
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

// U64 reads a varint-encoded unsigned integer.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if !d.canonical(n) {
		d.badVarint(n, "u64")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// I64 reads a zigzag-varint-encoded signed integer.
func (d *Decoder) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if !d.canonical(n) {
		d.badVarint(n, "i64")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Bool reads a boolean, refusing any byte but 0 and 1.
func (d *Decoder) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.refuse("wire: bool byte %d", v)
	}
	return v == 1
}

// Blob reads a length-prefixed byte slice (copied out of the buffer).
func (d *Decoder) Blob() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.fail("blob")
		return nil
	}
	out := make([]byte, n)
	copy(out, d.buf[:n])
	d.buf = d.buf[n:]
	return out
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := d.U64()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)) {
		d.fail("string")
		return ""
	}
	out := string(d.buf[:n])
	d.buf = d.buf[n:]
	return out
}

// Rest consumes and returns all remaining bytes (nil after an error). Used
// to split envelope headers from the message body they carry.
func (d *Decoder) Rest() []byte {
	if d.err != nil {
		return nil
	}
	out := d.buf
	d.buf = nil
	return out
}

// FixedU32 reads a big-endian 4-byte unsigned integer (batch element
// lengths, which are backfilled after in-place encoding).
func (d *Decoder) FixedU32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 4 {
		d.fail("u32")
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

// view consumes n bytes and returns them WITHOUT copying — the slice
// aliases the decode buffer. Callers must not retain it past the buffer's
// lifetime; message codecs copy every field they keep.
func (d *Decoder) view(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.fail("view")
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

// Vec reads a length-prefixed []uint64.
func (d *Decoder) Vec() []uint64 {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf))/8 { // not n*8, which wraps for n >= 2^61
		d.fail("vec")
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.BigEndian.Uint64(d.buf[i*8:])
	}
	d.buf = d.buf[n*8:]
	return out
}

// Codec codes a message's fields in one direction: it wraps the Encoder
// when marshaling and the Decoder when unmarshaling, so each message names
// its fields once, in wire order, in one codec method, and the two
// directions cannot disagree. Decoding latches the first error in the
// Decoder. The checks a decoder makes on a field (count caps, clamps, enum
// ranges, signs) are Codec methods too, so no message repeats them; the
// encoder writes what it is given.
type Codec struct {
	e *Encoder // set when encoding
	d *Decoder // set when decoding
}

// U8 codes one byte.
func (c Codec) U8(p *uint8) {
	if c.d != nil {
		*p = c.d.U8()
	} else {
		c.e.U8(*p)
	}
}

// Bool codes a boolean.
func (c Codec) Bool(p *bool) {
	if c.d != nil {
		*p = c.d.Bool()
	} else {
		c.e.Bool(*p)
	}
}

// U64 codes an unsigned varint.
func (c Codec) U64(p *uint64) {
	if c.d != nil {
		*p = c.d.U64()
	} else {
		c.e.U64(*p)
	}
}

// I64 codes a zigzag varint.
func (c Codec) I64(p *int64) {
	if c.d != nil {
		*p = c.d.I64()
	} else {
		c.e.I64(*p)
	}
}

// Str codes a length-prefixed string.
func (c Codec) Str(p *string) {
	if c.d != nil {
		*p = c.d.Str()
	} else {
		c.e.Str(*p)
	}
}

// Blob codes a length-prefixed byte slice; decoding copies it out of the
// buffer.
func (c Codec) Blob(p *[]byte) {
	if c.d != nil {
		*p = c.d.Blob()
	} else {
		c.e.Blob(*p)
	}
}

// Vec codes a digest vector.
func (c Codec) Vec(p *[]uint64) {
	if c.d != nil {
		*p = c.d.Vec()
	} else {
		c.e.Vec(*p)
	}
}

// U32 codes a uint32 as an unsigned varint; decoding keeps the low 32 bits
// of a wider value.
func (c Codec) U32(p *uint32) {
	if c.d != nil {
		*p = uint32(c.d.U64())
	} else {
		c.e.U64(uint64(*p))
	}
}

// Clamp32 codes a uint32 that a peer may ask too much of (a page size, a
// credit grant): decoding clamps a value above limit to limit.
func (c Codec) Clamp32(p *uint32, limit uint32) {
	if c.d == nil {
		c.e.U64(uint64(*p))
	} else if v := c.d.U64(); v > uint64(limit) {
		*p = limit
	} else {
		*p = uint32(v)
	}
}

// Max32 codes a uint32 that decoding refuses above limit.
func (c Codec) Max32(p *uint32, limit uint32, what string) {
	if c.d == nil {
		c.e.U64(uint64(*p))
	} else if v := c.d.U64(); v > uint64(limit) {
		c.d.refuse("wire: implausible %s %d", what, v)
	} else {
		*p = uint32(v)
	}
}

// Enum codes a byte that decoding refuses outside [lo, hi].
func (c Codec) Enum(p *uint8, lo, hi uint8, what string) {
	c.U8(p)
	if c.d != nil && (*p < lo || *p > hi) {
		c.d.refuse("wire: unknown %s %d", what, *p)
	}
}

// NonNeg codes a signed integer that decoding refuses below zero.
func (c Codec) NonNeg(p *int64, what string) {
	c.I64(p)
	if c.d != nil && *p < 0 {
		c.d.refuse("wire: negative %s %d", what, *p)
	}
}

// maxList bounds the lists that no tighter constant bounds.
const maxList = 1 << 24

// count codes a list length. Decoding refuses a count above limit, and one
// above the bytes left: every element takes at least one byte, so such a
// count cannot be met, and refusing it first keeps a few-byte frame from
// making the decoder allocate for millions of elements.
func (c Codec) count(n int, limit uint64, what string) int {
	if c.d == nil {
		c.e.U64(uint64(n))
		return n
	}
	v := c.d.U64()
	switch {
	case v > limit:
		c.d.refuse("wire: implausible %s count %d", what, v)
	case v > uint64(len(c.d.buf)):
		c.d.refuse("wire: %s count %d exceeds the %d bytes left", what, v, len(c.d.buf))
	default:
		return int(v)
	}
	return 0
}

// list codes a count-prefixed list, coding each element with elem.
func list[T any](c Codec, p *[]T, limit uint64, what string, elem func(*T)) {
	n := c.count(len(*p), limit, what)
	if c.d != nil {
		*p = make([]T, n)
	}
	for i := range *p {
		elem(&(*p)[i])
	}
}

// Strs codes a list of strings of at most limit elements.
func (c Codec) Strs(p *[]string, limit uint64, what string) { list(c, p, limit, what, c.Str) }

// Blobs codes a list of byte slices of at most limit elements.
func (c Codec) Blobs(p *[][]byte, limit uint64, what string) { list(c, p, limit, what, c.Blob) }

// Vecs codes a list of per-window digest vectors.
func (c Codec) Vecs(p *[][]uint64) { list(c, p, maxList, "window", c.Vec) }

// Elems codes a digest element projection: at most MaxAggElems indices,
// each refused if it does not fit a uint32.
func (c Codec) Elems(p *[]uint32) {
	list(c, p, MaxAggElems, "element", func(x *uint32) { c.Max32(x, 1<<32-1, "digest element index") })
}
