// Package brstate is the simulator's on-disk serialization layer: a
// deterministic little-endian binary codec with an explicit format version,
// used for run-cache entries and .btr branch traces. There is no reflection
// on the save/load path — each format enumerates its own fields — so the
// codec stays byte-stable enough to content-address (identical values always
// encode to identical bytes; maps are emitted in sorted key order by their
// owners).
//
// Layout. A blob is an envelope (magic, format version) followed by named
// sections. Each section carries its own payload version and a length
// prefix, so a reader can verify it consumed exactly the payload:
//
//	"BRST" | u32 format | sections... | "TSRB"
//	section: string name | u32 version | u64 length | payload
//
// Versioning policy: FormatVersion covers the envelope and primitive
// encodings; each format bumps its own section version when its payload
// layout changes. A loader rejects mismatched versions rather than guessing
// (cache entries are cheap to regenerate; silent misdecoding is not).
package brstate

import (
	"encoding/binary"
	"fmt"
	"math"
)

// FormatVersion is the envelope/primitive-encoding version. Bump it when the
// codec itself (not a section payload) changes incompatibly.
const FormatVersion = 1

const (
	magicOpen  = "BRST"
	magicClose = "TSRB"
)

// Writer serializes primitives into a growing buffer. Write methods never
// fail; the buffer is handed off with Bytes.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty Writer with the envelope header written.
func NewWriter() *Writer {
	w := &Writer{buf: make([]byte, 0, 1<<16)}
	w.buf = append(w.buf, magicOpen...)
	w.U32(FormatVersion)
	return w
}

// Bytes terminates the envelope and returns the encoded blob. The
// Writer must not be used afterwards.
func (w *Writer) Bytes() []byte {
	w.buf = append(w.buf, magicClose...)
	return w.buf
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool writes a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 writes a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 writes a float64 by bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes64 writes a length-prefixed byte slice.
func (w *Writer) Bytes64(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Len writes a slice/map length (read back with LenAny or LenBounded).
func (w *Writer) Len(n int) { w.U64(uint64(n)) }

// Section writes one named, versioned, length-prefixed section whose payload
// is produced by fn.
func (w *Writer) Section(name string, version uint32, fn func(*Writer)) {
	w.String(name)
	w.U32(version)
	lenAt := len(w.buf)
	w.U64(0) // patched below
	start := len(w.buf)
	fn(w)
	binary.LittleEndian.PutUint64(w.buf[lenAt:], uint64(len(w.buf)-start))
}

// Reader decodes a blob produced by a Writer. Errors are sticky: after
// the first failure every read returns zero values and Err reports the
// failure, so loaders can decode unconditionally and check once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader validates the envelope header and returns a Reader positioned at
// the first section.
func NewReader(b []byte) (*Reader, error) {
	r := &Reader{buf: b}
	if len(b) < len(magicOpen)+4+len(magicClose) {
		return nil, fmt.Errorf("brstate: snapshot truncated (%d bytes)", len(b))
	}
	if string(b[:len(magicOpen)]) != magicOpen {
		return nil, fmt.Errorf("brstate: bad magic %q", b[:len(magicOpen)])
	}
	if string(b[len(b)-len(magicClose):]) != magicClose {
		return nil, fmt.Errorf("brstate: missing trailer (snapshot truncated?)")
	}
	r.off = len(magicOpen)
	r.buf = b[:len(b)-len(magicClose)]
	if v := r.U32(); v != FormatVersion {
		return nil, fmt.Errorf("brstate: format version %d, this build reads %d", v, FormatVersion)
	}
	return r, nil
}

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports the payload bytes not yet consumed. Decoders of
// complete, content-addressed blobs (run-cache entries, traces) check it is
// zero after the last section so trailing garbage cannot hide inside bytes
// that still fingerprint differently.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("brstate: "+format, args...)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	// n < 0 happens when a corrupt 64-bit length overflowed int; comparing
	// against len-off (instead of off+n) also avoids wrapping for huge n.
	if n < 0 || n > len(r.buf)-r.off {
		r.fail("read of %d bytes past end (off %d, len %d)", n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes64 reads a length-prefixed byte slice (copied out of the buffer).
func (r *Reader) Bytes64() []byte {
	n := r.U64()
	b := r.take(int(n))
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.U64()
	b := r.take(int(n))
	return string(b)
}

// LenAny reads a length with no expectation (for owner-sized collections
// such as maps and slices). Every element of a serialized collection
// occupies at least one payload byte, so a length exceeding the bytes left
// in the buffer can only come from corrupt input; it fails the Reader
// instead of flowing into a huge allocation downstream.
func (r *Reader) LenAny() int { return r.LenBounded(1) }

// LenBounded reads an owner-sized length whose elements each occupy at
// least elemMinBytes of payload. Decoders that pre-size maps or slices from
// untrusted blobs use it so a corrupt length surfaces as a sticky error
// here, bounded by the actual buffer size, never as an out-of-memory
// allocation.
func (r *Reader) LenBounded(elemMinBytes int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if elemMinBytes < 1 {
		elemMinBytes = 1
	}
	if rem := uint64(len(r.buf) - r.off); n > rem/uint64(elemMinBytes) {
		r.fail("length %d exceeds the %d remaining payload bytes (>= %d bytes/element)",
			n, rem, elemMinBytes)
		return 0
	}
	return int(n)
}

// Section decodes one named section, checking name and version, and verifies
// fn consumed exactly the payload.
func (r *Reader) Section(name string, version uint32, fn func(*Reader)) {
	got := r.String()
	if r.err == nil && got != name {
		r.fail("section %q, want %q (snapshot/loader order mismatch)", got, name)
	}
	v := r.U32()
	if r.err == nil && v != version {
		r.fail("section %q version %d, this build reads %d", name, v, version)
	}
	n := r.U64()
	start := r.off
	if r.err != nil {
		return
	}
	fn(r)
	if r.err == nil && uint64(r.off-start) != n {
		r.fail("section %q: consumed %d of %d payload bytes", name, r.off-start, n)
	}
}
