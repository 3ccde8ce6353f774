package brstate

import (
	"strings"
	"testing"
)

// TestRoundTripPrimitives writes one of everything and reads it back.
func TestRoundTripPrimitives(t *testing.T) {
	w := NewWriter()
	w.U8(0xab)
	w.Bool(true)
	w.Bool(false)
	w.U32(0xdeadbeef)
	w.U64(0x0123456789abcdef)
	w.I64(-42)
	w.F64(3.5)
	w.Bytes64([]byte{1, 2, 3})
	w.String("hello")

	r, err := NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.U8(); got != 0xab {
		t.Errorf("U8 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 0x0123456789abcdef {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.F64(); got != 3.5 {
		t.Errorf("F64 = %v", got)
	}
	if b := r.Bytes64(); len(b) != 3 || b[0] != 1 || b[2] != 3 {
		t.Errorf("Bytes64 = %v", b)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if r.Err() != nil {
		t.Fatalf("reader error: %v", r.Err())
	}
}

// TestDeterministicEncoding: identical writes produce identical bytes.
func TestDeterministicEncoding(t *testing.T) {
	enc := func() []byte {
		w := NewWriter()
		w.Section("comp", 3, func(w *Writer) {
			w.U64(99)
			w.String("x")
		})
		return w.Bytes()
	}
	a, b := enc(), enc()
	if string(a) != string(b) {
		t.Fatal("identical writes produced different bytes")
	}
}

// TestSectionRoundTrip checks the name/version/length discipline.
func TestSectionRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Section("alpha", 1, func(w *Writer) { w.U64(7) })
	w.Section("beta", 2, func(w *Writer) { w.String("payload") })

	r, err := NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r.Section("alpha", 1, func(r *Reader) {
		if got := r.U64(); got != 7 {
			t.Errorf("alpha payload = %d", got)
		}
	})
	r.Section("beta", 2, func(r *Reader) {
		if got := r.String(); got != "payload" {
			t.Errorf("beta payload = %q", got)
		}
	})
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

// TestSectionMismatches: wrong name, wrong version, and short consumption
// must all surface as errors.
func TestSectionMismatches(t *testing.T) {
	build := func() []byte {
		w := NewWriter()
		w.Section("alpha", 1, func(w *Writer) { w.U64(7) })
		return w.Bytes()
	}
	cases := []struct {
		name string
		read func(r *Reader)
		want string
	}{
		{"wrong-name", func(r *Reader) { r.Section("beta", 1, func(*Reader) {}) }, "want"},
		{"wrong-version", func(r *Reader) { r.Section("alpha", 2, func(*Reader) {}) }, "version"},
		{"short-read", func(r *Reader) { r.Section("alpha", 1, func(*Reader) {}) }, "consumed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewReader(build())
			if err != nil {
				t.Fatal(err)
			}
			tc.read(r)
			if r.Err() == nil || !strings.Contains(r.Err().Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", r.Err(), tc.want)
			}
		})
	}
}

// TestEnvelopeRejection: corrupted envelopes fail at NewReader.
func TestEnvelopeRejection(t *testing.T) {
	good := NewWriter().Bytes()
	cases := map[string][]byte{
		"truncated":   good[:3],
		"bad-magic":   append([]byte("XXXX"), good[4:]...),
		"no-trailer":  good[:len(good)-1],
		"bad-version": func() []byte { b := append([]byte{}, good...); b[4] = 0xff; return b }(),
	}
	for name, b := range cases {
		if _, err := NewReader(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestStickyError: after an out-of-bounds read, subsequent reads return
// zero values and the first error is preserved.
func TestStickyError(t *testing.T) {
	w := NewWriter()
	w.U8(1)
	r, err := NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r.U8()
	r.U64() // past end
	first := r.Err()
	if first == nil {
		t.Fatal("no error after overread")
	}
	if got := r.U64(); got != 0 {
		t.Errorf("post-error read = %d, want 0", got)
	}
	if r.Err() != first {
		t.Error("error was not sticky")
	}
}
