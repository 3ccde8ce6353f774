package emu

import (
	"testing"

	"repro/internal/simtest"
)

func TestMemoryRoundTrip(t *testing.T) {
	m := NewMemory()
	// Scatter writes across several pages, including page-straddling sizes.
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < 2000; i++ {
		addr := next() % (1 << 20)
		m.Write(addr, uint8(1<<(next()%4)), next())
	}
	m.LoadSegment(0x200000, []byte{1, 2, 3, 4, 5})

	fresh := NewMemory()
	fresh.LoadSegment(0x900000, []byte{9}) // replaced by the copy
	fresh.CopyFrom(m)
	simtest.RequireDeepEqual(t, "memory pages", m.pages, fresh.pages)

	// Stores into the copy must not show through the source.
	before := m.Read(0x200000, 8)
	fresh.Write(0x200000, 8, ^before)
	if got := m.Read(0x200000, 8); got != before {
		t.Fatalf("store into the copy changed the source: %#x, want %#x", got, before)
	}
}
