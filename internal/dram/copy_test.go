package dram

import (
	"reflect"
	"testing"

	"repro/internal/simtest"
)

func TestDRAMRoundTrip(t *testing.T) {
	d := New(DefaultConfig())
	rng := uint64(0x2545f4914f6cdd1d)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	now := uint64(100)
	for i := 0; i < 3000; i++ {
		now += next() % 7
		d.Access(now, next()%(1<<30), next()%4 == 0)
	}

	fresh := New(DefaultConfig())
	fresh.CopyFrom(d)
	// Driving another copy must leave the source untouched.
	scratch := New(DefaultConfig())
	scratch.CopyFrom(d)
	for i := 0; i < 200; i++ {
		scratch.Access(now+uint64(i), next()%(1<<30), true)
	}
	if !reflect.DeepEqual(d.chs, fresh.chs) {
		t.Fatal("copied channel/bank state differs")
	}
	simtest.RequireDeepEqual(t, "dram counters", d.C.Snapshot(), fresh.C.Snapshot())

	// The copy must schedule identically from here on.
	for i := 0; i < 200; i++ {
		now += next() % 7
		addr := next() % (1 << 30)
		write := next()%4 == 0
		if a, b := d.Access(now, addr, write), fresh.Access(now, addr, write); a != b {
			t.Fatalf("post-copy divergence: access %d done at %d vs %d", i, a, b)
		}
	}
}
