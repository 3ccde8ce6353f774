package cache

// CopyFrom methods fork a warmed hierarchy level into an identically-built
// one. Geometry and wiring are construction-derived and stay the receiver's;
// line arrays, port and MSHR reservations, prefetcher streams and counters
// are copied. Reservation fields hold absolute cycles, which stay valid
// because the fork continues from the source's clock.

// CopyFrom copies src's lines, reservations, counters and, when one is
// attached, its prefetcher's state into c.
func (c *Cache) CopyFrom(src *Cache) {
	for i := range c.sets {
		copy(c.sets[i], src.sets[i])
	}
	c.lruClock = src.lruClock
	copy(c.ports, src.ports)
	c.outstanding = append(c.outstanding[:0], src.outstanding...)
	if c.pf != nil {
		c.pf.CopyFrom(src.pf)
	}
	c.C.CopyFrom(src.C)
}

// CopyFrom copies src's stream trackers and counters into p.
func (p *StreamPrefetcher) CopyFrom(src *StreamPrefetcher) {
	copy(p.streams, src.streams)
	p.clock = src.clock
	p.C.CopyFrom(src.C)
}

// CopyFrom copies src's entries and counters into t.
func (t *TLB) CopyFrom(src *TLB) {
	for i := range t.sets {
		copy(t.sets[i], src.sets[i])
	}
	t.clock = src.clock
	t.C.CopyFrom(src.C)
}
