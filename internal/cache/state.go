package cache

import "repro/internal/brstate"

// brstate.Saver/Loader implementations for the hierarchy. Geometry (set
// count, ways, ports, stream count) is construction-derived and only
// length-checked; mutable state — line arrays, port/bank reservations, MSHR
// completions, prefetcher streams, per-level counters — is serialized.
// Reservation fields hold absolute cycles, which stay valid across a
// save/restore because a restored simulation continues from the saved clock
// rather than restarting at cycle zero.

// StateVersion values for the cache-package section envelopes.
const (
	CacheStateVersion      = 1
	TLBStateVersion        = 1
	PrefetcherStateVersion = 1
)

// SaveState implements brstate.Saver.
func (c *Cache) SaveState(w *brstate.Writer) {
	w.Len(len(c.sets))
	for _, set := range c.sets {
		w.Len(len(set))
		for _, l := range set {
			w.U64(l.tag)
			w.Bool(l.valid)
			w.Bool(l.dirty)
			w.U64(l.ready)
			w.U64(l.lru)
		}
	}
	w.U64(c.lruClock)
	w.Len(len(c.ports))
	for _, p := range c.ports {
		w.U64(p)
	}
	w.Len(len(c.outstanding))
	for _, d := range c.outstanding {
		w.U64(d)
	}
	c.C.SaveState(w)
}

// LoadState implements brstate.Loader.
func (c *Cache) LoadState(r *brstate.Reader) error {
	if !r.Len(len(c.sets)) {
		return r.Err()
	}
	for _, set := range c.sets {
		if !r.Len(len(set)) {
			return r.Err()
		}
		for i := range set {
			set[i].tag = r.U64()
			set[i].valid = r.Bool()
			set[i].dirty = r.Bool()
			set[i].ready = r.U64()
			set[i].lru = r.U64()
		}
	}
	c.lruClock = r.U64()
	if r.Len(len(c.ports)) {
		for i := range c.ports {
			c.ports[i] = r.U64()
		}
	}
	n := r.LenAny()
	c.outstanding = c.outstanding[:0]
	for i := 0; i < n && r.Err() == nil; i++ {
		c.outstanding = append(c.outstanding, r.U64())
	}
	if r.Err() != nil {
		return r.Err()
	}
	return c.C.LoadState(r)
}

// Prefetcher returns the attached stream prefetcher, if any (snapshot
// composition saves it as its own section).
func (c *Cache) Prefetcher() *StreamPrefetcher { return c.pf }

// SaveState implements brstate.Saver.
func (p *StreamPrefetcher) SaveState(w *brstate.Writer) {
	w.Len(len(p.streams))
	for _, s := range p.streams {
		w.U64(s.lastLine)
		w.I64(s.dir)
		w.Int(s.conf)
		w.Bool(s.valid)
		w.U64(s.lru)
	}
	w.U64(p.clock)
	p.C.SaveState(w)
}

// LoadState implements brstate.Loader.
func (p *StreamPrefetcher) LoadState(r *brstate.Reader) error {
	if r.Len(len(p.streams)) {
		for i := range p.streams {
			s := &p.streams[i]
			s.lastLine = r.U64()
			s.dir = r.I64()
			s.conf = r.Int()
			s.valid = r.Bool()
			s.lru = r.U64()
		}
	}
	p.clock = r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	return p.C.LoadState(r)
}

// SaveState implements brstate.Saver.
func (t *TLB) SaveState(w *brstate.Writer) {
	w.Len(len(t.sets))
	for _, set := range t.sets {
		w.Len(len(set))
		for _, e := range set {
			w.U64(e.vpn)
			w.Bool(e.valid)
			w.U64(e.lru)
			w.U64(e.ready)
		}
	}
	w.U64(t.clock)
	t.C.SaveState(w)
}

// LoadState implements brstate.Loader.
func (t *TLB) LoadState(r *brstate.Reader) error {
	if !r.Len(len(t.sets)) {
		return r.Err()
	}
	for _, set := range t.sets {
		if !r.Len(len(set)) {
			return r.Err()
		}
		for i := range set {
			set[i].vpn = r.U64()
			set[i].valid = r.Bool()
			set[i].lru = r.U64()
			set[i].ready = r.U64()
		}
	}
	t.clock = r.U64()
	return t.C.LoadState(r)
}
