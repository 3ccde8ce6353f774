package dram

// CopyFrom forks a warmed DRAM into an identically-configured one: per-bank
// open rows and reservation cycles, per-channel bus reservation and
// in-flight queue, and the request counters. Reservation fields are absolute
// cycles, valid because the fork continues from the source's clock.
func (d *DRAM) CopyFrom(src *DRAM) {
	for ci := range d.chs {
		ch, sch := &d.chs[ci], &src.chs[ci]
		copy(ch.banks, sch.banks)
		ch.busAt = sch.busAt
		ch.queue = append(ch.queue[:0], sch.queue...)
	}
	d.C.CopyFrom(src.C)
}
