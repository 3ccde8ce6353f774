package core

// The out-of-order scheduler is event-driven: nothing in it scans the ROB or
// the reservation stations per cycle.
//
//   - Every in-flight micro-op lives in a slot of one uopRing, allocated at
//     fetch and freed at retire (the head) or squash (the tail).
//   - Rename links a consumer to each producer that is not yet done with a
//     wakeup edge and counts those sources in DynUop.pending.
//   - A producer's completion walks its edges and decrements each consumer's
//     count; a consumer whose count reaches zero joins the readyList, which
//     issue walks oldest first.
//   - Issue pushes the micro-op onto the doneQueue, and complete pops only
//     what finishes at the current cycle.
//
// A recovery prunes the ready list, the completion queue and every surviving
// producer's edge list of the squashed micro-ops before their slots can be
// reused.

// maxEdges bounds one micro-op's wakeup edges: the (at most three) register
// sources the decode cache records, plus a load's forwarding store.
const maxEdges = 4

// edge names one wakeup edge: consumer slot*maxEdges + source index + 1.
// Zero means no edge, so a zeroed DynUop has empty lists.
type edge uint32

// uopRing holds every in-flight micro-op in fetch order: fetch allocates at
// the tail, retire frees the head and a recovery cuts off everything younger
// than its branch. Ring order is therefore Seq order. Every in-flight
// micro-op sits in the fetch queue or the ROB, so ROBSize+FetchQSize slots
// always suffice.
//
// A slot is reused by the next allocation after it is freed, so a pointer to
// a retired or squashed micro-op is only good until the next fetch. Pointers
// that can outlive their slot are pruned at recovery (wakeup edges, the ready
// list, the completion queue, the rename table), cleared at retire (the
// rename table) or checked by Seq (a load's forwarding store).
//
// br runs parallel to buf: a conditional branch's recovery checkpoints live
// in br[d.Slot], written by fetch and released at retire or squash.
type uopRing struct {
	buf  []DynUop
	br   []brEntry
	head int // index of the oldest micro-op
	n    int // live micro-ops
}

func newUopRing(size int) uopRing {
	return uopRing{buf: make([]DynUop, size), br: make([]brEntry, size)}
}

// alloc hands out the zeroed slot after the youngest micro-op.
func (r *uopRing) alloc() *DynUop {
	if r.n == len(r.buf) {
		panic("core: micro-op ring overflow")
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	d := &r.buf[i]
	*d = DynUop{Slot: uint32(i)}
	r.n++
	return d
}

// popHead frees the oldest slot once d, which occupies it, has retired.
func (r *uopRing) popHead(d *DynUop) {
	if r.n == 0 || int(d.Slot) != r.head {
		panic("core: micro-op ring out of sync at retire")
	}
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
}

// age returns d's position in the ring, 0 for the oldest micro-op.
func (r *uopRing) age(d *DynUop) int {
	return (int(d.Slot) - r.head + len(r.buf)) % len(r.buf)
}

// at returns the micro-op at position i, 0 being the oldest.
func (r *uopRing) at(i int) *DynUop {
	i += r.head
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}

// truncateAfter frees every slot younger than d.
func (r *uopRing) truncateAfter(d *DynUop) {
	r.n = r.age(d) + 1
}

// consumer returns the micro-op an edge belongs to and the edge's source
// index in it.
func (r *uopRing) consumer(e edge) (*DynUop, int) {
	i := int(e - 1)
	return &r.buf[i/maxEdges], i % maxEdges
}

// addWaiter makes d wait for p: it pushes a new edge of d's onto the front of
// p's list, so each list stays youngest consumer first.
func addWaiter(p, d *DynUop) {
	k := d.pending
	d.waitNext[k] = p.waiters
	p.waiters = edge(d.Slot*maxEdges + uint32(k) + 1)
	d.pending++
}

// wake releases every consumer waiting on p, which has just completed.
func (c *Core) wake(p *DynUop) {
	for e := p.waiters; e != 0; {
		w, k := c.uops.consumer(e)
		e = w.waitNext[k]
		w.pending--
		if w.pending == 0 {
			c.ready.insert(w)
		}
	}
	p.waiters = 0
}

// pruneWaiters drops the edges of consumers younger than seq from p's list.
// The list is youngest first, so they form its prefix. The squashed
// consumers' slots were freed by the same recovery but nothing has been
// fetched since, so they still hold their Seq.
func (c *Core) pruneWaiters(p *DynUop, seq uint64) {
	for p.waiters != 0 {
		w, k := c.uops.consumer(p.waiters)
		if w.Seq <= seq {
			return
		}
		p.waiters = w.waitNext[k]
	}
}

// readyList holds the dispatched micro-ops whose sources are all done, in
// strictly ascending Seq order; issue picks from its front. Its capacity is
// RSSize, the bound on waiting micro-ops.
type readyList []*DynUop

// insert adds d at its Seq position. Rename adds the youngest micro-op in
// flight, so the common case is an append.
func (l *readyList) insert(d *DynUop) {
	s := *l
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m].Seq < d.Seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	s = s[:len(s)+1]
	copy(s[lo+1:], s[lo:])
	s[lo] = d
	*l = s
}

// truncateAfter drops every micro-op younger than seq, a suffix.
func (l *readyList) truncateAfter(seq uint64) {
	s := *l
	n := len(s)
	for n > 0 && s[n-1].Seq > seq {
		n--
	}
	*l = s[:n]
}

// doneEntry is one issued micro-op in the completion queue, keyed by when
// its result is available and then by age.
type doneEntry struct {
	at, seq uint64
	d       *DynUop
}

func (e doneEntry) less(o doneEntry) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// doneQueue is a binary min-heap of the issued micro-ops. Every issued
// micro-op is in the ROB, so its capacity is ROBSize.
type doneQueue []doneEntry

func (q *doneQueue) push(e doneEntry) {
	h := (*q)[:len(*q)+1]
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	*q = h
}

// pop removes and returns the earliest entry.
func (q *doneQueue) pop() doneEntry {
	h := *q
	top := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	if len(h) > 0 {
		h.siftDown(0, last)
	}
	*q = h
	return top
}

// siftDown places e at index i or below, restoring the heap order.
func (q doneQueue) siftDown(i int, e doneEntry) {
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if r := c + 1; r < len(q) && q[r].less(q[c]) {
			c = r
		}
		if !q[c].less(e) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = e
}

// truncateAfter drops every entry younger than seq and rebuilds the heap.
func (q *doneQueue) truncateAfter(seq uint64) {
	h := (*q)[:0]
	for _, e := range *q {
		if e.seq <= seq {
			h = h[:len(h)+1]
			h[len(h)-1] = e
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i, h[i])
	}
	*q = h
}
