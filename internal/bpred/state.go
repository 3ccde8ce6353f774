package bpred

import (
	"repro/internal/brstate"
	"repro/internal/isa"
)

// This file implements brstate.Saver/Loader for every predictor. Only
// mutable state is serialized: table geometry, history lengths and fold
// parameters are reconstructed from configuration by the constructors, and
// the loaders verify sizes against the snapshot so a snapshot from a
// differently-configured predictor is rejected instead of misdecoded.
// Checkpoint pools (scratch reused across fetches) are deliberately not
// part of a snapshot: at a drained snapshot point no in-flight branch
// exists, so the pool contents are semantically empty.

// StateVersion values for the predictor section envelopes.
const (
	BimodalStateVersion      = 1
	GshareStateVersion       = 1
	CounterTableStateVersion = 1
	TAGESCLStateVersion      = 1
	PerceptronStateVersion   = 1
	TournamentStateVersion   = 1
	LDBPStateVersion         = 1
	BullseyeStateVersion     = 1
)

// SaveState implements brstate.Saver.
func (b *Bimodal) SaveState(w *brstate.Writer) {
	w.Len(len(b.table))
	for _, c := range b.table {
		w.U8(uint8(c))
	}
}

// LoadState implements brstate.Loader.
func (b *Bimodal) LoadState(r *brstate.Reader) error {
	if r.Len(len(b.table)) {
		for i := range b.table {
			b.table[i] = ctr2(r.U8())
		}
	}
	return r.Err()
}

// SaveState implements brstate.Saver.
func (g *Gshare) SaveState(w *brstate.Writer) {
	w.Len(len(g.table))
	for _, c := range g.table {
		w.U8(uint8(c))
	}
	w.U64(g.hist)
}

// LoadState implements brstate.Loader.
func (g *Gshare) LoadState(r *brstate.Reader) error {
	if r.Len(len(g.table)) {
		for i := range g.table {
			g.table[i] = ctr2(r.U8())
		}
		g.hist = r.U64()
	}
	return r.Err()
}

// SaveState implements brstate.Saver.
func (c *CounterTable) SaveState(w *brstate.Writer) {
	w.Len(len(c.table))
	for _, v := range c.table {
		w.I8(v)
	}
}

// LoadState implements brstate.Loader.
func (c *CounterTable) LoadState(r *brstate.Reader) error {
	if r.Len(len(c.table)) {
		for i := range c.table {
			c.table[i] = r.I8()
		}
	}
	return r.Err()
}

// SaveState implements brstate.Saver.
func (p *Perceptron) SaveState(w *brstate.Writer) {
	w.Len(len(p.weights))
	for _, v := range p.weights {
		w.I8(v)
	}
	w.U64(p.hist)
}

// LoadState implements brstate.Loader.
func (p *Perceptron) LoadState(r *brstate.Reader) error {
	if r.Len(len(p.weights)) {
		for i := range p.weights {
			p.weights[i] = r.I8()
		}
		p.hist = r.U64()
	}
	return r.Err()
}

// SaveState implements brstate.Saver.
func (t *Tournament) SaveState(w *brstate.Writer) {
	w.Len(len(t.localHist))
	for _, v := range t.localHist {
		w.U16(v)
	}
	w.Len(len(t.localPHT))
	for _, v := range t.localPHT {
		w.I8(v)
	}
	w.Len(len(t.globalPHT))
	for _, v := range t.globalPHT {
		w.U8(uint8(v))
	}
	w.Len(len(t.chooser))
	for _, v := range t.chooser {
		w.U8(uint8(v))
	}
	w.U64(t.hist)
}

// LoadState implements brstate.Loader.
func (t *Tournament) LoadState(r *brstate.Reader) error {
	if r.Len(len(t.localHist)) {
		for i := range t.localHist {
			t.localHist[i] = r.U16()
		}
	}
	if r.Len(len(t.localPHT)) {
		for i := range t.localPHT {
			t.localPHT[i] = r.I8()
		}
	}
	if r.Len(len(t.globalPHT)) {
		for i := range t.globalPHT {
			t.globalPHT[i] = ctr2(r.U8())
		}
	}
	if r.Len(len(t.chooser)) {
		for i := range t.chooser {
			t.chooser[i] = ctr2(r.U8())
		}
		t.hist = r.U64()
	}
	return r.Err()
}

// SaveState implements brstate.Saver: LDBP serializes its provenance and
// table state, then delegates to the wrapped base predictor. inflight is
// deliberately excluded: snapshots are only taken at drained barriers
// where every prediction has been released, so it is semantically zero
// (mirroring the pool-exclusion rule above).
func (l *LDBP) SaveState(w *brstate.Writer) {
	w.Len(len(l.rtt))
	for i := range l.rtt {
		w.U64(l.rtt[i].loadPC)
		w.Bool(l.rtt[i].valid)
	}
	w.U64(l.flagsRecipe.loadPC)
	w.U8(uint8(l.flagsRecipe.op))
	w.I64(l.flagsRecipe.imm)
	w.Bool(l.flagsRecipe.valid)
	w.Len(len(l.btt))
	for i := range l.btt {
		e := &l.btt[i]
		w.U64(e.pc)
		w.U64(e.loadPC)
		w.U8(uint8(e.op))
		w.I64(e.imm)
		w.U8(uint8(e.cond))
		w.I8(e.conf)
		w.Bool(e.valid)
	}
	w.Len(len(l.lvt))
	for i := range l.lvt {
		e := &l.lvt[i]
		w.U64(e.pc)
		w.U64(e.lastVal)
		w.U64(e.stride)
		w.I8(e.conf)
		w.Bool(e.valid)
	}
	l.base.SaveState(w)
}

// LoadState implements brstate.Loader.
func (l *LDBP) LoadState(r *brstate.Reader) error {
	if r.Len(len(l.rtt)) {
		for i := range l.rtt {
			l.rtt[i].loadPC = r.U64()
			l.rtt[i].valid = r.Bool()
		}
	}
	l.flagsRecipe.loadPC = r.U64()
	l.flagsRecipe.op = isa.Op(r.U8())
	l.flagsRecipe.imm = r.I64()
	l.flagsRecipe.valid = r.Bool()
	if r.Len(len(l.btt)) {
		for i := range l.btt {
			e := &l.btt[i]
			e.pc = r.U64()
			e.loadPC = r.U64()
			e.op = isa.Op(r.U8())
			e.imm = r.I64()
			e.cond = isa.Cond(r.U8())
			e.conf = r.I8()
			e.valid = r.Bool()
			e.inflight = 0
		}
	}
	if r.Len(len(l.lvt)) {
		for i := range l.lvt {
			e := &l.lvt[i]
			e.pc = r.U64()
			e.lastVal = r.U64()
			e.stride = r.U64()
			e.conf = r.I8()
			e.valid = r.Bool()
		}
	}
	if err := l.base.LoadState(r); err != nil {
		return err
	}
	return r.Err()
}

// SaveState implements brstate.Saver: Bullseye serializes the filter,
// weights, local histories and its own history register, then delegates
// to the wrapped base predictor.
func (b *Bullseye) SaveState(w *brstate.Writer) {
	w.Len(len(b.filter))
	for _, v := range b.filter {
		w.U8(v)
	}
	w.Len(len(b.gw))
	for _, v := range b.gw {
		w.I8(v)
	}
	w.Len(len(b.lw))
	for _, v := range b.lw {
		w.I8(v)
	}
	w.Len(len(b.localHist))
	for _, v := range b.localHist {
		w.U16(v)
	}
	w.U64(b.hist)
	b.base.SaveState(w)
}

// LoadState implements brstate.Loader.
func (b *Bullseye) LoadState(r *brstate.Reader) error {
	if r.Len(len(b.filter)) {
		for i := range b.filter {
			b.filter[i] = r.U8()
		}
	}
	if r.Len(len(b.gw)) {
		for i := range b.gw {
			b.gw[i] = r.I8()
		}
	}
	if r.Len(len(b.lw)) {
		for i := range b.lw {
			b.lw[i] = r.I8()
		}
	}
	if r.Len(len(b.localHist)) {
		for i := range b.localHist {
			b.localHist[i] = r.U16()
		}
		b.hist = r.U64()
	}
	if err := b.base.LoadState(r); err != nil {
		return err
	}
	return r.Err()
}

// saveFoldComps writes only the folded registers' compressed values; the
// fold geometry is construction-derived.
func saveFoldComps(w *brstate.Writer, fs []folded) {
	w.Len(len(fs))
	for i := range fs {
		w.U32(fs[i].comp)
	}
}

func loadFoldComps(r *brstate.Reader, fs []folded) {
	if r.Len(len(fs)) {
		for i := range fs {
			fs[i].comp = r.U32()
		}
	}
}

func (t *tage) saveState(w *brstate.Writer) {
	w.Len(len(t.base))
	for _, c := range t.base {
		w.U8(uint8(c))
	}
	w.Len(len(t.tables))
	for _, tab := range t.tables {
		w.Len(len(tab))
		for _, e := range tab {
			w.U16(e.tag)
			w.I8(e.ctr)
			w.U8(e.u)
		}
	}
	saveFoldComps(w, t.idxF)
	saveFoldComps(w, t.tagF1)
	saveFoldComps(w, t.tagF2)
	saveFoldComps(w, t.extraFolds)
	w.Len(len(t.hist.buf))
	for _, b := range t.hist.buf {
		w.U8(b)
	}
	w.U64(t.hist.head)
	w.U64(t.path)
	w.I8(t.useAltOnNA)
	w.U64(t.tick)
	w.U64(uint64(t.rng))
}

func (t *tage) loadState(r *brstate.Reader) {
	if r.Len(len(t.base)) {
		for i := range t.base {
			t.base[i] = ctr2(r.U8())
		}
	}
	if r.Len(len(t.tables)) {
		for _, tab := range t.tables {
			if !r.Len(len(tab)) {
				return
			}
			for i := range tab {
				tab[i].tag = r.U16()
				tab[i].ctr = r.I8()
				tab[i].u = r.U8()
			}
		}
	}
	loadFoldComps(r, t.idxF)
	loadFoldComps(r, t.tagF1)
	loadFoldComps(r, t.tagF2)
	loadFoldComps(r, t.extraFolds)
	if r.Len(len(t.hist.buf)) {
		for i := range t.hist.buf {
			t.hist.buf[i] = r.U8()
		}
	}
	t.hist.head = r.U64()
	t.path = r.U64()
	t.useAltOnNA = r.I8()
	t.tick = r.U64()
	t.rng = xorshift64(r.U64())
}

func (l *loopPredictor) saveState(w *brstate.Writer) {
	w.Len(len(l.entries))
	for _, e := range l.entries {
		w.U16(e.tag)
		w.U16(e.pastIter)
		w.U16(e.currIter)
		w.U8(e.conf)
		w.U8(e.age)
		w.Bool(e.dir)
		w.Bool(e.valid)
	}
}

func (l *loopPredictor) loadState(r *brstate.Reader) {
	if !r.Len(len(l.entries)) {
		return
	}
	for i := range l.entries {
		e := &l.entries[i]
		e.tag = r.U16()
		e.pastIter = r.U16()
		e.currIter = r.U16()
		e.conf = r.U8()
		e.age = r.U8()
		e.dir = r.Bool()
		e.valid = r.Bool()
	}
}

// SaveState implements brstate.Saver for the TAGE-SC-L family (the 64KB and
// 80KB configurations and MTAGE-SC all share this layout; geometry checks
// at load keep them from cross-restoring).
func (s *TAGESCL) SaveState(w *brstate.Writer) {
	s.t.saveState(w)
	s.loop.saveState(w)
	w.Len(len(s.scBias))
	for _, v := range s.scBias {
		w.I8(v)
	}
	w.Len(len(s.scTables))
	for _, tab := range s.scTables {
		w.Len(len(tab))
		for _, v := range tab {
			w.I8(v)
		}
	}
}

// LoadState implements brstate.Loader.
func (s *TAGESCL) LoadState(r *brstate.Reader) error {
	s.t.loadState(r)
	s.loop.loadState(r)
	if r.Len(len(s.scBias)) {
		for i := range s.scBias {
			s.scBias[i] = r.I8()
		}
	}
	if r.Len(len(s.scTables)) {
		for _, tab := range s.scTables {
			if !r.Len(len(tab)) {
				break
			}
			for i := range tab {
				tab[i] = r.I8()
			}
		}
	}
	return r.Err()
}
