package bpred

// CopyFrom methods fork a warmed predictor: each copies src's mutable state
// into an identically-configured receiver built by the same constructor, so
// table geometry, history lengths and fold parameters already match.
// Checkpoint and info pools are not copied: at the drained point a fork is
// taken from, no in-flight branch exists, so the pools hold nothing live.

// CopyFrom copies src's counters into b.
func (b *Bimodal) CopyFrom(src *Bimodal) { copy(b.table, src.table) }

// CopyFrom copies src's counters and history into g.
func (g *Gshare) CopyFrom(src *Gshare) {
	copy(g.table, src.table)
	g.hist = src.hist
}

// CopyFrom copies src's weights and history into p.
func (p *Perceptron) CopyFrom(src *Perceptron) {
	copy(p.weights, src.weights)
	p.hist = src.hist
}

// CopyFrom copies src's tables and history into t.
func (t *Tournament) CopyFrom(src *Tournament) {
	copy(t.localHist, src.localHist)
	copy(t.localPHT, src.localPHT)
	copy(t.globalPHT, src.globalPHT)
	copy(t.chooser, src.chooser)
	t.hist = src.hist
}

// CopyFrom copies src's provenance and tables, then its base predictor, into
// l. In-flight prediction counts are zeroed: forks are taken where every
// prediction has been released.
func (l *LDBP) CopyFrom(src *LDBP) {
	l.rtt = src.rtt
	l.flagsRecipe = src.flagsRecipe
	copy(l.btt, src.btt)
	for i := range l.btt {
		l.btt[i].inflight = 0
	}
	copy(l.lvt, src.lvt)
	l.base.CopyFrom(src.base)
}

// CopyFrom copies src's filter, weights and histories, then its base
// predictor, into b.
func (b *Bullseye) CopyFrom(src *Bullseye) {
	copy(b.filter, src.filter)
	copy(b.gw, src.gw)
	copy(b.lw, src.lw)
	copy(b.localHist, src.localHist)
	b.hist = src.hist
	b.base.CopyFrom(src.base)
}

// CopyFrom copies the whole TAGE-SC-L family state (TAGE core, loop
// predictor, statistical corrector) from src into s.
func (s *TAGESCL) CopyFrom(src *TAGESCL) {
	s.t.copyFrom(src.t)
	copy(s.loop.entries, src.loop.entries)
	copy(s.scBias, src.scBias)
	for i := range s.scTables {
		copy(s.scTables[i], src.scTables[i])
	}
}

func (t *tage) copyFrom(src *tage) {
	copy(t.base, src.base)
	for i := range t.tables {
		copy(t.tables[i], src.tables[i])
	}
	copy(t.idxF, src.idxF)
	copy(t.tagF1, src.tagF1)
	copy(t.tagF2, src.tagF2)
	copy(t.extraFolds, src.extraFolds)
	copy(t.hist.buf, src.hist.buf)
	t.hist.head = src.hist.head
	t.path = src.path
	t.useAltOnNA = src.useAltOnNA
	t.tick = src.tick
	t.rng = src.rng
}
