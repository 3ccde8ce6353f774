package bpred

import (
	"reflect"
	"testing"
)

// stir drives a predictor through a deterministic pseudo-random branch
// stream, including checkpoint/restore churn (misprediction recovery), so
// every table, history register and fold accumulates state.
func stir(p Predictor, seed uint64, n int) {
	rng := seed
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < n; i++ {
		pc := 0x400000 + (next()%97)*4
		// Correlated-but-noisy outcomes exercise taken and not-taken paths.
		taken := (pc>>2+next()%5)%3 != 0
		dir, info := p.Predict(pc)
		snap := p.Checkpoint()
		p.OnFetch(pc, dir)
		if dir != taken {
			// Mispredicted: rewind the speculative history and re-establish
			// the resolved direction, as the core does on a flush.
			p.Restore(snap)
			p.OnFetch(pc, taken)
		}
		p.Release(snap)
		p.Commit(pc, taken, dir == taken, info)
	}
}

// normalize empties checkpoint scratch pools, which are semantically empty
// at a drained barrier and deliberately left out of CopyFrom.
func normalize(p Predictor) {
	switch s := p.(type) {
	case *TAGESCL:
		s.t.snapPool = nil
		s.infoPool = nil
	case *Perceptron:
		s.snapPool = nil
		s.infoPool = nil
	case *Tournament:
		s.snapPool = nil
		s.infoPool = nil
	case *LDBP:
		s.infoPool = nil
		normalize(s.base)
	case *Bullseye:
		s.snapPool = nil
		s.infoPool = nil
		normalize(s.base)
	}
}

// copier pairs a predictor constructor with its CopyFrom, which the
// Predictor interface cannot express.
type copier struct {
	name string
	mk   func() Predictor
	copy func(dst, src Predictor)
}

func copierOf[T interface {
	Predictor
	CopyFrom(T)
}](name string, mk func() T) copier {
	return copier{
		name: name,
		mk:   func() Predictor { return mk() },
		copy: func(dst, src Predictor) { dst.(T).CopyFrom(src.(T)) },
	}
}

// TestPredictorRoundTrip copies a driven predictor into a fresh one and
// requires the copy to equal the source, to predict identically from then
// on, and to share no table with it.
func TestPredictorRoundTrip(t *testing.T) {
	cases := []copier{
		copierOf("bimodal", func() *Bimodal { return NewBimodal(12) }),
		copierOf("gshare", func() *Gshare { return NewGshare(14, 12) }),
		copierOf("tage64", NewTAGESCL64),
		copierOf("tage80", NewTAGESCL80),
		copierOf("mtage", NewMTAGE),
		copierOf("perceptron", func() *Perceptron { return NewPerceptron(DefaultPerceptronConfig()) }),
		copierOf("tournament", func() *Tournament { return NewTournament(DefaultTournamentConfig()) }),
		copierOf("ldbp", func() *LDBP {
			return NewLDBP(DefaultLDBPConfig(), NewTAGESCL64(), ldbpTestProgram())
		}),
		copierOf("bullseye", func() *Bullseye {
			return NewBullseye(DefaultBullseyeConfig(), NewTAGESCL64())
		}),
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := tc.mk()
			stir(p, 0x853c49e6748fea9b, 20000)
			normalize(p)

			fresh := tc.mk()
			tc.copy(fresh, p)
			normalize(fresh)
			if !reflect.DeepEqual(p, fresh) {
				t.Fatal("copied predictor state differs from the source")
			}

			// Driving a copy must leave the source untouched.
			scratch := tc.mk()
			tc.copy(scratch, p)
			stir(scratch, 0x2545f4914f6cdd1d, 5000)
			normalize(p)
			if !reflect.DeepEqual(p, fresh) {
				t.Fatal("driving a copy changed the source")
			}

			// The copy must behave identically from here on.
			rng := uint64(0xda3e39cb94b95bdb)
			for i := 0; i < 2000; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				pc := 0x400000 + (rng%97)*4
				taken := rng%2 == 0
				d1, i1 := p.Predict(pc)
				d2, i2 := fresh.Predict(pc)
				if d1 != d2 {
					t.Fatalf("post-copy prediction divergence at branch %d (pc %#x)", i, pc)
				}
				p.OnFetch(pc, d1)
				fresh.OnFetch(pc, d2)
				p.Commit(pc, taken, d1 == taken, i1)
				fresh.Commit(pc, taken, d2 == taken, i2)
			}
		})
	}
}
