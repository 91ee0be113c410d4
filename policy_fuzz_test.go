package uerl

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/policies"
	"repro/internal/rl"
)

// FuzzForestDecision checks that serving and replay make the same forest
// decision. For SC20-RF and Myopic-RF over one forest, at any predictor
// features, potential UE cost, threshold and mitigation cost, three views
// of the rule must agree: the served action (Policy.Decide), the replay
// decider's Decide, and the sign of its Score. The Context's memoized
// forest score must equal a direct forest evaluation.
func FuzzForestDecision(f *testing.F) {
	forest := testForest(f)
	enc := func(xs ...float64) []byte {
		raw := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(x))
		}
		return raw
	}
	stormy := enc(1.2, -0.3, 0.8)
	var tie features.Vector
	tie[0], tie[1], tie[2] = 1.2, -0.3, 0.8
	prob := forest.PredictProb(tie.Predictor())
	f.Add(stormy, 2.0, prob, prob*2) // prob == threshold, prob·cost == mitigation cost
	f.Add(stormy, 0.0, 0.5, 1.0/30)
	f.Add(stormy, math.Inf(1), 0.5, 1.0/30)
	f.Add(stormy, math.Inf(-1), 0.5, 1.0/30)
	f.Add(enc(math.NaN(), 0.1), 5.0, 0.5, 1.0/30)
	f.Add(enc(-2), math.Inf(1), 0.0, 0.0)

	at := time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, raw []byte, cost, threshold, mitCost float64) {
		var v features.Vector
		for i := 0; i < features.PredictorDim && 8*(i+1) <= len(raw); i++ {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		v[features.UECost] = cost
		s := Snapshot{Node: 3, Time: at, Features: v}

		sc20 := &policies.RFThreshold{Forest: forest, Threshold: threshold}
		myopic := &policies.MyopicRF{Forest: forest, MitigationCostNodeHours: mitCost}
		kinds := []struct {
			served Policy
			d      interface {
				policies.Decider
				Score(*policies.Context) float64
			}
		}{
			{&rfPolicy{d: sc20}, sc20},
			{&myopicPolicy{d: myopic}, myopic},
		}
		for _, k := range kinds {
			served := k.served.Decide(s).Mitigate()
			ctx := policies.Context{Node: s.Node, Time: s.Time, Features: v}
			replayed := k.d.Decide(&ctx)
			scored := k.d.Score(&ctx) > 0
			if served != replayed || replayed != scored {
				t.Fatalf("%s at %v (cost %v, threshold %v, mitigation %v): served %v, replay Decide %v, Score>0 %v",
					k.served.Kind(), v.Predictor(), cost, threshold, mitCost, served, replayed, scored)
			}
			if got, want := ctx.RFProb(forest), forest.PredictProb(v.Predictor()); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Context.RFProb = %v, direct forest evaluation = %v", got, want)
			}
		}
	})
}

// fuzzNet builds the network FuzzRLDecision decides with: one of five
// hidden shapes (widths not multiples of 4 included), a dueling head when
// shape is even and a plain one otherwise. With tie set, every output row
// gets zero weights and the same bias, so both Q-values are equal (or both
// NaN) at every input.
func fuzzNet(seed int64, shape uint8, tie bool) *nn.Network {
	hiddens := [][]int{nil, {5}, {16, 8}, {32, 16}, {7, 3}}
	cfg := nn.Config{Inputs: features.Dim, Hidden: hiddens[int(shape)%len(hiddens)], Outputs: 2, Dueling: shape%2 == 0, Seed: seed}
	net := nn.New(cfg)
	if tie {
		// The head's rows are the last two params: the advantage (or the
		// plain output) weights, then their biases.
		ps := net.Params()
		clear(ps[len(ps)-2].W)
		for i := range ps[len(ps)-1].W {
			ps[len(ps)-1].W[i] = 0.25
		}
	}
	return net
}

// FuzzRLDecision checks that serving and replay make the same RL decision.
// For random networks and raw features (NaN and ±Inf included), the
// served rlPolicy.Decide, the Controller's decision path (Recommend on an
// unknown node, and its shared tail on the raw features) and the replayed
// policies.RL over a SharedQPolicy must all decide alike. Their two tie
// rules, qv[1] > qv[0] and the first index of mathx.ArgMax, agree today;
// forced ties (and NaN Q-values) must decide ActionNone everywhere.
func FuzzRLDecision(f *testing.F) {
	enc := func(xs ...float64) []byte {
		raw := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(x))
		}
		return raw
	}
	storm := enc(12, 4096, 2, 7, 90, 31, 1, 3, 140.5, 6, 2.5, 0.75, 0, 1)
	f.Add(int64(1), uint8(2), false, storm, 4200.0)
	f.Add(int64(1), uint8(3), false, storm, 0.0)
	f.Add(int64(2), uint8(0), true, storm, 4200.0)
	f.Add(int64(3), uint8(1), true, storm, 15.0)
	f.Add(int64(4), uint8(4), false, enc(math.NaN(), 3, math.Inf(1)), 4200.0)
	f.Add(int64(5), uint8(2), false, storm, math.NaN())
	f.Add(int64(6), uint8(0), false, enc(math.Inf(-1), math.Copysign(0, -1)), math.Inf(1))

	at := time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, tie bool, raw []byte, cost float64) {
		net := fuzzNet(seed, shape, tie)
		p, err := newRLPolicy(net, nil)
		if err != nil {
			t.Fatal(err)
		}
		replay := &policies.RL{Policy: rl.NewSharedQPolicy(net)}
		ctl := NewController(p)

		var v features.Vector
		for i := 0; i < features.PredictorDim && 8*(i+1) <= len(raw); i++ {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		v[features.UECost] = cost
		var empty features.Vector
		empty[features.UECost] = cost

		for _, in := range []features.Vector{v, empty} {
			d := p.Decide(Snapshot{Node: 3, Time: at, Features: in})
			var viaCtl Decision
			var norm [FeatureDim]float64
			ctl.decide(&viaCtl, 3, at, &in, &norm)
			ctx := policies.Context{Node: 3, Time: at, Features: in}
			replayed := replay.Decide(&ctx)
			if d.Mitigate() != viaCtl.Mitigate() || d.Mitigate() != replayed {
				t.Fatalf("features %v: Decide %v (Q %v), Controller %v, replay %v", in, d.Mitigate(), d.QValues, viaCtl.Mitigate(), replayed)
			}
			if tie && d.Mitigate() {
				t.Fatalf("features %v: tied Q %v decided to mitigate", in, d.QValues)
			}
		}
		rec := ctl.Recommend(99, at, cost)
		if want := p.Decide(Snapshot{Node: 99, Time: at, Features: empty}); rec.Mitigate() != want.Mitigate() {
			t.Fatalf("Recommend on an unknown node at cost %v: %v, Decide %v", cost, rec.Mitigate(), want.Mitigate())
		}
	})
}
