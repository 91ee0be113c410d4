package uerl

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/policies"
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
