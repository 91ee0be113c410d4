package policies

import (
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/rf"
	"repro/internal/rl"
)

func ctxWith(cost float64, ces float64) *Context {
	var v features.Vector
	v[features.UECost] = cost
	v[features.CEsTotal] = ces
	return &Context{Node: 1, Time: time.Unix(1000, 0), Features: v}
}

func TestNeverAlways(t *testing.T) {
	if (Never{}).Decide(ctxWith(1e9, 1e9)) {
		t.Error("Never mitigated")
	}
	if !(Always{}).Decide(ctxWith(0, 0)) {
		t.Error("Always did not mitigate")
	}
	if (Never{}).Name() != "Never-mitigate" || (Always{}).Name() != "Always-mitigate" {
		t.Error("names wrong")
	}
}

// trainToyForest returns a forest scoring high when CEsTotal is large.
func trainToyForest(t *testing.T) *rf.Forest {
	t.Helper()
	var x [][]float64
	var y []bool
	for i := 0; i < 100; i++ {
		v := make([]float64, features.PredictorDim)
		v[features.CEsTotal] = float64(i)
		x = append(x, v)
		y = append(y, i >= 50)
	}
	return rf.TrainForest(x, y, rf.ForestConfig{Trees: 15, MaxDepth: 3, Seed: 1})
}

func TestRFThreshold(t *testing.T) {
	f := trainToyForest(t)
	p := &RFThreshold{Forest: f, Threshold: 0.5}
	if !p.Decide(ctxWith(0, 90)) {
		t.Error("should mitigate at high CE count")
	}
	if p.Decide(ctxWith(0, 5)) {
		t.Error("should not mitigate at low CE count")
	}
	if p.Name() != "SC20-RF" {
		t.Errorf("name = %q", p.Name())
	}
	labeled := &RFThreshold{Forest: f, Threshold: 0.5, Label: "SC20-RF-2%"}
	if labeled.Name() != "SC20-RF-2%" {
		t.Errorf("label = %q", labeled.Name())
	}
}

func TestMyopicRF(t *testing.T) {
	f := trainToyForest(t)
	p := &MyopicRF{Forest: f, MitigationCostNodeHours: 1.0 / 30}
	// High probability, high cost: expected cost >> mitigation cost.
	if !p.Decide(ctxWith(100, 90)) {
		t.Error("should mitigate when prob*cost is large")
	}
	// High probability but negligible cost: prob*0 = 0 < mitigation cost.
	if p.Decide(ctxWith(0, 90)) {
		t.Error("should not mitigate at zero potential cost")
	}
	if p.Name() != "Myopic-RF" {
		t.Error("name wrong")
	}
}

func TestRLDecider(t *testing.T) {
	calls := 0
	pol := rl.PolicyFunc(func(s []float64) int {
		calls++
		if len(s) != features.Dim {
			t.Fatalf("policy saw %d features", len(s))
		}
		return 1
	})
	p := &RL{Policy: pol}
	if !p.Decide(ctxWith(10, 10)) {
		t.Error("RL decision not forwarded")
	}
	if calls != 1 {
		t.Error("policy not invoked")
	}
	if p.Name() != "RL" {
		t.Error("name wrong")
	}
	if (&RL{Policy: pol, Label: "RL-ablation"}).Name() != "RL-ablation" {
		t.Error("label ignored")
	}
}

func TestOracle(t *testing.T) {
	at := time.Unix(5000, 0)
	o := NewOracle(map[OracleKey]bool{{Node: 3, Time: at}: true})
	if !o.Decide(&Context{Node: 3, Time: at}) {
		t.Error("oracle should fire at its point")
	}
	if o.Decide(&Context{Node: 3, Time: at.Add(time.Minute)}) {
		t.Error("oracle fired off-point")
	}
	if o.Decide(&Context{Node: 4, Time: at}) {
		t.Error("oracle fired on wrong node")
	}
	if o.Len() != 1 || o.Name() != "Oracle" {
		t.Error("metadata wrong")
	}
}

func TestFixedProb(t *testing.T) {
	p := &FixedProb{Feature: features.CEsTotal, Bound: 10}
	if !p.Decide(ctxWith(0, 11)) || p.Decide(ctxWith(0, 9)) {
		t.Error("FixedProb threshold wrong")
	}
}
