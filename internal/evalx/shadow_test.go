package evalx

import (
	"testing"
	"time"
)

func shadowCfg() ShadowConfig {
	return ShadowConfig{MitigationCostNodeHours: 2.0 / 60, Restartable: true}
}

func TestShadowEvalCatchAndMiss(t *testing.T) {
	s := NewShadowEval("cand", shadowCfg())
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

	// Node 1: mitigation 1 h before its UE → caught, UE cost forgiven.
	s.Decision(1, t0, true)
	s.UE(1, t0.Add(time.Hour), 500)

	// Node 2: no-mitigate decision, then a UE → missed, full cost.
	s.Decision(2, t0, false)
	s.UE(2, t0.Add(time.Hour), 300)

	res := s.Result()
	if res.Policy != "cand" {
		t.Fatalf("policy name = %q", res.Policy)
	}
	if res.Decisions != 2 || res.UEs != 2 {
		t.Fatalf("decisions=%d ues=%d, want 2/2", res.Decisions, res.UEs)
	}
	if res.Metrics.TPs != 1 || res.Metrics.FNs != 1 {
		t.Fatalf("TPs=%d FNs=%d, want 1/1", res.Metrics.TPs, res.Metrics.FNs)
	}
	if res.UECost != 300 {
		t.Fatalf("UECost = %v, want 300 (caught UE forgiven)", res.UECost)
	}
	wantMit := 2.0 / 60
	if diff := res.MitigationCost - wantMit; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("MitigationCost = %v, want %v", res.MitigationCost, wantMit)
	}
	if res.Metrics.FPs != 0 || res.Metrics.TNs != 0 {
		t.Fatalf("FPs=%d TNs=%d, want 0/0", res.Metrics.FPs, res.Metrics.TNs)
	}
}

func TestShadowEvalWindowAndOverheadBoundaries(t *testing.T) {
	s := NewShadowEval("cand", shadowCfg())
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

	// Mitigation 1 minute before the UE: inside the window but the
	// 2-minute overhead means it cannot complete in time → miss.
	s.Decision(1, t0, true)
	s.UE(1, t0.Add(time.Minute), 100)

	// Mitigation 25 h before the UE: outside the 24 h window → miss.
	s.Decision(2, t0, true)
	s.UE(2, t0.Add(25*time.Hour), 100)

	res := s.Result()
	if res.Metrics.TPs != 0 || res.Metrics.FNs != 2 {
		t.Fatalf("TPs=%d FNs=%d, want 0/2", res.Metrics.TPs, res.Metrics.FNs)
	}
	if res.UECost != 200 {
		t.Fatalf("UECost = %v, want 200", res.UECost)
	}
	// Both mitigations missed their UEs → counted as false positives.
	if res.Metrics.FPs != 2 {
		t.Fatalf("FPs = %d, want 2", res.Metrics.FPs)
	}
}

func TestShadowEvalImplicitNonMitigationParity(t *testing.T) {
	// A UE with no event on its node in the preceding window is an
	// implicit no-mitigate decision, exactly as replayNode accounts it —
	// without it, an always-mitigating policy's TN count would go
	// negative.
	s := NewShadowEval("cand", shadowCfg())
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

	// Unseen node: implicit non-mitigation.
	s.UE(1, t0, 200)
	// Node with a stale decision (25 h old): implicit again.
	s.Decision(2, t0, false)
	s.UE(2, t0.Add(25*time.Hour), 200)
	// Node with a recent no-mitigate decision: that decision already
	// counted, no implicit one.
	s.Decision(3, t0.Add(24*time.Hour), false)
	s.UE(3, t0.Add(25*time.Hour), 200)

	res := s.Result()
	if res.Metrics.FNs != 3 {
		t.Fatalf("FNs = %d, want 3", res.Metrics.FNs)
	}
	// 2 explicit non-mitigations + 2 implicit ones.
	if res.Metrics.NonMitigations != 4 {
		t.Fatalf("NonMitigations = %d, want 4", res.Metrics.NonMitigations)
	}
	if res.Metrics.TNs != 1 {
		t.Fatalf("TNs = %d, want 1", res.Metrics.TNs)
	}
}

func TestShadowEvalNonRestartableChargesCaughtUEs(t *testing.T) {
	cfg := shadowCfg()
	cfg.Restartable = false
	s := NewShadowEval("cand", cfg)
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	s.Decision(1, t0, true)
	s.UE(1, t0.Add(time.Hour), 500)
	res := s.Result()
	if res.Metrics.TPs != 1 {
		t.Fatalf("TPs = %d, want 1", res.Metrics.TPs)
	}
	if res.UECost != 500 {
		t.Fatalf("UECost = %v, want 500 when not restartable", res.UECost)
	}
}

func TestShadowEvalIdenticalTrafficComparable(t *testing.T) {
	// Two scorers over identical traffic: a trigger-happy policy pays
	// mitigation cost, an idle one pays UE cost. The totals must order
	// the policies the way replay would.
	always := NewShadowEval("always", shadowCfg())
	never := NewShadowEval("never", shadowCfg())
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 100; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		always.Decision(7, at, true)
		never.Decision(7, at, false)
	}
	ueAt := t0.Add(200 * time.Minute)
	always.UE(7, ueAt, 1000)
	never.UE(7, ueAt, 1000)

	a, n := always.Result(), never.Result()
	if a.TotalCost() >= n.TotalCost() {
		t.Fatalf("always (%v) should beat never (%v) with a catchable 1000 nh UE", a.TotalCost(), n.TotalCost())
	}
	if a.Metrics.Recall() != 1 || n.Metrics.Recall() != 0 {
		t.Fatalf("recall always=%v never=%v, want 1/0", a.Metrics.Recall(), n.Metrics.Recall())
	}
}
