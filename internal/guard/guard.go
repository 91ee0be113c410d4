// Package guard implements the budget-accounting core of the serving
// layer's production guardrails: sliding-window spend tracking for
// per-node checkpoint node-hours, fleet-wide mitigation rate, and model
// promotions. The root package's Guard consults these budgets from
// Recommend (to suppress mitigation when a budget is tripped) and from
// the promotion path (to freeze promotions), and turns limit crossings
// into audit LifecycleEvents; this package owns only the deterministic
// arithmetic. All times are event-stream (telemetry) time supplied by
// the caller — never the wall clock — so replaying a stream reproduces
// every budget verdict bit for bit.
//
//uerl:deterministic
package guard

import (
	"sync"
	"time"
)

// Budget-trip reasons, reported by the Allow checks and carried into
// Decision.VetoReason and audit event details.
const (
	// ReasonNodeBudget names the per-node checkpoint node-hours budget.
	ReasonNodeBudget = "node-checkpoint-budget"
	// ReasonFleetBudget names the fleet-wide mitigation-rate budget.
	ReasonFleetBudget = "fleet-mitigation-budget"
	// ReasonPromotionBudget names the promotions-per-window budget.
	ReasonPromotionBudget = "promotion-budget"
)

// Config sets the enforceable budgets. A zero (or negative) limit
// disables that budget; a disabled budget allows everything.
type Config struct {
	// NodeCheckpointNodeHours caps the checkpoint node-hours one node may
	// spend on mitigation within NodeWindow.
	NodeCheckpointNodeHours float64
	// NodeWindow is the sliding span of the per-node budget.
	NodeWindow time.Duration
	// FleetMaxMitigations caps the number of mitigations across the whole
	// fleet within FleetWindow (the fleet-wide mitigation rate).
	FleetMaxMitigations int
	// FleetWindow is the sliding span of the fleet budget.
	FleetWindow time.Duration
	// MaxPromotions caps model promotions within PromotionWindow.
	MaxPromotions int
	// PromotionWindow is the sliding span of the promotion budget
	// (typically 24h: promotions per day).
	PromotionWindow time.Duration
}

// Budgets tracks spend against the configured budgets and answers the
// allow/deny checks. Charges come from the authoritative served-decision
// stream (the root Guard's ObserveDecision / promotion path); Allow
// checks are read-shaped (they only advance window expiry) and are what
// Recommend consults on its hot path. Budgets is safe for concurrent
// use.
type Budgets struct {
	cfg Config
	mu  sync.Mutex
	//uerl:guarded-by mu
	nodes map[int]*Window
	//uerl:guarded-by mu
	fleet *Window
	//uerl:guarded-by mu
	promos *Window
}

// NewBudgets builds the budget tracker. Windows default to 24h (node),
// 1h (fleet) and 24h (promotions) when a limit is set without a span.
func NewBudgets(cfg Config) *Budgets {
	if cfg.NodeWindow <= 0 {
		cfg.NodeWindow = 24 * time.Hour
	}
	if cfg.FleetWindow <= 0 {
		cfg.FleetWindow = time.Hour
	}
	if cfg.PromotionWindow <= 0 {
		cfg.PromotionWindow = 24 * time.Hour
	}
	var fleet, promos *Window
	if cfg.FleetMaxMitigations > 0 {
		fleet = NewWindow(cfg.FleetWindow)
	}
	if cfg.MaxPromotions > 0 {
		promos = NewWindow(cfg.PromotionWindow)
	}
	return &Budgets{cfg: cfg, nodes: map[int]*Window{}, fleet: fleet, promos: promos}
}

// Config returns the configured limits.
func (b *Budgets) Config() Config { return b.cfg }

// node returns the node's spend window, creating it on first charge.
//
//uerl:locked mu
func (b *Budgets) node(n int) *Window {
	w, ok := b.nodes[n]
	if !ok {
		w = NewWindow(b.cfg.NodeWindow)
		b.nodes[n] = w
	}
	return w
}

// nodeSpend reads the node's window sum as of at without creating the
// window: reads never allocate ledger state, and a node never charged has
// spent nothing.
//
//uerl:locked mu
func (b *Budgets) nodeSpend(n int, at time.Time) float64 {
	w, ok := b.nodes[n]
	if !ok {
		return 0
	}
	return w.Total(at)
}

// metersMitigations reports whether a node or fleet mitigation budget is
// set. Without one the mitigation checks and charges have nothing to
// read or record, and return without taking the lock: the configuration
// never changes after NewBudgets.
func (b *Budgets) metersMitigations() bool {
	return b.cfg.NodeCheckpointNodeHours > 0 || b.cfg.FleetMaxMitigations > 0
}

// AllowMitigation reports whether one more mitigation costing
// costNodeHours on node at time at fits every mitigation budget; when it
// does not, the returned reason names the tripped budget. A node budget
// smaller than a single mitigation's cost suppresses mitigation on that
// node entirely.
func (b *Budgets) AllowMitigation(node int, at time.Time, costNodeHours float64) (bool, string) {
	if !b.metersMitigations() {
		return true, ""
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cfg.NodeCheckpointNodeHours > 0 {
		if b.nodeSpend(node, at)+costNodeHours > b.cfg.NodeCheckpointNodeHours {
			return false, ReasonNodeBudget
		}
	}
	if b.fleet != nil {
		if int(b.fleet.Total(at))+1 > b.cfg.FleetMaxMitigations {
			return false, ReasonFleetBudget
		}
	}
	return true, ""
}

// ChargeMitigation records one served (non-suppressed) mitigation
// costing costNodeHours on node at time at against the node and fleet
// windows.
func (b *Budgets) ChargeMitigation(node int, at time.Time, costNodeHours float64) {
	if !b.metersMitigations() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cfg.NodeCheckpointNodeHours > 0 {
		b.node(node).Add(at, costNodeHours)
	}
	if b.fleet != nil {
		b.fleet.Add(at, 1)
	}
}

// AllowPromotion reports whether one more promotion at time at fits the
// promotion budget.
func (b *Budgets) AllowPromotion(at time.Time) (bool, string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.promos != nil {
		if int(b.promos.Total(at))+1 > b.cfg.MaxPromotions {
			return false, ReasonPromotionBudget
		}
	}
	return true, ""
}

// ChargePromotion records one executed promotion at time at.
func (b *Budgets) ChargePromotion(at time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.promos != nil {
		b.promos.Add(at, 1)
	}
}

// NodeSpend reports a node's checkpoint node-hours spent within its
// current window (0 for untracked nodes).
func (b *Budgets) NodeSpend(node int, at time.Time) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.nodeSpend(node, at)
}

// FleetMitigations reports the fleet-wide mitigation count within the
// current fleet window.
func (b *Budgets) FleetMitigations(at time.Time) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fleet == nil {
		return 0
	}
	return int(b.fleet.Total(at))
}

// Promotions reports the promotions executed within the current
// promotion window.
func (b *Budgets) Promotions(at time.Time) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.promos == nil {
		return 0
	}
	return int(b.promos.Total(at))
}
