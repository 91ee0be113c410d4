// Package conc is the concurrency analyzer's fixture: a Decider with no
// concurrency story (positive), ConcurrentDecider and //uerl:serial-only
// coverage (negatives), and the //uerl:guarded-by / //uerl:restrict-to
// field disciplines with their lock-held and accessor exemptions.
package conc

import (
	"sync"

	"repro/internal/policies"
)

// Bare implements Decider but neither ConcurrentDecider nor a
// serial-only acknowledgement.
type Bare struct{ threshold float64 } // want `Bare implements policies.Decider but not ConcurrentDecider`

func (b *Bare) Name() string                  { return "bare" }
func (b *Bare) Decide(*policies.Context) bool { return b.threshold > 0 }

// Safe declares itself safe for concurrent Decide calls: clean.
type Safe struct{}

func (Safe) Name() string                  { return "safe" }
func (Safe) Decide(*policies.Context) bool { return false }
func (Safe) ConcurrentSafe() bool          { return true }

// Acknowledged is deliberately serial and says so: clean.
//
//uerl:serial-only fixture: Decide mutates the shared seen map, so replay must take the serial path
type Acknowledged struct{ seen map[int]bool }

func (a *Acknowledged) Name() string { return "ack" }
func (a *Acknowledged) Decide(ctx *policies.Context) bool {
	if a.seen[ctx.Node] {
		return false
	}
	a.seen[ctx.Node] = true
	return true
}

// counter carries one guarded and one accessor-restricted field.
type counter struct {
	mu sync.Mutex
	//uerl:guarded-by mu
	n int
	//uerl:restrict-to NewCounter,Value
	total int
}

// NewCounter is on the restrict-to list: clean.
func NewCounter() *counter { return &counter{total: 1} }

// fresh is NOT on the restrict-to list, but composite-literal keys are
// construction before publication, not field access: clean.
func fresh() *counter {
	return &counter{total: 1}
}

// Inc observably locks mu before touching n: clean.
func (c *counter) Inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// Peek touches n without the lock.
func (c *counter) Peek() int {
	return c.n // want `field n is guarded by mu`
}

// bump declares the caller holds mu: clean.
//
//uerl:locked mu
func (c *counter) bump() {
	c.n++
}

// Value is on the restrict-to list: clean.
func (c *counter) Value() int { return c.total }

// Sneak bypasses the accessor list.
func (c *counter) Sneak() int {
	return c.total // want `field total is restricted to NewCounter, Value`
}

var _ = fresh
var _ = (&counter{}).bump
