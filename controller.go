package uerl

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/errlog"
	"repro/internal/features"
)

// EventType classifies a telemetry event fed to a Controller.
type EventType int

const (
	// CorrectedError is an ECC-corrected memory error record (possibly
	// representing several errors via Count).
	CorrectedError EventType = iota
	// UEWarning is a firmware warning (correctable logging limit reached
	// or thermal throttling).
	UEWarning
	// NodeBoot marks a node (re)boot.
	NodeBoot
	// UncorrectedError is a realized uncorrected error — the outcome the
	// serving policies try to predict. Reporting it keeps the node's
	// feature history faithful and, when an OnlineLearner taps the
	// controller, supplies the realized-outcome signal continual learning
	// and shadow evaluation are driven by.
	UncorrectedError
)

// Event is one node telemetry record, the online analogue of the log
// records of §2.1. Location fields may be left -1 when unknown.
type Event struct {
	Time                 time.Time
	Node                 int
	DIMM                 int
	Type                 EventType
	Count                int
	Rank, Bank, Row, Col int
}

// toErrlog converts the public event into the internal log record ev.
func (e *Event) toErrlog(ev *errlog.Event) {
	*ev = errlog.Event{}
	ev.Time = e.Time
	ev.Node = e.Node
	ev.DIMM = e.DIMM
	ev.Count = e.Count
	if ev.Count <= 0 {
		ev.Count = 1
	}
	ev.Rank, ev.Bank, ev.Row, ev.Col = e.Rank, e.Bank, e.Row, e.Col
	switch e.Type {
	case CorrectedError:
		ev.Type = errlog.CE
	case UEWarning:
		ev.Type = errlog.UEWarning
	case NodeBoot:
		ev.Type = errlog.Boot
	case UncorrectedError:
		ev.Type = errlog.UE
	}
}

// ctlShard owns the feature trackers of one slice of the node space.
type ctlShard struct {
	mu sync.RWMutex
	//uerl:guarded-by mu
	trackers map[int]*features.Tracker
	// evBuf backs the single-event tick handed to Tracker.Observe, so
	// ingesting an event allocates nothing. Guarded by mu; Observe does
	// not retain the events slice.
	//uerl:guarded-by mu
	evBuf [1]errlog.Event
}

// Controller is the serving layer of Fig. 1: it consumes a live stream of
// node telemetry events, maintains per-node Table 1 feature state, and
// answers mitigation queries with full Decisions from a pluggable Policy.
//
// The controller is safe for concurrent use. Node state is partitioned
// across shardCount shards; events for different nodes proceed in
// parallel, and Recommend takes only its node's shard read lock, so a
// poller waits on ingestion only when both meet on one shard. Events must
// arrive in non-decreasing time order per node; different nodes are
// independent.
//
// The serving policy is held behind an atomic pointer: SwapPolicy
// installs a retrained model with a single pointer swap, so hot-swapping
// never drops, blocks or torn-reads a concurrent Recommend, and all
// tracker state survives the swap.
type Controller struct {
	// policy is the hot-swappable serving policy. Everything outside the
	// three accessors — including the rest of this package — must go
	// through Policy()/SwapPolicy(), so a swap is always one atomic
	// pointer exchange and never a torn read; uerlvet enforces the list.
	//uerl:restrict-to NewController,Policy,SwapPolicy
	policy atomic.Pointer[Policy]
	// guard optionally vetoes mitigation recommendations against tripped
	// budgets, independent of the serving policy and of any learner
	// driving it; NewGuard attaches it exactly once. Unguarded
	// controllers pay one nil atomic load per Recommend.
	guard  atomic.Pointer[Guard]
	shards []*ctlShard
	mask   uint64
	// batchPool recycles ObserveBatch's per-shard bucket sets so batched
	// ingestion is allocation-free in steady state: the bucket slices grow
	// to the working batch shape once and are then reused (truncated, not
	// cleared) across calls, including concurrent ones.
	batchPool sync.Pool
}

// shardsPerP is the shard count per GOMAXPROCS. A call meets another
// caller on its shard about once in shards/(callers-1) calls, and on a
// meeting the RWMutex parks the waiter instead of spinning, so the count
// is sized to make meetings rare. README's "Shards sized so a poll rarely
// parks the ingester" has the measured curve.
const shardsPerP = 128

// maxShards caps the shard count. Contention depends on how often two
// callers meet on a shard, not on the core count: past 1024 shards a
// meeting is already rare for any plausible number of concurrent callers,
// and each further shard costs only heap (its lock and map) and one bucket
// that ObserveBatch walks per batch.
const maxShards = 1024

// shardCount is the shard count at procs Ps: shardsPerP per P, rounded up
// to a power of two and capped at maxShards.
func shardCount(procs int) int {
	n := min(shardsPerP*procs, maxShards)
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewController builds a serving controller around a policy. Any Policy
// works — the trained RL agent, a §4.2 baseline, a LoadModel artifact, or
// a custom implementation (which must be safe for concurrent use).
func NewController(policy Policy) *Controller {
	if policy == nil {
		panic("uerl: NewController with nil policy")
	}
	n := shardCount(runtime.GOMAXPROCS(0))
	c := &Controller{
		shards: make([]*ctlShard, n),
		mask:   uint64(n - 1),
	}
	c.policy.Store(&policy)
	for i := range c.shards {
		c.shards[i] = &ctlShard{trackers: map[int]*features.Tracker{}}
	}
	c.batchPool.New = func() any {
		b := make([][]Event, n)
		return &b
	}
	return c
}

// Policy returns the currently served policy.
func (c *Controller) Policy() Policy { return *c.policy.Load() }

// SwapPolicy atomically installs a new serving policy and returns the one
// it replaces — the hot-swap step of the online model lifecycle. The swap
// is a single pointer exchange: concurrent Recommend calls are never
// dropped or blocked, each completes against whichever policy it loaded
// at entry, and per-node tracker state (feature histories) carries over
// untouched. The new policy must be safe for concurrent use, like any
// policy served by a controller.
func (c *Controller) SwapPolicy(p Policy) Policy {
	if p == nil {
		panic("uerl: SwapPolicy with nil policy")
	}
	return *c.policy.Swap(&p)
}

// DeployPolicy installs a new serving policy and returns the one it
// replaces — the Serving-interface form of SwapPolicy. On a single
// controller deployment is a local atomic swap and never fails; the error
// return exists so distributed implementations (a fleet coordinator
// staging the artifact to workers and committing on quorum) satisfy the
// same interface, and so the OnlineLearner can treat a failed rollout as
// a rejected candidate instead of a promotion.
func (c *Controller) DeployPolicy(p Policy) (Policy, error) {
	return c.SwapPolicy(p), nil
}

// shardIndex maps a node id to its shard (Fibonacci hashing, so dense
// sequential node ids spread across shards instead of clustering).
func (c *Controller) shardIndex(node int) uint64 {
	return (uint64(node) * 0x9E3779B97F4A7C15 >> 32) & c.mask
}

// ObserveEvent ingests one telemetry event.
//
//uerl:hotpath
func (c *Controller) ObserveEvent(e Event) {
	sh := c.shards[c.shardIndex(e.Node)]
	sh.mu.Lock()
	sh.observe(e, 0, nil)
	sh.mu.Unlock()
}

// observe applies one event to the shard and fills v, unless nil, with
// the node's feature vector at e.Time with potential UE cost cost; the
// caller holds the write lock.
//
//uerl:hotpath
//uerl:locked mu
func (sh *ctlShard) observe(e Event, cost float64, v *features.Vector) {
	tr, ok := sh.trackers[e.Node]
	if !ok {
		tr = features.NewTracker()
		sh.trackers[e.Node] = tr
	}
	e.toErrlog(&sh.evBuf[0])
	tr.Observe(errlog.Tick{Time: e.Time, Node: e.Node, Events: sh.evBuf[:]}, cost, v)
}

// TickInto is one decision tick in one call, filling d: ObserveEvent(e),
// then Recommend(e.Node, e.Time, potentialCostNodeHours), then the
// attached guard's ObserveDecision of the answer — with the same results,
// but in one hold of the node's shard lock. The served features are the
// vector the ingest computed, read as Recommend's side-effect-free Peek
// would read it at e.Time: no current-tick CEs, hours-since-boot clamped
// at 0. When the served policy is the built-in RL policy it also leaves
// the network input in norm, which then equals
// features.Vector(d.Features).NormalizedInto bit for bit (the clamps
// below run before the policy, and a guard veto changes only the
// action), and reports normed; otherwise norm is untouched. TickInto
// implements Ticker.
//
//uerl:hotpath
func (c *Controller) TickInto(d *Decision, e Event, potentialCostNodeHours float64, norm *[FeatureDim]float64) (normed bool) {
	sh := c.shards[c.shardIndex(e.Node)]
	var v features.Vector
	sh.mu.Lock()
	sh.observe(e, potentialCostNodeHours, &v)
	sh.mu.Unlock()
	v[features.CEsSinceLastEvent] = 0
	if v[features.HoursSinceBoot] < 0 {
		v[features.HoursSinceBoot] = 0
	}
	normed = c.decide(d, e.Node, e.Time, &v, norm)
	if g := c.guard.Load(); g != nil {
		// Budget accounting runs off the served decision stream.
		g.observeDecision(d)
	}
	return normed
}

// ObserveBatch ingests a batch of telemetry events, taking each shard's
// lock once instead of once per event. The relative order of events for
// the same node is preserved. It returns the number of events ingested;
// when ctx is cancelled mid-batch, ingestion stops at a shard boundary
// and the context error is returned. A cancelled batch is partially
// applied — events are not idempotent (re-observing double-counts CEs),
// so treat unprocessed nodes as stale and rebuild them from the log
// rather than re-sending the whole batch.
//
//uerl:hotpath
func (c *Controller) ObserveBatch(ctx context.Context, events []Event) (int, error) {
	if len(events) == 0 {
		return 0, nil
	}
	bp := c.batchPool.Get().(*[][]Event)
	buckets := *bp
	//uerl:alloc-ok open-coded defer whose closure stays on the stack; ObserveBatch is alloc-asserted at 0 allocs/op steady state
	defer func() {
		// Truncate (keeping capacity) so the next batch reuses the grown
		// slices; stale Event values behind len are never read.
		for i := range buckets {
			buckets[i] = buckets[i][:0]
		}
		*bp = buckets
		c.batchPool.Put(bp)
	}()
	for _, e := range events {
		i := c.shardIndex(e.Node)
		buckets[i] = append(buckets[i], e) //uerl:alloc-ok pooled buckets grow to the working batch shape once, then recycle via batchPool (alloc-asserted)
	}
	ingested := 0
	for i, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return ingested, err
		}
		sh := c.shards[i]
		sh.mu.Lock()
		for _, e := range bucket {
			sh.observe(e, 0, nil)
		}
		sh.mu.Unlock()
		ingested += len(bucket)
	}
	return ingested, nil
}

// peek fills v, which must be zero, with a node's feature vector read
// side-effect-free under the shard's read lock; unknown nodes report the
// empty feature state.
//
//uerl:hotpath
func (c *Controller) peek(v *features.Vector, node int, at time.Time, cost float64) {
	sh := c.shards[c.shardIndex(node)]
	sh.mu.RLock()
	if tr, ok := sh.trackers[node]; ok {
		tr.Peek(at, cost, v)
	} else {
		v[features.UECost] = cost
	}
	sh.mu.RUnlock()
}

// Recommend asks the policy whether to mitigate on the node at time at,
// given the potential UE cost of Eq. 3 (running job's node count ×
// node–hours lost if a UE struck now — the only workload input the model
// needs). The query is side-effect-free: it reads the node's features
// under a shared lock without recording anything, so polling a node any
// number of times never changes its state. Unknown nodes answer from the
// empty feature state. at should not precede the node's last observed
// event — a lagging poller clock inflates the Eq. 2 variation features.
//
//uerl:hotpath
func (c *Controller) Recommend(node int, at time.Time, potentialCostNodeHours float64) (d Decision) {
	var v features.Vector
	c.peek(&v, node, at, potentialCostNodeHours)
	var norm [FeatureDim]float64
	c.decide(&d, node, at, &v, &norm)
	return d
}

// decide fills d with the policy's decision on feature vector v for node
// at time at: the shared tail of Recommend and TickInto, which pass their
// result slot so the Decision is filled where it is returned. The
// built-in RL and static policies are reached through their concrete
// types, so d and norm stay on the caller's stack and no Decision is
// copied; the RL policy leaves its normalized input in norm, and decide
// reports whether it did.
//
//uerl:hotpath
func (c *Controller) decide(d *Decision, node int, at time.Time, v *features.Vector, norm *[FeatureDim]float64) (normed bool) {
	// Load the policy once (through the accessor): a concurrent
	// SwapPolicy must not mix two models' outputs within one decision.
	policy := c.Policy()
	switch p := policy.(type) {
	case *rlPolicy:
		p.decideInto(d, node, at, v, norm)
		normed = true
	case *staticPolicy:
		p.decideInto(d, node, at, v)
	default:
		*d = policy.Decide(Snapshot{Node: node, Time: at, Features: *v})
		// Normalize bookkeeping so custom policies can leave it to us
		// (the built-in ones fill every field). Features is
		// authoritative: the controller always records the exact
		// snapshot it handed the policy, so audits see the true
		// decision inputs even if a custom policy wrote something else
		// there.
		d.Node, d.Time = node, at
		d.Features = *v
		if d.Policy == "" {
			d.Policy = policy.Name()
		}
		if d.ModelVersion == "" {
			d.ModelVersion = policy.Version()
		}
	}
	// Guard consult: a tripped mitigation budget degrades the decision to
	// ActionNone instead of serving it — graceful suppression, never an
	// error. The check is read-shaped (window expiry only), so Recommend
	// stays side-effect-free w.r.t. node state and allocation-free; budget
	// accounting is charged from the served-decision stream (see
	// Guard.ObserveDecision), not from polling.
	if g := c.guard.Load(); g != nil && d.Action == ActionMitigate {
		if ok, reason := g.allowMitigation(node, at); !ok {
			d.Action = ActionNone
			d.Vetoed = true
			d.VetoReason = reason
		}
	}
	return normed
}

// attachGuard installs g as the controller's mitigation gate. One guard
// per controller: NewGuard calls this, and a second attachment panics.
func (c *Controller) attachGuard(g *Guard) {
	if !c.guard.CompareAndSwap(nil, g) {
		panic("uerl: controller already has a guard attached")
	}
}

// Forget drops a node's accumulated state (e.g. after DIMM replacement).
func (c *Controller) Forget(node int) {
	sh := c.shards[c.shardIndex(node)]
	sh.mu.Lock()
	delete(sh.trackers, node)
	sh.mu.Unlock()
}

// NodeCount reports the number of nodes with tracked state.
func (c *Controller) NodeCount() int {
	total := 0
	for _, sh := range c.shards {
		sh.mu.RLock()
		total += len(sh.trackers)
		sh.mu.RUnlock()
	}
	return total
}
