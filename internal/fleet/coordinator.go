// Package fleet is the distributed serving layer: a coordinator that
// rendezvous-hashes node ids across N workers (each wrapping a Controller
// + optional Guard behind a Transport boundary), built robustness-first —
// per-worker health with deterministic-jitter retry/backoff, failover
// that replays each affected node's bounded event journal into the new
// owner, restart detection (a worker answering from a new incarnation
// has its nodes rebuilt from the journal), graceful degradation
// (Recommend for an unreachable node answers a conservative ActionNone
// flagged Degraded, never blocks or errors), and two-phase
// model-artifact distribution over the versioned SaveModel wire format
// with quorum commit.
//
// Every transfer of journaled events to a node's owner — live delivery,
// the catch-up after a suspect recovers, and the rebuilds behind
// failover and rejoin — goes through Coordinator.sync, which keeps a
// per-node applied watermark; the acked count is the sum of those
// watermarks.
//
// A decision tick (Coordinator.TickInto: ingest, decide, account) costs
// one transport round trip in steady state: sync carries the tick's own
// event, the owner's unapplied suffix before it, the query and the guard
// charge in one ReqTick that brings the RL policy's normalized input back
// with the decision. The event travels as the caller passed it, and the
// suffix, decoded from the node's journal window into one reused buffer,
// is empty on a steady tick; one Request/Response pair serves every call,
// so delivery allocates nothing and decodes no event. Every
// case off that path — an unhealthy owner, a rebuild, a deduplicated
// event, a restarted worker refusing the tick — runs the three-call
// path ObserveEvent, Recommend and ObserveDecision run.
//
// Everything the coordinator does is driven by telemetry time and
// seed-forked RNGs: same seed + same event stream + same fault schedule
// reproduce the same decision stream, health transitions and replay
// traffic at any GOMAXPROCS. All coordinator mutation happens on the
// event-ingestion path (one feeding goroutine, like the Controller's
// per-node ordering contract); Recommend is read-only on coordinator
// state, so concurrent probers never perturb a replayed scenario.
//
//uerl:deterministic
package fleet

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	uerl "repro"
	"repro/internal/features"
	"repro/internal/mathx"
)

// Degrade* name the faults behind a Degraded decision (Decision.DegradeReason).
const (
	// DegradeNoWorkers: no worker is live; the fleet serves conservative
	// answers for every node.
	DegradeNoWorkers = "fleet:no-live-workers"
	// DegradeOwnerDown: the node's owner is declared dead and no live
	// worker has taken the node over yet.
	DegradeOwnerDown = "fleet:owner-down"
	// DegradeUnreachable: the delivery to the node's owner failed (hung
	// or just died); health accounting will catch up on the ingestion
	// path.
	DegradeUnreachable = "fleet:owner-unreachable"
)

// A Coordinator is a drop-in serving layer for the online-learning
// lifecycle (uerl.NewServingLearner).
var _ uerl.Serving = (*Coordinator)(nil)

// A Coordinator serves a decision tick in one round trip.
var _ uerl.Ticker = (*Coordinator)(nil)

// Config parameterizes a Coordinator.
type Config struct {
	// Workers is the number of worker slots (required, >= 1).
	Workers int
	// Seed feeds the per-worker retry-jitter RNGs (forked per worker).
	Seed int64
	// Initial is the policy the fleet serves before any deploy; also the
	// default worker factory's initial policy. Required.
	Initial uerl.Policy
	// NewWorker builds worker id (start and rejoin-after-kill). Nil
	// defaults to NewWorker(id, Initial) — unguarded workers.
	NewWorker func(id int) *Worker
	// JournalCapacity bounds each node's replay window (default 512
	// events).
	JournalCapacity int
	// DedupWindow absorbs duplicated deliveries (see EventJournal);
	// default 0 (off).
	DedupWindow time.Duration
	// FailureThreshold is the number of consecutive failed attempts
	// before a worker is declared dead (default 3).
	FailureThreshold int
	// RetryBackoff is the base telemetry-time delay between retries
	// (default 30s), doubling per consecutive failure with ±50% jitter
	// up to retryBackoffMax.
	RetryBackoff time.Duration
}

// retryBackoffMax caps the retry backoff — also the rejoin discovery
// latency bound for a long-dead worker.
const retryBackoffMax = 10 * time.Minute

func (cfg *Config) applyDefaults() error {
	if cfg.Workers <= 0 {
		return fmt.Errorf("fleet: Config.Workers must be >= 1, got %d", cfg.Workers)
	}
	if cfg.Initial == nil {
		return fmt.Errorf("fleet: Config.Initial policy is required")
	}
	if cfg.JournalCapacity <= 0 {
		cfg.JournalCapacity = 512
	}
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 30 * time.Second
	}
	return nil
}

// nodeState is the coordinator's ledger for one journaled node: who owns
// it, how far the owner has applied its events, and its journal window,
// held by value so a steady tick touches this one record.
type nodeState struct {
	node int
	// owner is the worker currently holding the node's tracker state;
	// -1 while the node is orphaned (no live worker).
	owner int
	// win is the node's journal window.
	win journalWindow
	// applied is how many of the node's journaled events have been
	// applied to the current owner's state (the node's acked count);
	// win.ring.Pushed() - applied is the pending backlog.
	applied uint64
	// lost counts events permanently unreplayable into the current
	// state: trimmed from the bounded journal before the last full
	// rebuild needed them. Zero for a node that never rebuilt.
	lost uint64
}

// Coordinator implements uerl.Serving across a worker fleet. See the
// package comment for the robustness and determinism contracts.
type Coordinator struct {
	mu  sync.Mutex
	cfg Config
	tr  Transport

	journal *EventJournal
	workers []*workerHealth
	nodes   map[int]*nodeState
	// clock is the max event time observed — the only time source for
	// health decisions.
	clock time.Time
	// nextProbe is at or before the nextRetry of every worker that is
	// not live, so maintain has nothing due before it.
	nextProbe time.Time

	// req and resp are the one Request/Response pair every transport
	// call goes through (see call); suffix is sync's buffer for the
	// decoded journal suffix, which holds a full window, so it never
	// grows.
	req    Request
	resp   Response
	suffix []uerl.Event

	committed uerl.Policy
	// committedBytes is the committed policy's SaveModel artifact, kept
	// for re-staging onto recovering/rejoining workers; nil until the
	// first deploy (workers then already serve Initial from the factory).
	committedBytes []byte

	failovers      int
	rejoins        int
	replayedNodes  int
	replayedEvents int
}

// NewCoordinator builds a coordinator over an existing transport (the
// workers behind it must serve cfg.Initial). Most callers want
// NewInProcess instead.
func NewCoordinator(cfg Config, tr Transport) (*Coordinator, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	if tr == nil {
		return nil, fmt.Errorf("fleet: NewCoordinator with nil transport")
	}
	c := &Coordinator{
		cfg:       cfg,
		tr:        tr,
		journal:   NewEventJournal(cfg.JournalCapacity, cfg.DedupWindow),
		workers:   make([]*workerHealth, cfg.Workers),
		nodes:     map[int]*nodeState{},
		committed: cfg.Initial,
		suffix:    make([]uerl.Event, 0, cfg.JournalCapacity),
	}
	root := mathx.NewRNG(cfg.Seed ^ 0x0f1ee7c0)
	for i := range c.workers {
		c.workers[i] = &workerHealth{id: i, state: WorkerLive, rng: root.Fork()}
	}
	return c, nil
}

// NewInProcess builds the single-binary multi-worker deployment: a
// coordinator over a ChanTransport of cfg.Workers in-process workers,
// each call served synchronously on the caller's goroutine.
// The returned transport doubles as the fault injector (Kill/Hang/Rejoin)
// for tests and scenarios.
func NewInProcess(cfg Config) (*Coordinator, *ChanTransport, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, nil, err
	}
	factory := cfg.NewWorker
	if factory == nil {
		initial := cfg.Initial
		factory = func(id int) *Worker { return NewWorker(id, initial) }
	}
	tr := NewChanTransport(cfg.Workers, factory)
	c, err := NewCoordinator(cfg, tr)
	if err != nil {
		return nil, nil, err
	}
	return c, tr, nil
}

// hrwScore is the rendezvous (highest-random-weight) hash of (node,
// worker): each node independently ranks all workers, the live worker
// with the top score owns the node. Minimal disruption by construction —
// a worker's death moves only its own nodes, and its rejoin moves exactly
// those nodes back.
func hrwScore(node, worker int) uint64 {
	x := uint64(node)*0x9E3779B97F4A7C15 ^ (uint64(worker)+1)*0xBF58476D1CE4E5B9
	// splitmix64 finalizer: full avalanche so dense node/worker ids
	// spread uniformly.
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// hrwOwner returns the live worker owning node, or -1 when none is live.
// Callers hold c.mu.
func (c *Coordinator) hrwOwner(node int) int {
	best, bestScore := -1, uint64(0)
	for _, h := range c.workers {
		if h.state == WorkerDown {
			continue
		}
		if s := hrwScore(node, h.id); best == -1 || s > bestScore {
			best, bestScore = h.id, s
		}
	}
	return best
}

// ObserveEvent ingests one telemetry event: advance the clock, run due
// health probes, journal the event (dedup permitting), and deliver it to
// the node's owner — catching the owner up from the journal first if it
// has a backlog. Events must arrive in non-decreasing time order per
// node; all ingestion must come from one goroutine for byte-identical
// replay (the Controller's own determinism contract).
func (c *Coordinator) ObserveEvent(e uerl.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ns := c.ingest(&e); ns != nil {
		c.deliver(ns, nil, 0)
	}
}

// TickInto is one decision tick in one call: ObserveEvent(e), then
// Recommend(e.Node, e.Time, potentialCostNodeHours), then
// ObserveDecision of the answer, under one lock hold, with the answer
// filled into d. When the owner is live and the journal still holds its
// unapplied suffix, the three travel as one ReqTick; every other case
// runs the three-call path, so the decisions, health transitions, replay
// counts and guard ledgers match the three separate calls exactly. A
// ReqTick served by the built-in RL policy brings its normalized input
// back, and TickInto copies it into norm and reports normed (see
// uerl.Ticker); the three-call path leaves norm untouched.
//
//uerl:hotpath
func (c *Coordinator) TickInto(d *uerl.Decision, e uerl.Event, potentialCostNodeHours float64, norm *[uerl.FeatureDim]float64) (normed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ns := c.ingest(&e); ns != nil {
		if c.deliver(ns, &e, potentialCostNodeHours) {
			*d = c.resp.Decision
			d.StaleEvents = c.staleness(ns)
			if c.resp.Normed {
				*norm = c.resp.Normalized
			}
			return c.resp.Normed
		}
	}
	*d = c.recommend(e.Node, e.Time, potentialCostNodeHours)
	c.observeDecision(d)
	return false
}

// ingest is ObserveEvent's bookkeeping before delivery: advance the
// clock, run due health probes and journal e. It returns e's node ledger,
// or nil when e was a deduplicated redelivery (the state already
// reflects it). Caller holds c.mu.
//
//uerl:hotpath
func (c *Coordinator) ingest(e *uerl.Event) *nodeState {
	if e.Time.After(c.clock) {
		c.clock = e.Time
	}
	c.maintain(false)
	ns, ok := c.nodes[e.Node]
	if !ok {
		ns = c.addNode(e.Node)
	}
	if c.journal.Append(&ns.win, e) {
		return nil
	}
	return ns
}

// addNode opens the ledger of a node seen for the first time. Caller
// holds c.mu.
func (c *Coordinator) addNode(node int) *nodeState {
	ns := &nodeState{node: node, owner: c.hrwOwner(node), win: c.journal.newWindow()}
	c.nodes[node] = ns
	return ns
}

// sortedNodes returns the node ledgers in ascending node order, the
// deterministic order failover, rejoin and reconciliation walk them in.
// Caller holds c.mu.
func (c *Coordinator) sortedNodes() []*nodeState {
	out := make([]*nodeState, 0, len(c.nodes))
	for _, ns := range c.nodes {
		out = append(out, ns)
	}
	slices.SortFunc(out, func(a, b *nodeState) int { return cmp.Compare(a.node, b.node) })
	return out
}

// deliver syncs the node's journal backlog (usually just the newest
// event) to its owner, charging health on failure. With tick set (the
// node's newest journaled event) and a live owner the sync also answers
// the tick's query at potential cost cost and charges the owner's guard;
// served reports whether it did, and then c.resp holds the decision.
// Caller holds c.mu.
//
//uerl:hotpath
func (c *Coordinator) deliver(ns *nodeState, tick *uerl.Event, cost float64) (served bool) {
	if ns.owner < 0 {
		return false // orphaned: every worker is down; rejoinWorker re-homes it
	}
	h := c.workers[ns.owner]
	if h.state == WorkerDown {
		return false // backlog waits for failover/rejoin to resolve the owner
	}
	if h.state == WorkerSuspect && c.clock.Before(h.nextRetry) {
		return false // backing off; backlog journals and waits
	}
	if h.state != WorkerLive {
		tick = nil // a recovering suspect catches up first (noteRecovery)
	}
	served, err := c.sync(ns, false, tick, cost)
	if err != nil {
		c.noteFailure(h)
		return false
	}
	if h.state == WorkerSuspect {
		c.noteRecovery(h)
	}
	h.failures = 0
	return served
}

// sync is the one path that moves journaled events to the node's owner.
// It sends the suffix the owner has not applied yet, decoded from the
// journal; with rebuild set, or when the bounded journal trimmed part of
// that suffix, it sends the full retained window and has the owner drop
// its state first. Events trimmed before a rebuild are gone from the
// rebuilt state and recorded in ns.lost (surfaced as
// Decision.StaleEvents). A one-event catch-up travels as a plain
// observe; everything else is replay traffic. An owner answering from a
// new incarnation restarted and lost the state the suffix extends, so it
// is rejoined, which rebuilds every node it owns.
//
// With tick set and no rebuild needed, the tick's event travels as it is
// beside the suffix before it in a ReqTick that also answers the tick's
// query at potential cost cost and charges the owner's guard, and served
// reports that c.resp holds the decision: an owner that serves the tick
// answers from the incarnation the coordinator expected, so nothing
// calls again before sync returns. A restarted owner refuses the tick;
// sync rejoins it and finishes the catch-up the plain way, leaving the
// query unanswered. Caller holds c.mu.
//
//uerl:hotpath
func (c *Coordinator) sync(ns *nodeState, rebuild bool, tick *uerl.Event, cost float64) (served bool, err error) {
	w := &ns.win
	from, to := ns.applied, w.ring.Pushed()
	if rebuild || from < w.ring.Dropped() {
		rebuild, from, tick = true, w.ring.Dropped(), nil
	}
	sent := int(to - from)
	if tick != nil {
		to-- // the newest journaled event is the tick's own
	}
	evs := w.suffix(c.suffix[:0], ns.node, from, to)
	h := c.workers[ns.owner]
	req := c.request(ReqReplay)
	req.Node, req.Events, req.Forget = ns.node, evs, rebuild
	switch {
	case rebuild:
	case tick != nil:
		req.Kind, req.Event, req.Cost, req.Incarnation = ReqTick, *tick, cost, h.incarnation
	case sent == 1:
		c.request(ReqObserve).Event = evs[0]
	}
	resp, err := c.call(ns.owner)
	if err != nil {
		return false, err
	}
	if tick != nil && resp.Err != "" {
		// Refused: the owner applied nothing (it restarted, or the
		// suffix did not lead up to the tick's event).
		if h.restarted(resp.Incarnation) {
			c.rejoinWorker(h)
		}
		if ns.owner != h.id || ns.applied == w.ring.Pushed() {
			return false, nil // the rejoin rebuilt or moved the node
		}
		return c.sync(ns, false, nil, 0)
	}
	if rebuild || sent != 1 {
		c.replayedNodes++
		c.replayedEvents += sent
	}
	if rebuild {
		ns.lost = w.ring.Dropped()
	}
	ns.applied = w.ring.Pushed()
	if h.restarted(resp.Incarnation) {
		c.rejoinWorker(h)
	}
	return tick != nil, nil
}

// request readies the coordinator's one reused Request for kind, to be
// filled in before call. It resets only Kind, and Artifact so a deploy's
// bytes are not retained: each builder sets every field its kind reads.
// Caller holds c.mu.
//
//uerl:hotpath
func (c *Coordinator) request(kind ReqKind) *Request {
	c.req.Kind, c.req.Artifact = kind, nil
	return &c.req
}

// call sends the request built by request to worker w and answers in
// the coordinator's one reused Response, resetting only Err (see
// Response). It stays valid until the next call: copy out what is needed
// before anything that may call again. Caller holds c.mu.
//
//uerl:hotpath
func (c *Coordinator) call(w int) (*Response, error) {
	c.resp.Err = ""
	err := c.tr.Call(w, &c.req, &c.resp)
	return &c.resp, err
}

// rehome moves ns's node to owner (-1 orphans it) and rebuilds it there
// from the journal window. A failed rebuild charges the new owner —
// possibly cascading the failover — and leaves the backlog journaled for
// deliver to retry. Reports whether the rebuild landed. Caller holds
// c.mu.
func (c *Coordinator) rehome(ns *nodeState, owner int) bool {
	ns.owner, ns.applied = owner, 0
	if owner < 0 {
		return false
	}
	if _, err := c.sync(ns, true, nil, 0); err != nil {
		c.noteFailure(c.workers[owner])
		return false
	}
	return true
}

// noteFailure charges one failed attempt against h: live → suspect with a
// retry deadline, suspect → closer to the death threshold, threshold →
// declared dead with failover. Caller holds c.mu.
func (c *Coordinator) noteFailure(h *workerHealth) {
	h.failures++
	if h.state != WorkerDown && h.failures >= c.cfg.FailureThreshold {
		c.declareDead(h)
		return
	}
	if h.state == WorkerLive {
		h.state = WorkerSuspect
	}
	c.retryAt(h)
}

// retryAt schedules h's next attempt after its latest failure, keeping
// nextProbe at or before it. Caller holds c.mu.
func (c *Coordinator) retryAt(h *workerHealth) {
	h.nextRetry = c.clock.Add(h.backoff(c.cfg.RetryBackoff, h.failures))
	if h.nextRetry.Before(c.nextProbe) {
		c.nextProbe = h.nextRetry
	}
}

// noteRecovery clears a suspect worker back to live, re-staging a missed
// model deploy and catching up the backlog of every node it owns.
// Caller holds c.mu.
func (c *Coordinator) noteRecovery(h *workerHealth) {
	h.state = WorkerLive
	h.failures = 0
	c.restage(h)
	c.reconcileWorker(h.id)
}

// declareDead fails h over: every node it owns moves to its
// rendezvous-next live worker and is rebuilt there from the journal;
// with no live workers left the nodes are orphaned (served Degraded)
// until a rejoin. Caller holds c.mu.
func (c *Coordinator) declareDead(h *workerHealth) {
	h.state = WorkerDown
	c.retryAt(h)
	c.failovers++
	for _, ns := range c.sortedNodes() {
		if ns.owner == h.id {
			c.rehome(ns, c.hrwOwner(ns.node))
		}
	}
}

// rejoinWorker brings a probed-back or restarted worker in: it re-stages
// the committed model if the worker missed a deploy, then re-homes every
// node whose rendezvous owner it is (exactly the nodes it owned before
// dying or restarting), rebuilding each from the journal window. Caller
// holds c.mu.
func (c *Coordinator) rejoinWorker(h *workerHealth) {
	h.state = WorkerLive
	h.failures = 0
	h.modelStale = c.committedBytes != nil
	c.rejoins++
	c.restage(h)
	for _, ns := range c.sortedNodes() {
		if c.hrwOwner(ns.node) != h.id {
			continue
		}
		old := ns.owner
		if !c.rehome(ns, h.id) {
			continue
		}
		if old >= 0 && old != h.id && c.workers[old].state != WorkerDown {
			// Best-effort: drop the node's stale state on the previous
			// owner so its footprint reflects only nodes it serves.
			c.request(ReqForget).Node = ns.node
			_, _ = c.call(old)
		}
	}
}

// restage pushes the committed artifact onto a worker that missed its
// deploy (stage + commit); failure keeps modelStale set for the next
// recovery. Caller holds c.mu.
func (c *Coordinator) restage(h *workerHealth) {
	if !h.modelStale || c.committedBytes == nil {
		return
	}
	c.request(ReqStage).Artifact = c.committedBytes
	if resp, err := c.call(h.id); err != nil || resp.Err != "" {
		return
	}
	c.request(ReqCommit).Version = c.committed.Version()
	if resp, err := c.call(h.id); err != nil || resp.Err != "" {
		return
	}
	h.modelStale = false
}

// reconcileWorker catches up the journal backlog of every node owned by
// worker id. Caller holds c.mu.
func (c *Coordinator) reconcileWorker(id int) {
	for _, ns := range c.sortedNodes() {
		if ns.owner != id || ns.applied == ns.win.ring.Pushed() {
			continue
		}
		if _, err := c.sync(ns, false, nil, 0); err != nil {
			c.noteFailure(c.workers[id])
			return
		}
	}
}

// maintain runs due health probes against suspect and down workers on
// the telemetry clock: a successful probe recovers a suspect, a failed
// one backs off further (suspects crossing the failure threshold are
// declared dead), and a down or restarted worker rejoins. Before
// nextProbe no probe is due, so it returns at once. force ignores the
// backoff schedule and probes every worker now, live ones included —
// Reconcile's settling semantics. Caller holds c.mu.
//
//uerl:hotpath
func (c *Coordinator) maintain(force bool) {
	if !force && c.clock.Before(c.nextProbe) {
		return
	}
	for _, h := range c.workers {
		if !force && (h.state == WorkerLive || c.clock.Before(h.nextRetry)) {
			continue
		}
		c.request(ReqPing)
		resp, err := c.call(h.id)
		switch {
		case err != nil:
			c.noteFailure(h)
		case h.restarted(resp.Incarnation) || h.state == WorkerDown:
			c.rejoinWorker(h)
		case h.state == WorkerSuspect:
			c.noteRecovery(h)
		}
	}
	c.nextProbe = farFuture
	for _, h := range c.workers {
		if h.state != WorkerLive && h.nextRetry.Before(c.nextProbe) {
			c.nextProbe = h.nextRetry
		}
	}
}

// farFuture is nextProbe while every worker is live.
var farFuture = time.Unix(1<<62, 0)

// Reconcile settles the fleet now: it probes every worker (ignoring the
// backoff schedule — recovered and restarted workers rejoin immediately)
// and force-flushes every node's journal backlog to its owner. The
// end-of-stream settling step scenario runners and tests call before
// comparing state; ongoing traffic does not need it, deliver catches
// owners up lazily.
func (c *Coordinator) Reconcile() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maintain(true)
	for _, ns := range c.sortedNodes() {
		if ns.applied != ns.win.ring.Pushed() {
			c.deliver(ns, nil, 0)
		}
	}
}

// staleness bounds how stale the served state of ns's node is: journaled
// events not yet applied to the owner plus events lost to a rebuild; 0
// for a node never journaled (nil ns). Caller holds c.mu.
func (c *Coordinator) staleness(ns *nodeState) int {
	if ns == nil {
		return 0
	}
	return int(ns.win.ring.Pushed()-ns.applied) + int(ns.lost)
}

// degraded builds the conservative answer for node (ledger ns) whose owner
// cannot serve: ActionNone, flagged Degraded with the fault named, the
// committed policy identity for audit, and the staleness bound. Caller
// holds c.mu.
func (c *Coordinator) degraded(node int, ns *nodeState, at time.Time, cost float64, reason string) uerl.Decision {
	d := uerl.Decision{
		Node:          node,
		Time:          at,
		Action:        uerl.ActionNone,
		Policy:        c.committed.Name(),
		ModelVersion:  c.committed.Version(),
		Degraded:      true,
		DegradeReason: reason,
		StaleEvents:   c.staleness(ns),
	}
	// Match the empty-state feature shape Recommend would report (the
	// potential cost is an input, not tracker state).
	d.Features[features.UECost] = cost
	return d
}

// Recommend answers a mitigation query from the node's owner. It never
// blocks on a faulted worker and never errors: when the owner cannot
// answer (dead, hung, orphaned, or no live workers), it returns a
// conservative ActionNone flagged Degraded — mirroring the Vetoed
// contract — with DegradeReason naming the fault and StaleEvents
// bounding how much journaled state the answer is missing. Recommend
// reads but never mutates coordinator state (health, journal, clock), so
// concurrent pollers cannot perturb a deterministic replay; health is
// charged on the ingestion path only.
func (c *Coordinator) Recommend(node int, at time.Time, potentialCostNodeHours float64) uerl.Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recommend(node, at, potentialCostNodeHours)
}

// recommend is Recommend's body. Caller holds c.mu.
func (c *Coordinator) recommend(node int, at time.Time, potentialCostNodeHours float64) (d uerl.Decision) {
	ns := c.nodes[node]
	owner := -1
	if ns != nil {
		owner = ns.owner
	} else {
		owner = c.hrwOwner(node)
	}
	if owner < 0 {
		return c.degraded(node, ns, at, potentialCostNodeHours, DegradeNoWorkers)
	}
	if c.workers[owner].state == WorkerDown {
		return c.degraded(node, ns, at, potentialCostNodeHours, DegradeOwnerDown)
	}
	req := c.request(ReqRecommend)
	req.Node, req.At, req.Cost = node, at, potentialCostNodeHours
	resp, err := c.call(owner)
	if err != nil {
		return c.degraded(node, ns, at, potentialCostNodeHours, DegradeUnreachable)
	}
	d = resp.Decision
	d.StaleEvents = c.staleness(ns)
	return d
}

// Policy returns the committed fleet-wide policy.
func (c *Coordinator) Policy() uerl.Policy {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.committed
}

// DeployPolicy rolls p out in two phases over the SaveModel wire format:
// stage to every live worker (each validates the artifact), then — if a
// majority of the live fleet acked — commit; otherwise abort everywhere
// and keep the incumbent, returning an error so the caller records a
// rejected rollout. Workers that missed the deploy (down, or failed
// mid-protocol) are marked model-stale and re-staged when they recover.
func (c *Coordinator) DeployPolicy(p uerl.Policy) (uerl.Policy, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p == nil {
		return c.committed, fmt.Errorf("fleet: DeployPolicy with nil policy")
	}
	var buf bytes.Buffer
	if err := uerl.SaveModel(&buf, p); err != nil {
		return c.committed, fmt.Errorf("fleet: policy not distributable: %w", err)
	}
	artifact := buf.Bytes()

	var staged, reachable []int
	var rejections []string
	for _, h := range c.workers {
		if h.state == WorkerDown {
			continue
		}
		c.request(ReqStage).Artifact = artifact
		resp, err := c.call(h.id)
		if err != nil {
			c.noteFailure(h)
			continue
		}
		reachable = append(reachable, h.id)
		if resp.Err != "" {
			rejections = append(rejections, fmt.Sprintf("worker %d: %s", h.id, resp.Err))
			continue
		}
		staged = append(staged, h.id)
	}
	quorum := len(reachable)/2 + 1
	if len(reachable) == 0 || len(staged) < quorum {
		for _, id := range staged {
			c.request(ReqAbort)
			_, _ = c.call(id)
		}
		return c.committed, fmt.Errorf("fleet: deploy of %s rejected by quorum (%d/%d staged, need %d): %s",
			p.Version(), len(staged), len(reachable), quorum, firstOr(rejections, "no reachable workers"))
	}
	prev := c.committed
	c.committed = p
	c.committedBytes = artifact
	for _, h := range c.workers {
		h.modelStale = true
	}
	for _, id := range staged {
		c.request(ReqCommit).Version = p.Version()
		resp, err := c.call(id)
		if err != nil {
			c.noteFailure(c.workers[id])
			continue
		}
		if resp.Err == "" {
			c.workers[id].modelStale = false
		}
	}
	return prev, nil
}

func firstOr(list []string, fallback string) string {
	if len(list) == 0 {
		return fallback
	}
	return list[0]
}

// ObserveDecision routes a served decision to the guard of the node's
// owner for budget accounting. Degraded decisions are coordinator-made
// (no worker acted) and are not charged; unreachable owners drop the
// charge — the budget ledger tracks what workers actually enforced.
func (c *Coordinator) ObserveDecision(d uerl.Decision) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observeDecision(&d)
}

// observeDecision is ObserveDecision's body. Caller holds c.mu.
func (c *Coordinator) observeDecision(d *uerl.Decision) {
	if d.Degraded {
		return
	}
	ns, ok := c.nodes[d.Node]
	if !ok || ns.owner < 0 || c.workers[ns.owner].state == WorkerDown {
		return
	}
	c.request(ReqObserveDecision).Decision = *d
	_, _ = c.call(ns.owner)
}

// ObserveUE does nothing: a worker guard charges no budget for realized
// UEs, and probation belongs to the learner. It remains for callers
// written against the earlier accounting surface.
func (c *Coordinator) ObserveUE(node int, at time.Time, realizedCostNodeHours float64) {}

// WorkerHealth is one worker's health and serving state in Stats.
type WorkerHealth struct {
	ID int `json:"id"`
	// State is live, suspect or down.
	State WorkerState `json:"state"`
	// Failures is the consecutive-failure count toward the threshold.
	Failures int `json:"failures,omitempty"`
	// ModelStale marks a worker still missing the committed deploy.
	ModelStale bool `json:"model_stale,omitempty"`
	// OwnedNodes is how many journaled nodes currently route to the
	// worker.
	OwnedNodes int `json:"owned_nodes"`
	// Stats is the worker's own report; nil when unreachable.
	Stats *WorkerStats `json:"stats,omitempty"`
}

// Stats is a point-in-time fleet health report.
type Stats struct {
	// Committed is the fleet-wide committed model version.
	Committed string `json:"committed_version"`
	// Workers is per-worker health in id order.
	Workers []WorkerHealth `json:"workers"`
	// OrphanNodes counts nodes currently without a live owner.
	OrphanNodes int `json:"orphan_nodes"`
	// Failovers counts workers declared dead; Rejoins counts workers
	// brought back.
	Failovers int `json:"failovers"`
	Rejoins   int `json:"rejoins"`
	// ReplayedNodes / ReplayedEvents count journal replay traffic
	// (failover rebuilds and backlog catch-ups).
	ReplayedNodes  int `json:"replayed_nodes"`
	ReplayedEvents int `json:"replayed_events"`
	// AckedEvents counts journaled events the nodes' current owners have
	// confirmed applied, events trimmed before a rebuild included (they
	// surface as Decision.StaleEvents). After Reconcile with no orphans
	// it equals Journal.Appended.
	AckedEvents uint64 `json:"acked_events"`
	// Journal summarizes the replay journal.
	Journal JournalStats `json:"journal"`
}

// Stats reports fleet health: per-worker state (querying reachable
// workers for their own serving stats), failover/replay totals and
// journal activity.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Committed:      c.committed.Version(),
		Failovers:      c.failovers,
		Rejoins:        c.rejoins,
		ReplayedNodes:  c.replayedNodes,
		ReplayedEvents: c.replayedEvents,
		Journal:        JournalStats{Nodes: len(c.nodes), Deduped: c.journal.deduped},
	}
	owned := make(map[int]int, len(c.workers))
	for _, ns := range c.nodes {
		st.Journal.Appended += ns.win.ring.Pushed()
		st.Journal.Trimmed += ns.win.ring.Dropped()
		if ns.owner < 0 {
			st.OrphanNodes++
			continue
		}
		owned[ns.owner]++
		st.AckedEvents += ns.applied
	}
	for _, h := range c.workers {
		wh := WorkerHealth{
			ID: h.id, State: h.state, Failures: h.failures,
			ModelStale: h.modelStale, OwnedNodes: owned[h.id],
		}
		if h.state != WorkerDown {
			c.request(ReqStats)
			if resp, err := c.call(h.id); err == nil {
				ws := resp.Stats
				wh.Stats = &ws
			}
		}
		st.Workers = append(st.Workers, wh)
	}
	return st
}
