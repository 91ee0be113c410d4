package fleet

import (
	"bytes"

	uerl "repro"
)

// WorkerStats is one worker's serving state as reported over the
// transport.
type WorkerStats struct {
	// Nodes is the number of nodes with tracked feature state.
	Nodes int `json:"nodes"`
	// ServingVersion is the model version the worker currently serves.
	ServingVersion string `json:"serving_version"`
	// StagedVersion is a staged-but-uncommitted artifact, if any.
	StagedVersion string `json:"staged_version,omitempty"`
	// Guard summarizes the worker guard's budget enforcement; nil on
	// unguarded workers.
	Guard *uerl.GuardStats `json:"guard,omitempty"`
}

// WorkerOption configures a Worker.
type WorkerOption func(*workerConfig)

type workerConfig struct {
	guardOpts []uerl.GuardOption
	guarded   bool
	stageGate func(version string) error
}

// WithWorkerGuard attaches a per-worker Guard (budget enforcement local
// to the worker's slice of the fleet) built with the given options.
// Worker guards only meter mitigations: the rollout — promotion gates,
// probation and rollback — belongs to the learner driving the
// coordinator.
func WithWorkerGuard(opts ...uerl.GuardOption) WorkerOption {
	return func(c *workerConfig) {
		c.guarded = true
		c.guardOpts = opts
	}
}

// WithStageGate installs a hook consulted before an artifact is staged;
// a non-nil error rejects the artifact (reported as Response.Err). Tests
// use it to exercise the quorum-rollback path; a production worker could
// pin policy kinds or versions with it.
func WithStageGate(gate func(version string) error) WorkerOption {
	return func(c *workerConfig) { c.stageGate = gate }
}

// Worker wraps one Controller (+ optional Guard) behind the transport
// boundary: the unit a coordinator hashes nodes onto. A worker has no
// knowledge of the fleet — it applies whatever the coordinator sends, so
// the same implementation backs live serving, journal replay after a
// failover, and staged model swaps. The transport invokes its methods
// one request at a time (ChanTransport on the caller's goroutine, under
// its mutex).
type Worker struct {
	id int
	// incarnation is the worker process's identity, set by the
	// transport that starts it (see Transport's restart contract).
	incarnation uint64
	ctl         *uerl.Controller
	guard       *uerl.Guard
	staged      uerl.Policy
	stageGate   func(version string) error
}

// NewWorker builds a worker serving initial.
func NewWorker(id int, initial uerl.Policy, opts ...WorkerOption) *Worker {
	var cfg workerConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	ctl := uerl.NewController(initial)
	w := &Worker{id: id, ctl: ctl, stageGate: cfg.stageGate}
	if cfg.guarded {
		w.guard = uerl.NewGuard(ctl, cfg.guardOpts...)
	}
	return w
}

// handle processes one request. Transport-level failures never originate
// here — a reachable worker always answers, reporting application-level
// rejections via resp.Err.
func (w *Worker) handle(req *Request, resp *Response) {
	switch req.Kind {
	case ReqPing:
	case ReqObserve:
		w.ctl.ObserveEvent(req.Event)
	case ReqReplay:
		if req.Forget {
			w.ctl.Forget(req.Node)
		}
		w.apply(req.Events)
	case ReqTick:
		if req.Incarnation != w.incarnation {
			resp.Err = errStaleTick
			return
		}
		for i := range req.Events {
			if req.Events[i].Node != req.Event.Node {
				resp.Err = errTickSuffix
				return
			}
		}
		// The controller's fused tick ingests the tick's event, answers
		// the query, charges the guard and leaves the RL policy's
		// normalized input.
		w.apply(req.Events)
		resp.Normed = w.ctl.TickInto(&resp.Decision, req.Event, req.Cost, &resp.Normalized)
	case ReqForget:
		w.ctl.Forget(req.Node)
	case ReqRecommend:
		resp.Decision = w.ctl.Recommend(req.Node, req.At, req.Cost)
	case ReqStage:
		p, err := uerl.LoadModel(bytes.NewReader(req.Artifact))
		if err != nil {
			resp.Err = "stage: " + err.Error()
			return
		}
		if w.stageGate != nil {
			if err := w.stageGate(p.Version()); err != nil {
				resp.Err = "stage: " + err.Error()
				return
			}
		}
		w.staged = p
		resp.Version = p.Version()
	case ReqCommit:
		if w.staged == nil || w.staged.Version() != req.Version {
			resp.Err = "commit: no staged artifact for version " + req.Version
			return
		}
		w.ctl.SwapPolicy(w.staged)
		w.staged = nil
	case ReqAbort:
		w.staged = nil
	case ReqStats:
		resp.Stats = WorkerStats{
			Nodes:          w.ctl.NodeCount(),
			ServingVersion: w.ctl.Policy().Version(),
		}
		if w.staged != nil {
			resp.Stats.StagedVersion = w.staged.Version()
		}
		if w.guard != nil {
			gs := w.guard.Stats()
			resp.Stats.Guard = &gs
		}
	case ReqObserveDecision:
		if w.guard != nil {
			w.guard.ObserveDecision(req.Decision)
		}
	default:
		resp.Err = "unknown request kind"
	}
}

// errStaleTick refuses a ReqTick addressed to an earlier incarnation.
const errStaleTick = "tick: worker restarted since the coordinator last saw it"

// errTickSuffix refuses a ReqTick whose suffix does not lead up to the
// tick's event: an event of another node, or a later one.
const errTickSuffix = "tick: event suffix does not lead up to the tick's event"

// apply ingests events into the worker's controller, oldest first.
func (w *Worker) apply(events []uerl.Event) {
	for _, e := range events {
		w.ctl.ObserveEvent(e)
	}
}
