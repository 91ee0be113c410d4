package fleet

import (
	"errors"
	"time"

	uerl "repro"
)

// ReqKind selects the worker operation a Request carries.
type ReqKind int

const (
	// ReqPing checks liveness; it carries no payload.
	ReqPing ReqKind = iota
	// ReqObserve ingests Request.Event into the worker's controller.
	ReqObserve
	// ReqReplay re-applies Request.Events (a journal window, oldest
	// first) to Request.Node. With Forget set the worker drops the
	// node's state first — a full rebuild; without it the events extend
	// the node's existing state — a catch-up of deliveries the worker
	// missed.
	ReqReplay
	// ReqForget drops Request.Node's state (the node moved to another
	// worker).
	ReqForget
	// ReqRecommend answers a mitigation query for Request.Node at
	// Request.At with potential cost Request.Cost in Response.Decision.
	ReqRecommend
	// ReqStage validates Request.Artifact (a SaveModel document) and
	// holds the decoded policy for a later ReqCommit, reporting its
	// version in Response.Version. A validation failure is reported in
	// Response.Err — an application-level rejection, not a transport
	// failure.
	ReqStage
	// ReqCommit swaps the staged policy matching Request.Version into
	// the worker's controller.
	ReqCommit
	// ReqAbort discards any staged policy.
	ReqAbort
	// ReqStats reports the worker's serving state in Response.Stats.
	ReqStats
	// ReqObserveDecision feeds Request.Decision to the worker's guard
	// for budget accounting (no-op on unguarded workers).
	ReqObserveDecision
	// ReqTick is one fused decision tick: the worker applies
	// Request.Events (the node's unapplied journal suffix before the
	// tick, oldest first, extending its existing state; empty in steady
	// state), then serves Request.Event, the tick's own event, through
	// its controller's fused TickInto: it ingests the event, answers a
	// mitigation query for the event's node at the event's time with
	// potential cost Request.Cost in Response.Decision (with Normalized
	// and Normed), and feeds that decision to its guard. It is
	// ReqReplay (or ReqObserve), ReqRecommend and ReqObserveDecision in
	// one round trip. Request.Incarnation is the incarnation the
	// coordinator last saw the worker answer from; a worker that has
	// since restarted applies nothing and refuses the tick in
	// Response.Err, because the suffix extends state it no longer has. A
	// suffix holding an event of another node is refused the same way.
	// The suffix is in journal (arrival) order, so an event in it may be
	// later than the tick's own when the stream arrives out of order.
	ReqTick
)

// Request is one coordinator→worker message. Exactly the fields the Kind
// documents are meaningful; the others hold whatever an earlier request
// left there. Events are decoded from the coordinator's journal into a
// buffer it reuses for every call; Event is the caller's event as
// passed, or a decoded one. A decoded event equals the journaled one
// but for a monotonic clock reading, which no wire format carries
// either.
type Request struct {
	Kind     ReqKind
	Event    uerl.Event
	Events   []uerl.Event
	Node     int
	At       time.Time
	Cost     float64
	Decision uerl.Decision
	Artifact []byte
	Version  string
	Forget   bool
	// Incarnation is the worker incarnation a ReqTick expects.
	Incarnation uint64
}

// Response is the worker's answer: it writes the fields its request kind
// documents, and Err, and leaves the others as they were. Err carries
// application-level rejections (e.g. a staged artifact failing
// validation) from a healthy worker; transport-level failures are the
// error return of Transport.Call and count against the worker's health
// instead. Incarnation is stamped by the transport, not the worker (see
// Transport).
type Response struct {
	Decision uerl.Decision
	// Normalized is a ReqTick's RL network input, valid when Normed
	// (see uerl.Ticker).
	Normalized  [uerl.FeatureDim]float64
	Normed      bool
	Stats       WorkerStats
	Version     string
	Err         string
	Incarnation uint64
}

// Transport delivers requests to workers. Call is synchronous: it returns
// after the worker processed the request (resp filled in), or with an
// error when the worker cannot be reached. Neither req nor resp may be
// touched after Call returns: the coordinator reuses one pair for every
// call. Implementations must be safe for concurrent use and must fail
// fast — a dead or hung worker surfaces as an immediate error, never an
// indefinite block, so the coordinator's graceful-degradation contract
// (Recommend never blocks) holds end to end.
//
// Determinism contract: given the same sequence of calls and the same
// fault schedule, Call must return the same results and errors — the
// in-process implementation models a hung worker as a deterministic
// timeout error rather than waiting out wall-clock time. Network
// implementations satisfy the serving contract but naturally cannot
// replay byte-identically; the golden tests pin the in-process transport.
//
// Restart contract: every successful Call stamps Response.Incarnation
// with the identity of the worker process that answered — 0 for the
// slot's first start, and a new value each time the slot's worker
// restarts with empty state. A network implementation can use a
// process start counter or boot nonce. The coordinator compares it on
// the ingestion path and rebuilds a restarted worker's nodes from the
// journal; a transport that cannot tell restarts apart leaves it 0, and
// then a restart the coordinator never saw fail goes undetected. The
// transport also tells each worker its own incarnation when it starts
// it, so a ReqTick carrying a stale incarnation is refused, not applied:
// the coordinator then rejoins the worker, rebuilding its nodes, instead
// of serving a decision from the restarted worker's empty state.
type Transport interface {
	Call(worker int, req *Request, resp *Response) error
}

// ErrWorkerDown reports a worker that is not running (killed, crashed, or
// never started).
var ErrWorkerDown = errors.New("fleet: worker down")

// ErrWorkerTimeout reports a worker that did not answer in time (hung).
// The in-process transport returns it immediately for a worker with a
// hang fault injected — the deterministic stand-in for a wall-clock
// timeout.
var ErrWorkerTimeout = errors.New("fleet: worker timed out")
