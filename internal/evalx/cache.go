package evalx

import (
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/env"
	"repro/internal/errlog"
	"repro/internal/jobs"
	"repro/internal/nn"
	"repro/internal/policies"
	"repro/internal/rf"
	"repro/internal/rl"
)

// Cache memoizes the evaluation artifacts that are invariant across figure
// runs, so regenerating the full §5 suite reuses work instead of
// recomputing it:
//
//   - the preprocessed / merged / per-node-grouped tick pipeline and the
//     flat sorted UE-time index, keyed by log identity;
//   - the node-weighted job sampler, keyed by trace identity;
//   - per-split RF training sets and trained forests, keyed by
//     (log, train boundary, forest-config hash) — invariant across
//     mitigation costs, which is why Figure 3's three cost points share one
//     forest per split;
//   - SC20-RF optimal thresholds, keyed additionally by the replay
//     environment and window (they do depend on the mitigation cost);
//   - trained RL policy artifacts, keyed by everything the training
//     trajectory depends on (log, trace, env config, seed, preset, split
//     geometry) — Figure 3's cost sweep, Figure 4 and
//     Table 2 previously retrained byte-identical agents per figure.
//
// Logs and traces handed to a cached run must not be mutated afterwards;
// keys are pointer identities. Each key is computed once: concurrent
// callers asking for a key that is being computed wait for that one
// computation, so Figure 3's cost points, run side by side, share one tick
// pipeline and one forest per split. A nil *Cache is valid and disables
// memoization, so all entry points take an optional cache.
//
// Wallclock training costs are part of the §4.3 accounting: each forest,
// threshold and RL artifact records the cost measured when it was first
// computed (see timed), and cache hits charge that recorded cost, keeping
// rendered figures consistent between cold and warm runs.
type Cache struct {
	ticks      memoMap[*errlog.Log, *TickArtifacts]
	samplers   memoMap[*jobs.Job, *jobs.Sampler]
	datasets   memoMap[datasetKey, RFDataset]
	forests    memoMap[forestKey, forestArtifact]
	thresholds memoMap[thresholdKey, thresholdArtifact]
	rls        memoMap[rlKey, rlArtifact]
}

// NewCache returns an empty artifact cache.
func NewCache() *Cache { return &Cache{} }

// memoMap is one of the Cache's memo tables. Its zero value is empty and
// ready to use.
type memoMap[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoCell[V]
}

// memoCell holds one key's value; its lock is held while the value is
// computed, so concurrent callers wait for that one computation.
type memoCell[V any] struct {
	mu sync.Mutex
	v  V
	ok bool
}

// get returns key's value, running compute on first use. Concurrent gets
// of one key run compute once; compute runs outside the table lock, so a
// slow artifact never blocks other keys. A panicking compute re-raises to
// its caller and leaves the value uncached, so the next get computes it
// afresh.
func (t *memoMap[K, V]) get(key K, compute func() V) V {
	t.mu.Lock()
	c := t.m[key]
	if c == nil {
		if t.m == nil {
			t.m = map[K]*memoCell[V]{}
		}
		c = &memoCell[V]{}
		t.m[key] = c
	}
	t.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.ok {
		c.v = compute()
		c.ok = true
	}
	return c.v
}

// timed runs f and returns its wallclock in hours: the §4.3 training cost
// charged for an artifact. It is measured while sibling fits (Figure 3's
// other cost points) may train concurrently, and stays metadata that never
// feeds a decision. Memoized artifacts record it on the miss and hits
// replay that recording, so cached and cold runs render identically.
func timed(f func()) float64 {
	start := time.Now() //uerl:nondet-ok §4.3 training cost is charged as measured wallclock; it annotates results and never feeds replay decisions
	f()
	return time.Since(start).Hours() //uerl:nondet-ok wallclock training-cost metadata, see above
}

// TickArtifacts is the memoized tick pipeline of one log.
type TickArtifacts struct {
	// Pre is the preprocessed log (sorted, retirement-bias filtered, UE
	// bursts reduced).
	Pre *errlog.Log
	// ByNode holds the merged per-node tick sequences.
	ByNode [][]errlog.Tick
	// UETimes is the flat, sorted index of every UE event time in ByNode,
	// backing the O(log n) window queries the split loops perform.
	UETimes []time.Time
	// oraclePts holds, sorted by UE time, the Oracle mitigation point of
	// every reachable UE (see OraclePoints); window queries binary-search it
	// instead of rescanning every tick of every node.
	oraclePts []oraclePoint
}

// oraclePoint pairs a reachable UE's event time with the Oracle mitigation
// decision that prevents it.
type oraclePoint struct {
	ueTime time.Time
	key    policies.OracleKey
}

// OraclePoints returns the §4.2 Oracle mitigation set for UEs inside
// [from, to) (zero times disable a bound), served from the precomputed
// index. It returns exactly what the standalone OraclePoints computes over
// the artifact's ByNode ticks.
func (a *TickArtifacts) OraclePoints(from, to time.Time) map[policies.OracleKey]bool {
	lo := 0
	if !from.IsZero() {
		lo = sort.Search(len(a.oraclePts), func(i int) bool {
			return !a.oraclePts[i].ueTime.Before(from)
		})
	}
	points := map[policies.OracleKey]bool{}
	for _, p := range a.oraclePts[lo:] {
		if !to.IsZero() && !p.ueTime.Before(to) {
			break
		}
		points[p.key] = true
	}
	return points
}

// Boundary returns the instant frac of the way through the preprocessed
// log's span: the single-split train/test boundary (§4.1).
func (a *TickArtifacts) Boundary(frac float64) time.Time {
	first, last := a.Pre.Span()
	return first.Add(time.Duration(float64(last.Sub(first)) * frac))
}

// oracleIndex precomputes the window-independent part of OraclePoints: the
// reachability conditions (mitigation overhead, prediction window) do not
// depend on the query window, so each reachable UE's point is found once.
func oracleIndex(byNode [][]errlog.Tick) []oraclePoint {
	var out []oraclePoint
	for _, ticks := range byNode {
		lastDecision := time.Time{}
		haveDecision := false
		for _, tick := range ticks {
			if tick.HasUE() {
				ut := ueEventTime(tick)
				gap := ut.Sub(lastDecision)
				if haveDecision && gap >= OracleOverhead && gap <= PredictionWindow {
					out = append(out, oraclePoint{
						ueTime: ut,
						key:    policies.OracleKey{Node: tick.Node, Time: lastDecision},
					})
				}
				continue
			}
			lastDecision = tick.Time
			haveDecision = true
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ueTime.Before(out[j].ueTime) })
	return out
}

type datasetKey struct {
	log     *errlog.Log
	trainTo int64 // UnixNano
}

type forestKey struct {
	log     *errlog.Log
	trainTo int64
	cfg     rf.ForestConfig
}

type forestArtifact struct {
	forest *rf.Forest
	// trained reports whether the training set had positive samples; a
	// degenerate (never-firing) early-split forest skips the threshold
	// search.
	trained bool
	// costHours is the wallclock spent building the dataset and training
	// the forest when this artifact was computed (§4.3 training cost).
	costHours float64
}

type thresholdKey struct {
	forest   *rf.Forest
	sampler  *jobs.Sampler
	env      env.Config
	jobSeed  int64
	from, to int64
}

type thresholdArtifact struct {
	threshold float64
	costHours float64
}

// rlKey identifies one split's trained RL policy: every input the training
// trajectory depends on. Worker counts and parallelism knobs are absent by
// design — training is bit-deterministic across them — and so are the test
// window bounds, which training never sees. The warm-start chain is covered
// by (parts, split): split k's warm input is split k-1's artifact, itself a
// deterministic function of the same key family.
type rlKey struct {
	log      *errlog.Log
	sampler  *jobs.Sampler
	env      env.Config
	seed     int64
	preset   Preset
	episodes int
	parts    int
	split    int
	trainTo  int64 // UnixNano
	valFrom  int64
}

type rlArtifact struct {
	net       *nn.Network
	policy    rl.Policy
	costHours float64
}

// rlPolicy returns the memoized trained policy for key, training via train
// on first use. The artifact's network is the winning candidate's online
// net (callers clone before mutating; the warm-start path only clones).
func (c *Cache) rlPolicy(key rlKey, train func() (rl.Policy, *nn.Network)) rlArtifact {
	fit := func() (art rlArtifact) {
		art.costHours = timed(func() { art.policy, art.net = train() })
		return art
	}
	if c == nil {
		return fit()
	}
	return c.rls.get(key, fit)
}

// buildTickArtifacts runs the uncached pipeline.
func buildTickArtifacts(log *errlog.Log) *TickArtifacts {
	pre := errlog.Preprocess(log)
	byNode := env.GroupTicks(errlog.Merge(pre, errlog.MergeWindow))
	return &TickArtifacts{
		Pre: pre, ByNode: byNode,
		UETimes:   ueTimeIndex(byNode),
		oraclePts: oracleIndex(byNode),
	}
}

// Ticks returns the memoized tick pipeline for log, computing it on first
// use. A nil cache computes it fresh.
func (c *Cache) Ticks(log *errlog.Log) *TickArtifacts {
	build := func() *TickArtifacts { return buildTickArtifacts(log) }
	if c == nil {
		return build()
	}
	return c.ticks.get(log, build)
}

// Sampler returns the memoized node-weighted sampler for trace. Keying by
// the trace's backing array identity keeps one sampler per generated
// trace, which in turn lets threshold artifacts key on sampler identity.
func (c *Cache) Sampler(trace []jobs.Job) *jobs.Sampler {
	build := func() *jobs.Sampler { return jobs.NewSampler(trace) }
	if c == nil || len(trace) == 0 {
		return build()
	}
	return c.samplers.get(&trace[0], build)
}

// dataset returns the memoized RF training set for ticks before trainTo.
func (c *Cache) dataset(log *errlog.Log, byNode [][]errlog.Tick, trainTo time.Time) RFDataset {
	build := func() RFDataset {
		return BuildRFDataset(TicksUpTo(byNode, trainTo), time.Time{}, trainTo)
	}
	if c == nil {
		return build()
	}
	return c.datasets.get(datasetKey{log: log, trainTo: trainTo.UnixNano()}, build)
}

// forest returns the memoized trained forest for (log, trainTo, cfg). On
// first use it builds (or reuses) the dataset and trains via train; the
// recorded cost is the wallclock of dataset construction plus training.
func (c *Cache) forest(log *errlog.Log, byNode [][]errlog.Tick, trainTo time.Time, cfg rf.ForestConfig, train func(RFDataset) (*rf.Forest, bool)) forestArtifact {
	fit := func() (art forestArtifact) {
		art.costHours = timed(func() { art.forest, art.trained = train(c.dataset(log, byNode, trainTo)) })
		return art
	}
	if c == nil {
		return fit()
	}
	return c.forests.get(forestKey{log: log, trainTo: trainTo.UnixNano(), cfg: cfg}, fit)
}

// threshold returns the memoized optimal threshold for the forest under
// the given replay configuration, searching on first use.
func (c *Cache) threshold(forest *rf.Forest, byNode [][]errlog.Tick, sampler *jobs.Sampler, cfg ReplayConfig) thresholdArtifact {
	search := func() (art thresholdArtifact) {
		art.costHours = timed(func() { art.threshold, _ = OptimalThreshold(forest, nil, byNode, sampler, cfg) })
		return art
	}
	if c == nil {
		return search()
	}
	return c.thresholds.get(thresholdKey{
		forest: forest, sampler: sampler, env: cfg.Env,
		jobSeed: cfg.JobSeed, from: cfg.From.UnixNano(), to: cfg.To.UnixNano(),
	}, search)
}

// ueTimeIndex collects every UE event time in the per-node sequences into
// one sorted slice — the precomputed index behind hasUEIn.
func ueTimeIndex(byNode [][]errlog.Tick) []time.Time {
	var out []time.Time
	for _, ticks := range byNode {
		for _, tick := range ticks {
			if tick.HasUE() {
				out = append(out, ueEventTime(tick))
			}
		}
	}
	// Collected node by node, so times from different nodes interleave.
	slices.SortFunc(out, time.Time.Compare)
	return out
}
