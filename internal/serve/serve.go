// Package serve is the multi-client query front end over the
// shared-trajectory estimation engine. A Workspace serves any number of
// named graphs, each behind the restricted access model, and answers
// concurrent estimation queries by recording one random-walk trajectory per
// (budget, walkers, seed) configuration and replaying it through the
// estimation-task registry (core.RegisterTask) for whatever anyone asks
// about — label-pair counts (kind "pairs"), graph size (kind "size"), a
// label-pair census (kind "census") or motif counts (kind "motif"). The
// task kind is deliberately NOT part of the trajectory cache key: a
// mixed-kind batch of queries at one configuration shares a single
// recording, so heterogeneous workloads cost the API calls of one walk.
// Queries arriving within a batching window share a single fleet recording;
// finished trajectories stay cached with a TTL and a workspace-wide byte
// budget, so a popular configuration serves any number of questions and
// clients at the API cost of one walk — the amortization that lets the
// paper's estimators serve heavy traffic.
//
// Trajectories are the system's most expensive artifact (every step cost a
// metered API call), so the workspace can persist them: completed
// recordings are written to a store.Dir as .osnt files, reloaded on restart
// (warm start) and on cache miss, and flushed on graceful shutdown. A
// reloaded trajectory replays to byte-equal estimates, so a restarted
// server answers previously cached queries with zero API spend.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/snapshot"
	"repro/internal/osn"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/walk"

	// sizeest is imported for its "size" task registration only; "pairs"
	// and "census" register from core itself, motif's registration rides
	// along on the direct import.
	"repro/internal/motif"
	_ "repro/internal/sizeest"
)

// ErrQueryBudget is returned when a query's MaxCost cannot pay for the
// trajectory it would trigger and no cached trajectory can serve it.
var ErrQueryBudget = errors.New("serve: query budget smaller than the trajectory cost")

// ErrBadQuery marks a structurally invalid query (unknown kind, missing or
// negative parameters, a batch mixing trajectory configurations); the HTTP
// layer maps it to 400 Bad Request.
var ErrBadQuery = errors.New("serve: bad query")

// ErrEstimation marks a query whose replay could not produce an estimate
// from the recorded trajectory (e.g. a size estimate with too small a
// budget for collisions). The trajectory itself is fine and stays cached;
// the client should retry with a larger budget. The HTTP layer maps it to
// 422 Unprocessable Entity. A query that co-triggered the recording keeps
// its seat in the bill split even when its replay then fails: the spend
// happened on its behalf, and the surviving sharers' Charged shares were
// computed against the frozen sharer count — so the sum of SUCCESSFUL
// answers' Charged can fall short of APICalls by the failed queries'
// shares.
var ErrEstimation = errors.New("serve: estimation failed")

// ErrBadTrajectory marks an attempted trajectory import whose bytes failed
// verification: a corrupt or truncated .osnt image (the CRC and structural
// checks), or a file recorded against a different graph state or burn-in
// than this engine serves. The HTTP layer maps it to 400 Bad Request — the
// puller must fall back to re-recording instead of serving the bytes.
var ErrBadTrajectory = errors.New("serve: trajectory rejected")

// Methods returns the estimator names a "pairs" answer carries, in stable
// order. The names match repro.Method values.
func Methods() []string {
	return []string{
		"NeighborSample-HH",
		"NeighborSample-HT",
		"NeighborExploration-HH",
		"NeighborExploration-HT",
		"NeighborExploration-RW",
	}
}

// Kinds returns the estimation-task kinds the engine dispatches, sorted.
func Kinds() []string { return core.TaskKinds() }

// Config describes an Engine — one served graph with its trajectory cache.
// Engines are usually owned by a Workspace, which supplies Name, Store and
// the byte-budget coordination.
type Config struct {
	// Graph is the served graph. Required.
	Graph *graph.Graph
	// Name is the graph's workspace name, used as its directory in the
	// trajectory store. Required when Store is set; must satisfy
	// store.ValidGraphName.
	Name string
	// Store persists completed trajectories as .osnt files and reloads
	// them on cache miss; nil keeps trajectories in memory only.
	Store *store.Dir
	// BurnIn is the walk burn-in in steps; 0 measures the mixing time
	// T(1e-3) once at engine construction (Section 5.1).
	BurnIn int
	// Budget is the default per-trajectory API-call budget; 0 means 5% of
	// |V| (the paper's largest evaluated budget).
	Budget int
	// Walkers is the default fleet size per recording; 0 means 1.
	Walkers int
	// Seed is the default trajectory seed; queries may override it to force
	// an independent walk.
	Seed int64
	// BatchWindow is how long the first query of a configuration waits
	// before recording, so that concurrent queries join the same fleet run.
	// 0 records immediately (concurrent queries still coalesce while the
	// recording is in flight).
	BatchWindow time.Duration
	// TTL bounds a cached trajectory's age; 0 caches forever (until
	// Invalidate). Trajectories reloaded from the store get a fresh TTL.
	TTL time.Duration
	// MaxCached bounds how many trajectories the cache holds at once; 0
	// means 64. At the cap, expired entries are dropped first, then the
	// least-recently-used completed one — recordings in flight are never
	// evicted. The cap bounds both memory (a trajectory retains its whole
	// sample stream) and the API amplification an adversarial seed sweep
	// could otherwise drive. A Workspace additionally enforces a byte
	// budget across all of its engines' caches.
	MaxCached int
	// SnapshotPath, when set, is the graph's .osnb snapshot on disk:
	// ApplyDelta persists each accepted delta as a .osnd segment beside it
	// before the swap, so a restarted server reloads the mutated graph.
	SnapshotPath string
	// CompactSegments bounds how many .osnd delta segments may accumulate
	// beside SnapshotPath before ApplyDelta compacts them into a fresh base
	// snapshot; 0 means 8. Ignored without SnapshotPath.
	CompactSegments int
	// SourceFactory, when set, builds the upstream osn.Source each recording
	// session meters, from the graph version the recording snapshots. Nil
	// means the in-memory osn.GraphSource — the default simulation backend.
	// Cluster tests inject metered (call-counted, latency-injected, gated)
	// sources here, and a future HTTP crawler backend plugs in the same way.
	SourceFactory func(*graph.Graph) osn.Source

	// now is a test hook for the TTL clock; nil means time.Now.
	now func() time.Time
	// onCached, when set by the owning workspace, is invoked (without any
	// engine lock held) after the cache gains a trajectory, so the
	// workspace can enforce its byte budget.
	onCached func()
}

// Query is one client request: run one estimation task against a shared
// trajectory.
type Query struct {
	// Kind selects the estimation task; empty means "pairs". The kind is
	// not part of the trajectory cache key — queries of different kinds at
	// one (Budget, Walkers, Seed) configuration share one recording.
	Kind string
	// Pairs are the queried label pairs. Required for kind "pairs";
	// optional for kind "motif" (absent = the unlabeled count); ignored
	// otherwise.
	Pairs []graph.LabelPair
	// Motif selects the motif shape for kind "motif": "wedges" or
	// "triangles".
	Motif string
	// Variant selects the mixing measure for kind "assortativity": "degree"
	// (the default when empty) or "label". Ignored otherwise.
	Variant string
	// Top bounds how many census rows kind "census" returns; 0 returns all.
	Top int
	// Budget overrides the engine's per-trajectory API budget when positive.
	Budget int
	// Walkers overrides the engine's fleet size when positive.
	Walkers int
	// Seed overrides the engine's trajectory seed when non-zero. Queries
	// with equal (Budget, Walkers, Seed) share a trajectory.
	Seed int64
	// MaxCost caps the API calls this query may be charged; 0 means
	// unlimited. A query that can only be served by recording a trajectory
	// costlier than MaxCost is rejected with ErrQueryBudget before any call
	// is spent. The check is conservative: it is applied against the
	// recording budget even when a persisted trajectory might have served
	// the query from disk for free, unless that file is already known to
	// exist.
	MaxCost int64
}

// PairAnswer is one pair's estimates, keyed by method name (see Methods).
type PairAnswer struct {
	// Pair echoes the queried label pair.
	Pair graph.LabelPair
	// Estimates maps each method name to its estimate of F.
	Estimates map[string]float64
}

// Answer is the engine's response to one Query.
type Answer struct {
	// Kind echoes the task kind that produced the answer.
	Kind string
	// Pairs is populated for kind "pairs" (the historical response shape).
	Pairs []PairAnswer
	// Result holds the task's typed result for every other kind:
	// sizeest.Result for "size", core.CensusResult for "census",
	// motif.TaskResult for "motif".
	Result any
	// Err is set only on answers of an EstimateBatch call whose replay
	// failed (wrapping ErrEstimation); the batch's other answers are
	// unaffected. Single Estimate calls report replay failures as the
	// call's error instead.
	Err error
	// APICalls is the sampling cost of the trajectory that served the query.
	APICalls int64
	// Charged is this query's accounted share of that cost: 0 on a cache
	// hit, APICalls split evenly across the queries that co-triggered the
	// recording otherwise (and further across the members of a batch).
	Charged int64
	// CacheHit reports whether a previously recorded trajectory served the
	// query without any API spend — from memory or reloaded from the
	// persistent store.
	CacheHit bool
	// SharedBy is how many queries split the recording bill (1 when this
	// query paid alone; 0 on a cache hit).
	SharedBy int
	// Walkers and Samples describe the serving trajectory.
	Walkers int
	Samples int // total recorded samples across the fleet
	// GraphVersion is the delta-log version of the graph the serving
	// trajectory was recorded (or topped up) on, so clients can tell which
	// graph state an estimate reflects.
	GraphVersion uint64
	// StaleSteps is how many of the serving trajectory's steps had to be
	// re-recorded because a graph delta invalidated them — non-zero only
	// when the trajectory was produced by an incremental top-up. 0 means the
	// answer replays a trajectory recorded in one piece on its graph
	// version.
	StaleSteps int
	// StoreKey is the resolved persistent-store spelling of the trajectory
	// that served the query (e.g. "b500_w4_s1_g0.osnt"): the engine defaults
	// applied to the query's budget/walkers/seed, at the serving graph
	// version. A gateway uses it verbatim as the {key} of the trajectory
	// replication endpoints, so peers can pull exactly this recording.
	StoreKey string
}

// Stats counts engine activity since construction.
type Stats struct {
	// Queries is the number of Estimate calls admitted.
	Queries int64
	// PairsServed is the total number of result rows returned (pair
	// estimates, census rows, motif rows; 1 per size answer).
	PairsServed int64
	// TasksByKind counts admitted queries per task kind.
	TasksByKind map[string]int64
	// Recordings is how many trajectories were recorded.
	Recordings int64
	// CacheHits is how many queries were served without triggering or
	// joining a recording.
	CacheHits int64
	// UpstreamCalls is the total API-call spend across recordings.
	UpstreamCalls int64
	// StoreLoads is how many trajectories were reloaded from the
	// persistent store (at zero API spend) instead of being re-recorded.
	StoreLoads int64
	// StoreSaves is how many trajectories were persisted to the store.
	StoreSaves int64
	// StoreErrors counts failed store reads/writes (corrupt files, IO
	// errors, version mismatches); the engine falls back to recording.
	StoreErrors int64
	// Deltas is how many graph deltas the engine has applied.
	Deltas int64
	// TopUps is how many recordings were served by incrementally topping up
	// a stale trajectory instead of re-recording from scratch.
	TopUps int64
	// TopUpSavedCalls is the upstream API spend the top-ups avoided: the sum
	// of their redeemed (prepaid) calls. A top-up's nominal bill equals a
	// fresh recording's; only its nominal bill minus this saving hits the
	// upstream API, and UpstreamCalls counts that actual spend.
	TopUpSavedCalls int64
	// Imports is how many trajectories arrived as verified .osnt bytes from
	// a peer replica (ImportTrajectory) instead of being recorded or loaded
	// from this engine's own store — the replication data plane's hit count.
	Imports int64
}

// trajKey identifies a shareable trajectory configuration.
type trajKey struct {
	budget  int
	walkers int
	seed    int64
}

// storeKey maps a cache key onto its persistent-store spelling at one graph
// version. The version is part of the file name, so a graph's older
// trajectories survive a delta as top-up sources instead of being
// overwritten.
func storeKey(k trajKey, graphVersion uint64) store.Key {
	return store.Key{Budget: k.budget, Walkers: k.walkers, Seed: k.seed, GraphVersion: graphVersion}
}

// entry is one cache slot: a recording in flight (ready open) or done
// (ready closed). sharers counts the queries that joined before completion
// and split the bill; the recording goroutine freezes it under mu before
// closing ready.
type entry struct {
	ready    chan struct{}
	traj     *core.Trajectory
	err      error
	expires  time.Time
	hasTTL   bool
	lastUsed time.Time
	sharers  int
	frozen   bool
	// bytes is the trajectory's .osnt-encoded size — the cache weight the
	// workspace byte budget is enforced against.
	bytes int64
	// dirty marks a completed trajectory not yet persisted to the store;
	// eviction and Flush write it out before dropping it.
	dirty bool
	// fromStore marks a trajectory served from disk rather than recorded:
	// its waiters are cache hits and nobody is billed.
	fromStore bool
	// staleSteps is how many steps a top-up re-recorded when it produced
	// this entry's trajectory (0 for fresh recordings and store loads).
	staleSteps int
}

// flushItem is a dirty trajectory pulled out of the cache for persistence
// outside the engine lock.
type flushItem struct {
	key  trajKey
	ent  *entry
	traj *core.Trajectory
}

// Engine owns one graph and serves estimate queries over shared
// trajectories. The graph is mutable: ApplyDelta swaps in a patched
// copy-on-write version while queries and recordings in flight keep the
// version they started on. All methods are safe for concurrent use.
type Engine struct {
	cfg    Config
	burnIn int

	// graph is the currently served graph version; reads are lock-free so
	// the estimate hot path never contends with delta application.
	graph atomic.Pointer[graph.Graph]
	// deltaMu serializes ApplyDelta: delta persistence, the version chain
	// and compaction must advance one delta at a time.
	deltaMu sync.Mutex

	// pool recycles the O(|V|) session and walker accounting arrays across
	// recordings, so a warm engine's per-estimate allocations are constant
	// in graph size. Sound for the engine's lifetime because deltas only
	// change edges, never the node count.
	pool *osn.Pool

	mu    sync.Mutex
	cache map[trajKey]*entry
	stats Stats
}

// New builds an engine over cfg.Graph, measuring the mixing time once when
// cfg.BurnIn is zero.
func New(cfg Config) (*Engine, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("serve: Config.Graph is required")
	}
	if cfg.Graph.NumNodes() == 0 || cfg.Graph.NumEdges() == 0 {
		return nil, fmt.Errorf("serve: graph has no edges to sample")
	}
	if cfg.Budget < 0 || cfg.Walkers < 0 || cfg.BatchWindow < 0 || cfg.TTL < 0 || cfg.MaxCached < 0 || cfg.CompactSegments < 0 {
		return nil, fmt.Errorf("serve: negative Budget/Walkers/BatchWindow/TTL/MaxCached/CompactSegments")
	}
	if cfg.Store != nil && !store.ValidGraphName(cfg.Name) {
		return nil, fmt.Errorf("serve: a stored engine needs a valid graph name, got %q", cfg.Name)
	}
	if cfg.MaxCached == 0 {
		cfg.MaxCached = 64
	}
	if cfg.CompactSegments == 0 {
		cfg.CompactSegments = 8
	}
	if cfg.Budget == 0 {
		cfg.Budget = cfg.Graph.NumNodes() / 20
		if cfg.Budget < 100 {
			cfg.Budget = 100
		}
	}
	if cfg.Walkers == 0 {
		cfg.Walkers = 1
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	burn := cfg.BurnIn
	if burn <= 0 {
		mixed, err := walk.MixingTime(cfg.Graph, 1e-3, walk.MixingOptions{
			MaxSteps:   5000,
			StartNodes: walk.DefaultMixingStarts(cfg.Graph, 4),
		})
		if err != nil {
			return nil, err
		}
		burn = mixed.Steps
		if burn < 10 {
			burn = 10
		}
	}
	e := &Engine{cfg: cfg, burnIn: burn, cache: make(map[trajKey]*entry)}
	e.pool = osn.NewPool(cfg.Graph.NumNodes())
	e.graph.Store(cfg.Graph)
	return e, nil
}

// Graph returns the currently served graph version. The pointer is a
// consistent snapshot: deltas applied later swap in a new graph without
// mutating this one.
func (e *Engine) Graph() *graph.Graph { return e.graph.Load() }

// ApplyDelta mutates the served graph: the delta is validated and applied
// copy-on-write, persisted as a .osnd segment beside the graph's snapshot
// (when the engine knows one), and the new version swapped in for subsequent
// queries. Cached trajectories of older versions are NOT dropped — the next
// query at their configuration redeems their still-valid steps through an
// incremental top-up instead of paying for a full re-recording. When the
// delta log outgrows CompactSegments, the snapshot is compacted: the base
// .osnb is atomically rewritten at the current version and the absorbed
// segments removed. Returns the new graph version.
func (e *Engine) ApplyDelta(d graph.Delta) (uint64, error) {
	if d.Empty() {
		return 0, fmt.Errorf("%w: empty delta", ErrBadQuery)
	}
	e.deltaMu.Lock()
	defer e.deltaMu.Unlock()
	old := e.Graph()
	ng, err := old.ApplyDelta(d)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	// Persist the segment BEFORE the swap: once queries can observe the new
	// version, a restart must be able to reproduce it.
	if e.cfg.SnapshotPath != "" {
		if _, err := snapshot.SaveDelta(e.cfg.SnapshotPath, old, ng, d); err != nil {
			return 0, err
		}
	}
	e.graph.Store(ng)
	e.mu.Lock()
	e.stats.Deltas++
	e.mu.Unlock()
	if e.cfg.SnapshotPath != "" {
		segs, err := snapshot.ListDeltas(e.cfg.SnapshotPath)
		if err == nil && len(segs) > e.cfg.CompactSegments {
			if _, err := snapshot.CompactSnapshot(e.cfg.SnapshotPath, ng); err == nil {
				// The overlay was folded into a fresh base on disk; serve the
				// flattened CSR in memory too.
				e.graph.Store(ng.Compact())
			} else {
				e.countStoreError()
			}
		}
	}
	return ng.Version(), nil
}

// Name returns the graph's workspace name ("" for a standalone engine).
func (e *Engine) Name() string { return e.cfg.Name }

// BurnIn returns the burn-in applied to every recorded trajectory.
func (e *Engine) BurnIn() int { return e.burnIn }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	snap := e.stats
	snap.TasksByKind = make(map[string]int64, len(e.stats.TasksByKind))
	for k, v := range e.stats.TasksByKind {
		snap.TasksByKind[k] = v
	}
	return snap
}

// CachedTrajectories returns how many completed trajectories the cache
// holds (recordings in flight excluded).
func (e *Engine) CachedTrajectories() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, ent := range e.cache {
		if ent.completed() {
			n++
		}
	}
	return n
}

// CachedBytes returns the total .osnt-encoded size of the completed
// trajectories in the cache — the engine's weight against the workspace
// byte budget.
func (e *Engine) CachedBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var total int64
	for _, ent := range e.cache {
		if ent.completed() && ent.err == nil {
			total += ent.bytes
		}
	}
	return total
}

// completed reports whether the entry's recording (or load) has finished.
func (ent *entry) completed() bool {
	select {
	case <-ent.ready:
		return true
	default:
		return false
	}
}

// Invalidate drops every cached trajectory and deletes the graph's
// persisted .osnt files, e.g. after the served graph's ground truth is
// known to have drifted — a stale trajectory must not resurrect from disk.
// Recordings in flight complete and answer their waiting queries but are
// not re-cached for later ones.
func (e *Engine) Invalidate() {
	e.mu.Lock()
	e.cache = make(map[trajKey]*entry)
	e.mu.Unlock()
	if e.cfg.Store == nil {
		return
	}
	keys, err := e.cfg.Store.Keys(e.cfg.Name)
	if err != nil {
		e.countStoreError()
		return
	}
	for _, k := range keys {
		if err := e.cfg.Store.Remove(e.cfg.Name, k); err != nil {
			e.countStoreError()
		}
	}
}

// Flush persists every dirty cached trajectory to the store, returning the
// first error. It is the graceful-shutdown half of the durability story:
// recordings are normally saved as they complete, and Flush catches any
// whose save failed (the error count is in Stats.StoreErrors). Engines
// without a store flush trivially.
func (e *Engine) Flush() error {
	if e.cfg.Store == nil {
		return nil
	}
	e.mu.Lock()
	var items []flushItem
	for k, ent := range e.cache {
		if ent.completed() && ent.err == nil && ent.dirty {
			items = append(items, flushItem{key: k, ent: ent, traj: ent.traj})
		}
	}
	e.mu.Unlock()
	var firstErr error
	for _, it := range items {
		if err := e.saveItem(it); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// saveItem persists one dirty trajectory and clears its dirty mark. The
// file is keyed by the graph version the trajectory was recorded on, which
// may be older than the engine's current graph.
func (e *Engine) saveItem(it flushItem) error {
	err := e.cfg.Store.Save(e.cfg.Name, storeKey(it.key, it.traj.GraphVersion), it.traj)
	e.mu.Lock()
	if err != nil {
		e.stats.StoreErrors++
	} else {
		it.ent.dirty = false
		e.stats.StoreSaves++
	}
	e.mu.Unlock()
	return err
}

// countStoreError bumps the store-error counter under the lock.
func (e *Engine) countStoreError() {
	e.mu.Lock()
	e.stats.StoreErrors++
	e.mu.Unlock()
}

// warmStart loads every persisted trajectory of this graph's CURRENT
// version into the cache (up to MaxCached), so the first queries after a
// restart are served with zero API spend. Files of older graph versions are
// left on disk as top-up sources; files that fail to load — corrupt,
// truncated, or recorded against a different graph — are skipped and
// counted in Stats.StoreErrors. It returns how many trajectories were
// loaded.
func (e *Engine) warmStart() int {
	if e.cfg.Store == nil {
		return 0
	}
	keys, err := e.cfg.Store.Keys(e.cfg.Name)
	if err != nil {
		e.countStoreError()
		return 0
	}
	version := e.Graph().Version()
	loaded := 0
	for _, k := range keys {
		if k.GraphVersion != version {
			continue
		}
		e.mu.Lock()
		full := len(e.cache) >= e.cfg.MaxCached
		e.mu.Unlock()
		if full {
			break
		}
		key := trajKey{budget: k.Budget, walkers: k.Walkers, seed: k.Seed}
		if ent := e.loadEntry(key); ent != nil {
			e.mu.Lock()
			if _, exists := e.cache[key]; !exists {
				e.cache[key] = ent
				e.stats.StoreLoads++
				loaded++
			}
			e.mu.Unlock()
		}
	}
	if loaded > 0 {
		e.notifyCached()
	}
	return loaded
}

// loadEntry reads the persisted trajectory recorded on the engine's current
// graph version and wraps it as a completed cache entry, or returns nil
// (counting the error) if the file is missing, corrupt, or recorded against
// a different graph state.
func (e *Engine) loadEntry(key trajKey) *entry {
	g := e.Graph()
	sk := storeKey(key, g.Version())
	traj, err := e.cfg.Store.Load(e.cfg.Name, sk)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			e.countStoreError()
		}
		return nil
	}
	if traj.GraphVersion != g.Version() || traj.GraphFingerprint != g.Fingerprint() {
		// Hard identity check: the header's delta-log version and content
		// fingerprint must both match the served graph. This replaces the old
		// |V|/|E| prior heuristic, which an equal-sized but rewired graph
		// (exactly what edge churn produces) would slip past.
		e.countStoreError()
		return nil
	}
	if traj.BurnIn != e.burnIn {
		// Recorded under a different burn-in (the server's -burnin changed,
		// or the measured mixing time moved with a new graph build): not
		// the trajectory this engine would record, so serving it would be
		// silently inconsistent with fresh recordings at sibling keys.
		e.countStoreError()
		return nil
	}
	// Rebind the trajectory to the served graph's labels — the exact source
	// the recording read (deltas touch edges, never labels) — so replays run
	// at CSR speed instead of through the file's self-contained label store.
	traj.BindLabels(g)
	bytes, err := e.cfg.Store.FileSize(e.cfg.Name, sk)
	if err != nil {
		// Raced with a concurrent replace; fall back to re-deriving the
		// size (equal by the format's construction).
		bytes = store.EncodedSize(traj)
	}
	ent := &entry{
		ready:     make(chan struct{}),
		traj:      traj,
		frozen:    true,
		fromStore: true,
		bytes:     bytes,
		lastUsed:  e.cfg.now(),
	}
	if e.cfg.TTL > 0 {
		ent.expires = e.cfg.now().Add(e.cfg.TTL)
		ent.hasTTL = true
	}
	close(ent.ready)
	return ent
}

// notifyCached tells the owning workspace (if any) that the cache gained a
// trajectory, so it can enforce the byte budget. Never called with e.mu
// held.
func (e *Engine) notifyCached() {
	if e.cfg.onCached != nil {
		e.cfg.onCached()
	}
}

// buildTask validates a query's task parameters through the registry and
// returns the resolved kind and replayable task.
func buildTask(q Query) (string, core.EstimationTask, error) {
	kind := q.Kind
	if kind == "" {
		kind = "pairs"
	}
	spec, ok := core.LookupTask(kind)
	if !ok {
		return "", nil, fmt.Errorf("%w: unknown kind %q (have %v)", ErrBadQuery, kind, core.TaskKinds())
	}
	task, err := spec.NewTask(core.TaskParams{Pairs: q.Pairs, Motif: q.Motif, Top: q.Top, Variant: q.Variant})
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	if q.Budget < 0 || q.Walkers < 0 || q.MaxCost < 0 {
		return "", nil, fmt.Errorf("%w: negative Budget/Walkers/MaxCost", ErrBadQuery)
	}
	return kind, task, nil
}

// resolveKey maps a query onto its trajectory cache key, applying the
// engine defaults.
func (e *Engine) resolveKey(q Query) trajKey {
	key := trajKey{budget: e.cfg.Budget, walkers: e.cfg.Walkers, seed: e.cfg.Seed}
	if q.Budget > 0 {
		key.budget = q.Budget
	}
	if q.Walkers > 0 {
		key.walkers = q.Walkers
	}
	if q.Seed != 0 {
		key.seed = q.Seed
	}
	return key
}

// Estimate answers one query: it resolves the query's task kind through the
// estimation-task registry, then records a trajectory, joins one in flight,
// reloads a persisted one, or replays a cached one as the cache dictates,
// and finally replays the task over it. Parameter validation happens before
// any API spend.
func (e *Engine) Estimate(ctx context.Context, q Query) (*Answer, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	kind, task, err := buildTask(q)
	if err != nil {
		return nil, err
	}
	key := e.resolveKey(q)
	ent, hit, err := e.acquire(ctx, q, key)
	if err != nil {
		return nil, err
	}
	if ent.err != nil {
		return nil, ent.err
	}

	ans, err := e.replay(kind, task, ent, hit)
	if err != nil {
		return nil, err
	}
	ans.StoreKey = storeKey(key, ans.GraphVersion).Filename()
	e.countQuery(kind, ans)
	return ans, nil
}

// EstimateBatch answers several queries against ONE shared trajectory: all
// queries must resolve to the same (budget, walkers, seed) configuration
// (zero fields inherit the engine defaults), the trajectory is acquired
// once, and each query's task replays over it. Mixing kinds is the point —
// the kind is not part of the trajectory key — and the recording bill is
// split across the batch members on top of the usual co-triggering split.
// A per-query replay failure sets that answer's Err (wrapping
// ErrEstimation) without failing the batch; invalid queries fail the whole
// batch before any API spend.
func (e *Engine) EstimateBatch(ctx context.Context, qs []Query) ([]*Answer, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(qs) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadQuery)
	}
	kinds := make([]string, len(qs))
	tasks := make([]core.EstimationTask, len(qs))
	key := e.resolveKey(qs[0])
	var maxCost int64
	for i, q := range qs {
		kind, task, err := buildTask(q)
		if err != nil {
			return nil, fmt.Errorf("batch query %d: %w", i, err)
		}
		kinds[i], tasks[i] = kind, task
		if e.resolveKey(q) != key {
			return nil, fmt.Errorf("%w: batch query %d resolves to a different trajectory configuration than query 0 — a batch shares one walk", ErrBadQuery, i)
		}
		if q.MaxCost > 0 && (maxCost == 0 || q.MaxCost < maxCost) {
			maxCost = q.MaxCost
		}
	}

	ent, hit, err := e.acquire(ctx, Query{MaxCost: maxCost}, key)
	if err != nil {
		return nil, err
	}
	if ent.err != nil {
		return nil, ent.err
	}

	// One fused pass over the trajectory's step columns answers the whole
	// batch: every streaming task's aggregators ride the same column sweep,
	// and per-query replay failures drop out without disturbing the rest.
	outs, errs := core.RunTasksFused(ent.traj, tasks)
	answers := make([]*Answer, len(qs))
	for i := range qs {
		var ans *Answer
		if errs[i] != nil {
			// Replay failures are per-query: the shared trajectory still
			// answers the rest of the batch.
			ans = &Answer{
				Kind:         kinds[i],
				Err:          fmt.Errorf("%w: kind %q: %v", ErrEstimation, kinds[i], errs[i]),
				APICalls:     ent.traj.APICalls,
				CacheHit:     hit || ent.fromStore,
				Walkers:      ent.traj.Walkers,
				Samples:      ent.traj.Samples(),
				GraphVersion: ent.traj.GraphVersion,
				StaleSteps:   ent.staleSteps,
			}
		} else {
			ans = e.assembleAnswer(kinds[i], outs[i], ent, hit)
		}
		if !ans.CacheHit {
			// The batch occupied one seat in the co-triggering split; divide
			// that share across its members (truncated, like the split
			// itself).
			ans.Charged = (ent.traj.APICalls / int64(ent.sharers)) / int64(len(qs))
		}
		ans.StoreKey = storeKey(key, ans.GraphVersion).Filename()
		answers[i] = ans
		e.countQuery(kinds[i], ans)
	}
	return answers, nil
}

// replay runs one validated task over an acquired trajectory and assembles
// the answer envelope.
func (e *Engine) replay(kind string, task core.EstimationTask, ent *entry, hit bool) (*Answer, error) {
	out, err := task.Estimate(ent.traj)
	if err != nil {
		return nil, fmt.Errorf("%w: kind %q: %v", ErrEstimation, kind, err)
	}
	return e.assembleAnswer(kind, out, ent, hit), nil
}

// assembleAnswer wraps one task's replay result in the answer envelope.
func (e *Engine) assembleAnswer(kind string, out any, ent *entry, hit bool) *Answer {
	ans := &Answer{
		Kind:         kind,
		APICalls:     ent.traj.APICalls,
		CacheHit:     hit || ent.fromStore,
		Walkers:      ent.traj.Walkers,
		Samples:      ent.traj.Samples(),
		GraphVersion: ent.traj.GraphVersion,
		StaleSteps:   ent.staleSteps,
	}
	if !ans.CacheHit {
		ans.SharedBy = ent.sharers
		ans.Charged = ent.traj.APICalls / int64(ent.sharers)
	}
	if prs, isPairs := out.([]core.PairEstimates); isPairs {
		// The historical pairs response shape.
		ans.Pairs = make([]PairAnswer, 0, len(prs))
		for _, pe := range prs {
			ans.Pairs = append(ans.Pairs, PairAnswer{
				Pair: pe.Pair,
				Estimates: map[string]float64{
					"NeighborSample-HH":      pe.NS.HH,
					"NeighborSample-HT":      pe.NS.HT,
					"NeighborExploration-HH": pe.NE.HH,
					"NeighborExploration-HT": pe.NE.HT,
					"NeighborExploration-RW": pe.NE.RW,
				},
			})
		}
	} else {
		ans.Result = out
	}
	return ans
}

// countQuery folds one answered query into the stats.
func (e *Engine) countQuery(kind string, ans *Answer) {
	rows := 1
	switch {
	case ans.Err != nil:
		rows = 0
	case ans.Pairs != nil:
		rows = len(ans.Pairs)
	default:
		rows = resultRows(ans.Result)
	}
	e.mu.Lock()
	e.stats.Queries++
	e.stats.PairsServed += int64(rows)
	if e.stats.TasksByKind == nil {
		e.stats.TasksByKind = make(map[string]int64)
	}
	e.stats.TasksByKind[kind]++
	if ans.CacheHit {
		e.stats.CacheHits++
	}
	e.mu.Unlock()
}

// resultRows counts the rows of a non-pairs task result for the stats.
func resultRows(out any) int {
	switch r := out.(type) {
	case core.CensusResult:
		return len(r.Pairs)
	case motif.TaskResult:
		return len(r.Rows)
	default:
		return 1
	}
}

// acquire resolves the query's trajectory: a valid cached one (hit), an
// in-flight recording to join, a persisted one reloaded from the store, or
// a (possibly topped-up) recording this query triggers. A cached trajectory
// whose graph version no longer matches the served graph is not discarded
// outright: it becomes the top-up source for the recording that replaces it,
// so only its invalidated steps are re-bought upstream.
func (e *Engine) acquire(ctx context.Context, q Query, key trajKey) (*entry, bool, error) {
	var stale *core.Trajectory
	for {
		e.mu.Lock()
		ent := e.cache[key]
		if ent != nil {
			select {
			case <-ent.ready:
				// A completed recording that failed, or outlived its TTL, is
				// dropped and this query retries with a fresh one. Only the
				// queries that actually waited on a failed recording see its
				// error (through the join and miss paths below).
				if ent.err != nil || (ent.hasTTL && e.cfg.now().After(ent.expires)) {
					delete(e.cache, key)
					e.mu.Unlock()
					continue
				}
				if g := e.Graph(); ent.traj.GraphVersion != g.Version() ||
					ent.traj.GraphFingerprint != g.Fingerprint() {
					// A delta outdated this trajectory. Keep it as the top-up
					// source and fall through to the miss path, which records
					// its replacement redeeming the still-valid steps.
					stale = ent.traj
					delete(e.cache, key)
					e.mu.Unlock()
					continue
				}
				ent.lastUsed = e.cfg.now()
				e.mu.Unlock()
				return ent, true, nil
			default:
				// Recording in flight: join the batch and split the bill. A
				// query that slips in after the sharer set froze (the
				// recording just completed) rides along as a cache hit.
				joined := false
				if !ent.frozen {
					if q.MaxCost > 0 && q.MaxCost < int64(key.budget)/int64(ent.sharers+1) {
						e.mu.Unlock()
						return nil, false, fmt.Errorf("%w: MaxCost %d, trajectory budget %d", ErrQueryBudget, q.MaxCost, key.budget)
					}
					ent.sharers++
					joined = true
				}
				e.mu.Unlock()
				select {
				case <-ent.ready:
					return ent, (!joined && ent.err == nil) || ent.fromStore, nil
				case <-ctx.Done():
					return nil, false, ctx.Err()
				}
			}
		}
		// Miss: this query triggers a store reload or a recording. MaxCost
		// is checked against the recording budget unless the trajectory is
		// already persisted (a reload costs nothing).
		if q.MaxCost > 0 && q.MaxCost < int64(key.budget) && !e.storeHas(key) {
			e.mu.Unlock()
			return nil, false, fmt.Errorf("%w: MaxCost %d, trajectory budget %d", ErrQueryBudget, q.MaxCost, key.budget)
		}
		ent = &entry{ready: make(chan struct{}), sharers: 1}
		victims := e.evictLocked()
		e.cache[key] = ent
		e.mu.Unlock()
		e.flushVictims(victims)

		if e.reloadFromStore(key, ent) {
			return ent, true, nil
		}
		if stale == nil {
			// No stale in-memory trajectory to top up from; an older graph
			// version's persisted file (retained across deltas) serves just
			// as well.
			stale = e.loadTopUpSource(key)
		}
		// record blocks through the batching window and the fleet run, and
		// closes ent.ready before returning; co-batched queries wake with us.
		e.record(ctx, key, ent, stale)
		return ent, false, nil
	}
}

// storeHas reports whether the key's trajectory is persisted for the
// currently served graph version. Called with e.mu held — it is a single
// stat, only on the rare miss-with-MaxCost path.
func (e *Engine) storeHas(key trajKey) bool {
	return e.cfg.Store != nil && e.cfg.Store.Has(e.cfg.Name, storeKey(key, e.Graph().Version()))
}

// loadTopUpSource looks for the newest persisted trajectory at key's
// configuration recorded on an OLDER graph version — the per-version
// retention that turns a delta into an incremental top-up instead of a full
// re-recording. The returned trajectory needs no trust: the top-up validates
// every recorded response against the current graph before redeeming it.
func (e *Engine) loadTopUpSource(key trajKey) *core.Trajectory {
	if e.cfg.Store == nil {
		return nil
	}
	keys, err := e.cfg.Store.Keys(e.cfg.Name)
	if err != nil {
		e.countStoreError()
		return nil
	}
	cur := e.Graph().Version()
	var best store.Key
	found := false
	for _, k := range keys {
		if k.Budget != key.budget || k.Walkers != key.walkers || k.Seed != key.seed {
			continue
		}
		if k.GraphVersion >= cur {
			continue
		}
		if !found || k.GraphVersion > best.GraphVersion {
			best, found = k, true
		}
	}
	if !found {
		return nil
	}
	traj, err := e.cfg.Store.Load(e.cfg.Name, best)
	if err != nil {
		e.countStoreError()
		return nil
	}
	return traj
}

// reloadFromStore tries to complete a just-published in-flight entry from
// the persistent store instead of walking. On success every waiter wakes to
// a zero-cost cache hit — the evicted-then-requested path that makes
// eviction safe and restarts cheap.
func (e *Engine) reloadFromStore(key trajKey, ent *entry) bool {
	if e.cfg.Store == nil {
		return false
	}
	loaded := e.loadEntry(key)
	if loaded == nil {
		return false
	}
	e.mu.Lock()
	ent.traj = loaded.traj
	ent.frozen = true
	ent.fromStore = true
	ent.bytes = loaded.bytes
	ent.lastUsed = e.cfg.now()
	ent.expires, ent.hasTTL = loaded.expires, loaded.hasTTL
	e.stats.StoreLoads++
	e.mu.Unlock()
	close(ent.ready)
	e.notifyCached()
	return true
}

// evictLocked makes room for one more cache entry when the cap is reached:
// expired entries are swept first, then the least-recently-used completed
// entry. Recordings in flight are never evicted (their waiters hold them).
// Dirty victims are returned for persistence — the caller must flush them
// after releasing e.mu, so an evicted trajectory can later reload from disk
// instead of being re-walked. Callers hold e.mu.
func (e *Engine) evictLocked() []flushItem {
	if len(e.cache) < e.cfg.MaxCached {
		return nil
	}
	now := e.cfg.now()
	var victims []flushItem
	var lruKey trajKey
	var lruEnt *entry
	for k, ent := range e.cache {
		if !ent.completed() {
			continue // in flight
		}
		if ent.hasTTL && now.After(ent.expires) {
			if ent.err == nil && ent.dirty {
				victims = append(victims, flushItem{key: k, ent: ent, traj: ent.traj})
			}
			delete(e.cache, k)
			continue
		}
		if lruEnt == nil || ent.lastUsed.Before(lruEnt.lastUsed) {
			lruKey, lruEnt = k, ent
		}
	}
	if len(e.cache) >= e.cfg.MaxCached && lruEnt != nil {
		if lruEnt.err == nil && lruEnt.dirty {
			victims = append(victims, flushItem{key: lruKey, ent: lruEnt, traj: lruEnt.traj})
		}
		delete(e.cache, lruKey)
	}
	return victims
}

// flushVictims persists evicted dirty trajectories (outside the lock).
func (e *Engine) flushVictims(victims []flushItem) {
	for _, it := range victims {
		_ = e.saveItem(it) // failure is counted in StoreErrors
	}
}

// oldestCompleted returns the last-used time of the engine's
// least-recently-used completed trajectory, for the workspace's cross-graph
// LRU.
func (e *Engine) oldestCompleted() (time.Time, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var oldest time.Time
	found := false
	for _, ent := range e.cache {
		if !ent.completed() || ent.err != nil {
			continue
		}
		if !found || ent.lastUsed.Before(oldest) {
			oldest, found = ent.lastUsed, true
		}
	}
	return oldest, found
}

// evictOldestCompleted drops the engine's least-recently-used completed
// trajectory, persisting it first if dirty, and returns the bytes freed.
func (e *Engine) evictOldestCompleted() int64 {
	e.mu.Lock()
	var lruKey trajKey
	var lruEnt *entry
	for k, ent := range e.cache {
		if !ent.completed() || ent.err != nil {
			continue
		}
		if lruEnt == nil || ent.lastUsed.Before(lruEnt.lastUsed) {
			lruKey, lruEnt = k, ent
		}
	}
	if lruEnt == nil {
		e.mu.Unlock()
		return 0
	}
	delete(e.cache, lruKey)
	freed := lruEnt.bytes
	dirty := lruEnt.dirty
	e.mu.Unlock()
	if dirty && e.cfg.Store != nil {
		_ = e.saveItem(flushItem{key: lruKey, ent: lruEnt, traj: lruEnt.traj})
	}
	return freed
}

// record waits out the batching window, runs the fleet recording, publishes
// the result to every query waiting on ent, and persists it to the store
// (when configured). When stale carries an outdated trajectory at the same
// configuration, the recording is an incremental top-up: bit-identical to a
// fresh walk on the current graph, but paying upstream only for the steps
// the graph deltas invalidated. The recording itself is not bound to the
// triggering query's context: co-batched queries are still waiting on it.
func (e *Engine) record(ctx context.Context, key trajKey, ent *entry, stale *core.Trajectory) {
	if e.cfg.BatchWindow > 0 {
		select {
		case <-time.After(e.cfg.BatchWindow):
		case <-ctx.Done():
			// The triggering client gave up; run anyway for any co-batched
			// queries — the window already elapsed for them too.
		}
	}

	// Snapshot the served graph once: a delta applied mid-recording must not
	// tear this walk across versions.
	g := e.Graph()
	src := osn.Source(osn.NewGraphSource(g))
	if e.cfg.SourceFactory != nil {
		src = e.cfg.SourceFactory(g)
	}
	scfg := osn.Config{}
	if e.pool.Nodes() == g.NumNodes() {
		scfg.Pool = e.pool
	}
	s, err := osn.NewSessionFrom(src, scfg)
	var traj *core.Trajectory
	var topUp core.TopUpStats
	toppedUp := false
	if err == nil {
		// A source carrying its own persistent response cache (e.g. the
		// httpsrc .osnc log) prepays everything it already holds; a top-up's
		// own Prepay below merges over it, later call winning per node.
		if p, ok := src.(osn.SessionPrimer); ok {
			p.PrimeSession(s)
		}
		seed := stats.Derive(key.seed, "serve/trajectory")
		opts := core.Options{
			BurnIn:       e.burnIn,
			Rng:          stats.NewSeedSequence(seed).NextRand(),
			Start:        -1,
			BudgetDriven: true,
			Walkers:      key.walkers,
			Seed:         stats.Derive(seed, "fleet"),
		}
		if stale != nil && stale.NumNodes == g.NumNodes() {
			traj, topUp, err = core.ResumeRecording(s, g, stale, key.budget, opts)
			toppedUp = err == nil
		} else {
			traj, err = core.RecordTrajectory(s, key.budget, opts)
		}
		// All metered access is over: hand the session's pooled accounting
		// arrays to the next recording. The trajectory does not hold the
		// session: it is bound to the graph or to its own label snapshot,
		// which the cache weight below and the .osnt save reuse.
		s.Release()
	}
	var bytes int64
	if err == nil {
		// Stamp the graph identity the file header and the staleness checks
		// key on (ResumeRecording already stamps; fresh recordings here).
		traj.GraphVersion = g.Version()
		traj.GraphFingerprint = g.Fingerprint()
		bytes = store.EncodedSize(traj)
	}

	persist := err == nil && e.cfg.Store != nil
	e.mu.Lock()
	ent.traj = traj
	ent.err = err
	ent.frozen = true
	ent.lastUsed = e.cfg.now()
	if err == nil {
		ent.bytes = bytes
		ent.dirty = persist
		e.stats.Recordings++
		if toppedUp {
			ent.staleSteps = topUp.StaleSteps
			e.stats.TopUps++
			e.stats.TopUpSavedCalls += topUp.PrepaidHits
			e.stats.UpstreamCalls += topUp.ChargedCalls
		} else {
			e.stats.UpstreamCalls += traj.APICalls
		}
		if e.cfg.TTL > 0 {
			ent.expires = e.cfg.now().Add(e.cfg.TTL)
			ent.hasTTL = true
		}
	} else {
		// Failed recordings answer their waiters but are not kept for later
		// queries — those should retry with a fresh walk.
		if e.cache[key] == ent {
			delete(e.cache, key)
		}
	}
	e.mu.Unlock()
	close(ent.ready)
	if err == nil {
		if persist {
			// Persist eagerly so even an ungraceful death keeps the walk;
			// failures stay dirty and are retried by Flush at shutdown.
			if e.saveItem(flushItem{key: key, ent: ent, traj: traj}) == nil {
				// The new version's file supersedes the older ones it was (or
				// could have been) topped up from; only now is it safe to
				// retire them.
				e.pruneSuperseded(key, traj.GraphVersion)
			}
		}
		e.notifyCached()
	}
}

// pruneSuperseded removes persisted trajectories at key's configuration
// recorded on graph versions older than version — they were retained as
// top-up sources and a newer file now fills that role.
func (e *Engine) pruneSuperseded(key trajKey, version uint64) {
	keys, err := e.cfg.Store.Keys(e.cfg.Name)
	if err != nil {
		e.countStoreError()
		return
	}
	for _, k := range keys {
		if k.Budget != key.budget || k.Walkers != key.walkers || k.Seed != key.seed {
			continue
		}
		if k.GraphVersion >= version {
			continue
		}
		if err := e.cfg.Store.Remove(e.cfg.Name, k); err != nil {
			e.countStoreError()
		}
	}
}

// TrajectoryKeys lists the trajectory keys this engine can export, in their
// on-disk .osnt spelling: every key persisted in the store plus every
// completed in-memory trajectory not yet on disk, deduplicated and sorted.
func (e *Engine) TrajectoryKeys() []string {
	seen := make(map[string]bool)
	if e.cfg.Store != nil {
		keys, err := e.cfg.Store.Keys(e.cfg.Name)
		if err != nil {
			e.countStoreError()
		}
		for _, k := range keys {
			seen[k.Filename()] = true
		}
	}
	e.mu.Lock()
	for k, ent := range e.cache {
		if ent.completed() && ent.err == nil {
			seen[storeKey(k, ent.traj.GraphVersion).Filename()] = true
		}
	}
	e.mu.Unlock()
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ExportTrajectory returns the raw .osnt bytes of the trajectory keyed by
// name (the Filename spelling, e.g. "b500_w4_s1_g0.osnt"): the persisted
// file verbatim when the store has it, or the cached in-memory trajectory
// freshly encoded (memory-only engines, or a dirty entry whose save failed).
// A key this engine holds nowhere returns an error wrapping fs.ErrNotExist;
// a malformed key wraps ErrBadQuery.
func (e *Engine) ExportTrajectory(name string) ([]byte, error) {
	k, ok := store.ParseKeyName(name)
	if !ok {
		return nil, fmt.Errorf("%w: malformed trajectory key %q (want bB_wW_sS_gV.osnt)", ErrBadQuery, name)
	}
	if e.cfg.Store != nil {
		raw, err := e.cfg.Store.ReadRaw(e.cfg.Name, k)
		if err == nil {
			return raw, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			e.countStoreError()
		}
	}
	tk := trajKey{budget: k.Budget, walkers: k.Walkers, seed: k.Seed}
	e.mu.Lock()
	var traj *core.Trajectory
	if ent := e.cache[tk]; ent != nil && ent.completed() && ent.err == nil && ent.traj.GraphVersion == k.GraphVersion {
		traj = ent.traj
	}
	e.mu.Unlock()
	if traj == nil {
		return nil, fmt.Errorf("serve: trajectory %q: %w", name, fs.ErrNotExist)
	}
	var buf bytes.Buffer
	if err := store.Write(&buf, traj); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ImportTrajectory admits raw .osnt bytes pulled from a peer replica as the
// trajectory keyed by name. The bytes are fully verified before anything is
// admitted: the .osnt CRC and structural checks (store.Decode), the key's
// own spelling, and the same graph version + content fingerprint + burn-in
// identity checks a store reload applies — a peer's file is trusted exactly
// as far as a local one. Verified trajectories are persisted to the store
// (when configured) and installed in the cache, so the next query at this
// configuration is a zero-spend cache hit. Rejected bytes wrap
// ErrBadTrajectory and leave no trace.
func (e *Engine) ImportTrajectory(name string, raw []byte) error {
	k, ok := store.ParseKeyName(name)
	if !ok {
		return fmt.Errorf("%w: malformed trajectory key %q (want bB_wW_sS_gV.osnt)", ErrBadQuery, name)
	}
	traj, err := store.Decode(raw)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadTrajectory, err)
	}
	if traj.Walkers != k.Walkers || traj.GraphVersion != k.GraphVersion {
		return fmt.Errorf("%w: file is a w%d_g%d trajectory, key %q disagrees",
			ErrBadTrajectory, traj.Walkers, traj.GraphVersion, name)
	}
	g := e.Graph()
	if traj.GraphVersion != g.Version() || traj.GraphFingerprint != g.Fingerprint() {
		return fmt.Errorf("%w: recorded on graph version %d fingerprint %x, this engine serves version %d fingerprint %x",
			ErrBadTrajectory, traj.GraphVersion, traj.GraphFingerprint, g.Version(), g.Fingerprint())
	}
	if traj.BurnIn != e.burnIn {
		return fmt.Errorf("%w: recorded burn-in %d, this engine records at %d",
			ErrBadTrajectory, traj.BurnIn, e.burnIn)
	}
	// Same label rebinding as a store reload: replays consult the served
	// graph's labels at CSR speed instead of the file's interned store.
	traj.BindLabels(g)

	persisted := false
	if e.cfg.Store != nil {
		if err := e.cfg.Store.WriteRaw(e.cfg.Name, k, raw); err != nil {
			e.countStoreError()
		} else {
			persisted = true
		}
	}
	ent := &entry{
		ready:     make(chan struct{}),
		traj:      traj,
		frozen:    true,
		fromStore: true,
		bytes:     int64(len(raw)),
		dirty:     e.cfg.Store != nil && !persisted,
		lastUsed:  e.cfg.now(),
	}
	if e.cfg.TTL > 0 {
		ent.expires = e.cfg.now().Add(e.cfg.TTL)
		ent.hasTTL = true
	}
	close(ent.ready)

	tk := trajKey{budget: k.Budget, walkers: k.Walkers, seed: k.Seed}
	e.mu.Lock()
	e.stats.Imports++
	if persisted {
		e.stats.StoreSaves++
	}
	installed := false
	if _, exists := e.cache[tk]; !exists {
		// A recording in flight (or a fresher cached trajectory) keeps its
		// slot; the imported file still landed in the store above.
		e.cache[tk] = ent
		installed = true
	}
	e.mu.Unlock()
	if installed {
		e.notifyCached()
	}
	return nil
}
