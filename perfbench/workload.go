package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stats"
)

// graphName is the workspace name every replica serves the stand-in under.
const graphName = "pokec"

// Each workload drives the same topology with a different traffic mix; the
// comments on the table below say which layer each one loads.
type workload struct {
	name string
	// httpsrc makes the replicas record through their httpsrc clients
	// against the faultsim upstream; false records against the in-memory
	// graph, which churn needs (faultsim serves one fixed graph).
	httpsrc bool
	// budget is every request's trajectory budget.
	budget int
	// clients is the closed loop's size: each client sends its next request
	// only after the previous answer arrived.
	clients int
	// keys is how many fixed trajectory keys the traffic cycles over in
	// order, all pre-recorded at set-up; 0 gives every request a fresh key.
	// Cycling gives every seed the same per-key load, and makes an LRU
	// cache smaller than the key set miss on every request.
	keys int
	// cacheTrajectories bounds each replica's workspace cache to about this
	// many trajectories (0 = unbounded).
	cacheTrajectories int
	// repeatShare is the probability that a request repeats an earlier
	// request on the same key verbatim.
	repeatShare float64
	// coldBatch selects the small cold-recording batch instead of the
	// dashboard batch.
	coldBatch bool
	// patchEvery makes client 0 send a churn PATCH after every patchEvery
	// of its own estimates (0 = no writes).
	patchEvery int
	// warmup is the least number of requests the untimed warm-up before
	// the timed phase sends (see warmupSeconds). On cold_record they fill
	// the replicas' never-evicting httpsrc label caches: the walk reaches
	// nodes of degree ~5000 within a few steps, and without the warm-up a
	// run's per-query costs would depend on how many requests it completed.
	warmup int
}

var workloads = []workload{
	// The dashboard read path: every request is a memory cache hit on a
	// fresh recording whose labels are still bound to its httpsrc session,
	// so the gateway proxy, the JSON codec and replay do all the work.
	// It runs one client: every key lands on one replica, and two
	// concurrent replays there contend on that replica's httpsrc label
	// cache, about 60k locked reads each. On a 2-vCPU VM two clients gave
	// less throughput than one (60-75 against 105-160 per second), and their
	// latency followed the hypervisor's steal time, not the program: one
	// seed run six times gave p50 16.5-27.3 ms while CPU per query stayed
	// within 5%.
	// BENCHMARK.json does not list it: its roughly 60k label lookups per
	// batch through httpsrc's locked map are memory-latency bound, and on a
	// shared 2-vCPU VM its run-to-run spread was too wide for a bound of
	// 25%: p50 IQR/median 0.12 over five 8 s runs on a quiet host and 0.36
	// over six 30 s runs on a busy one, where reload_evict's was 0.09 over
	// ten 15 s runs. It stays runnable by name for the comparison with
	// reload_evict.
	{name: "warm_hit", httpsrc: true, budget: 500, clients: 1, keys: 4, repeatShare: 0.5},
	// The working set is larger than the cache: every request reloads an
	// .osnt from the store (decode, label rebinding, replay) and no
	// (key, batch) pair repeats, so no answer memo could help.
	{name: "reload_evict", httpsrc: true, budget: 500, clients: 2, keys: 6, cacheTrajectories: 1},
	// Every request records a fresh walk through httpsrc at a small budget:
	// walk, fetch and prime, .osnt save and the gateway's growing flight
	// table do the work, and replay is small. The replicas keep the default
	// trajectory cache, so rss_peak_mb carries what the used-once
	// recordings it holds retain.
	{name: "cold_record", httpsrc: true, budget: 100, clients: 2, coldBatch: true, warmup: 150},
	// Writes beside reads: PATCHes persist .osnd segments and invalidate
	// every key, so reads top up (core.ResumeRecording), save and prune.
	{name: "churn_topup", budget: 1000, clients: 2, keys: 4, repeatShare: 0.5, patchEvery: 8},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// wireQuery and wireRequest mirror the replica's POST /estimate batch body.
type wireQuery struct {
	Kind    string   `json:"kind"`
	Pairs   [][2]int `json:"pairs,omitempty"`
	Motif   string   `json:"motif,omitempty"`
	Top     int      `json:"top,omitempty"`
	Variant string   `json:"variant,omitempty"`
}

type wireRequest struct {
	Graph   string      `json:"graph"`
	Queries []wireQuery `json:"queries"`
	Budget  int         `json:"budget"`
	Walkers int         `json:"walkers"`
	Seed    int64       `json:"seed"`
}

// keySeed is the trajectory seed of fixed key k. The keys do not depend on
// the workload seed, so every run pre-records the same trajectories and
// routes them to the same replicas; the seed varies the traffic over them.
func keySeed(k int) int64 { return int64(1000 + k) }

// generator produces a workload's request sequence. Request i depends only
// on (seed, i), so the same seed always yields the same requests whatever
// order the clients take them in.
type generator struct {
	w       workload
	seed    int64
	popular []graph.Label
}

func newGenerator(w workload, seed int64, popular []graph.Label) *generator {
	return &generator{w: w, seed: seed, popular: popular}
}

// derive hashes (seed, workload, tag, i) into an independent stream seed.
// stats.Derive is not used: it folds tag bytes in with xor and add only, so
// tags differing in a few digits often collide.
func (g *generator) derive(tag string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%s/%d", g.seed, g.w.name, tag, i)
	return int64(h.Sum64())
}

func (g *generator) rng(tag string, i int) *rand.Rand {
	return rand.New(rand.NewSource(g.derive(tag, i)))
}

// request returns the i-th request of the sequence.
func (g *generator) request(i int) wireRequest {
	r := g.rng("request", i)
	if g.w.keys > 0 && i >= g.w.keys && r.Float64() < g.w.repeatShare {
		// An earlier request on the same key: j ≡ i (mod keys), j < i.
		return g.request(i%g.w.keys + g.w.keys*r.Intn(i/g.w.keys))
	}
	req := wireRequest{Graph: graphName, Budget: g.w.budget, Walkers: walkers}
	if g.w.keys > 0 {
		req.Seed = keySeed(i % g.w.keys)
	} else {
		// A fresh positive seed: zero would select the replica default.
		req.Seed = g.derive("key", i)&math.MaxInt64 | 1
	}
	if g.w.coldBatch {
		req.Queries = []wireQuery{
			{Kind: "pairs", Pairs: g.pairs(r, 2)},
			{Kind: "census", Top: 5},
		}
	} else {
		req.Queries = []wireQuery{
			{Kind: "pairs", Pairs: g.pairs(r, 3)},
			{Kind: "size"},
			{Kind: "census", Top: 5 + r.Intn(11)},
			{Kind: "motif", Motif: "triangles", Pairs: g.pairs(r, 1)},
			{Kind: "assortativity", Variant: "degree"},
			{Kind: "assortativity", Variant: "label"},
		}
	}
	return req
}

func (g *generator) pairs(r *rand.Rand, n int) [][2]int {
	out := make([][2]int, n)
	for i := range out {
		out[i] = [2]int{int(g.popular[r.Intn(len(g.popular))]), int(g.popular[r.Intn(len(g.popular))])}
	}
	return out
}

// setupRequests are the pre-recordings of the workload's fixed keys: one
// cheap query per key, sent through the gateway at set-up.
func (g *generator) setupRequests() []wireRequest {
	out := make([]wireRequest, g.w.keys)
	for k := range out {
		out[k] = wireRequest{Graph: graphName, Budget: g.w.budget, Walkers: walkers, Seed: keySeed(k),
			Queries: []wireQuery{{Kind: "size"}}}
	}
	return out
}

// warmupGenerator produces the untimed warm-up traffic: the workload's own
// request mix on a stream of its own, the same for every workload seed.
func (g *generator) warmupGenerator() *generator {
	w := g.w
	w.name += "/warmup"
	return &generator{w: w, seed: 0, popular: g.popular}
}

// repeatShare reports the measured share of the first n requests that
// repeat an earlier (key, batch) pair.
func (g *generator) repeatShare(n int) float64 {
	if n == 0 {
		return 0
	}
	seen := make(map[string]bool, n)
	repeats := 0
	for i := 0; i < n; i++ {
		b, _ := json.Marshal(g.request(i))
		if seen[string(b)] {
			repeats++
		}
		seen[string(b)] = true
	}
	return float64(repeats) / float64(n)
}

// popularLabels returns the n most frequent labels of g, most frequent
// first (ties by label id).
func popularLabels(g *graph.Graph, n int) []graph.Label {
	counts := make(map[graph.Label]int)
	for u := 0; u < g.NumNodes(); u++ {
		for _, l := range g.Labels(graph.Node(u)) {
			counts[l]++
		}
	}
	ls := make([]graph.Label, 0, len(counts))
	for l := range counts {
		ls = append(ls, l)
	}
	sort.Slice(ls, func(i, j int) bool {
		if counts[ls[i]] != counts[ls[j]] {
			return counts[ls[i]] > counts[ls[j]]
		}
		return ls[i] < ls[j]
	})
	if len(ls) > n {
		ls = ls[:n]
	}
	return ls
}

// patchBody is the PATCH /graphs/{name} body.
type patchBody struct {
	Add [][2]int `json:"add,omitempty"`
	Del [][2]int `json:"del,omitempty"`
}

// churnDeltas returns n successive deltas that each rewire frac of g's
// edges. One gen.Churn call draws the deletions and additions of all of
// them at once on g; every slice of that delta is then valid on the graph
// the earlier slices produced, so no intermediate graph has to be built.
func churnDeltas(g *graph.Graph, seed int64, n int, frac float64) ([]graph.Delta, error) {
	pool, err := gen.Churn(g, frac*float64(n), rand.New(rand.NewSource(stats.Derive(seed, "churn"))))
	if err != nil {
		return nil, err
	}
	k := int(frac * float64(g.NumEdges()) / 2)
	if k < 1 || len(pool.Dels) < n*k || len(pool.Adds) < n*k {
		return nil, fmt.Errorf("churn pool of %d deletions and %d additions cannot fill %d deltas of %d each",
			len(pool.Dels), len(pool.Adds), n, k)
	}
	out := make([]graph.Delta, n)
	for i := range out {
		out[i] = graph.Delta{Dels: pool.Dels[i*k : (i+1)*k], Adds: pool.Adds[i*k : (i+1)*k]}
	}
	return out, nil
}

func toPatch(d graph.Delta) patchBody {
	var p patchBody
	for _, e := range d.Adds {
		p.Add = append(p.Add, [2]int{int(e.U), int(e.V)})
	}
	for _, e := range d.Dels {
		p.Del = append(p.Del, [2]int{int(e.U), int(e.V)})
	}
	return p
}
