package main

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/store"
)

// Probes time single layers directly, after a traced phase, on the state the
// phase left behind. Each repeats a few times and reports the median.
const (
	probeReps = 5
	// engineCalls is how many EstimateBatch calls each engine-probe caller
	// makes.
	engineCalls = 16
)

// recordDirect records one trajectory over osn.GraphSource with the
// options a replica uses for the key (budget, seed).
func recordDirect(g *graph.Graph, budget int, seed int64) (*core.Trajectory, error) {
	s, err := osn.NewSession(g, osn.Config{})
	if err != nil {
		return nil, err
	}
	seed = stats.Derive(seed, "serve/trajectory")
	return core.RecordTrajectory(s, budget, core.Options{
		BurnIn:       burnIn,
		Rng:          stats.NewSeedSequence(seed).NextRand(),
		Start:        -1,
		BudgetDriven: true,
		Walkers:      walkers,
		Seed:         stats.Derive(seed, "fleet"),
	})
}

// trajectoryBytes is the .osnt size of one of the workload's trajectories,
// which sizes a byte-bounded cache in trajectories.
func trajectoryBytes(g *graph.Graph, w workload) (int64, error) {
	traj, err := recordDirect(g, w.budget, keySeed(0))
	if err != nil {
		return 0, err
	}
	return store.EncodedSize(traj), nil
}

func toQueries(r wireRequest) []serve.Query {
	qs := make([]serve.Query, len(r.Queries))
	for i, q := range r.Queries {
		qs[i] = serve.Query{Kind: q.Kind, Motif: q.Motif, Top: q.Top, Variant: q.Variant,
			Budget: r.Budget, Walkers: r.Walkers, Seed: r.Seed}
		for _, p := range q.Pairs {
			qs[i].Pairs = append(qs[i].Pairs, graph.LabelPair{T1: graph.Label(p[0]), T2: graph.Label(p[1])})
		}
	}
	return qs
}

// probes holds the medians of every layer probe.
type probes struct {
	engineMS  float64
	kindMS    map[string]float64
	decodeMS  float64
	saveMS    float64
	fileBytes float64
	recordMS  float64 // process CPU per direct recording
	primeMS   float64
}

// runProbes times the layers of t directly. owner maps a trajectory seed to
// the replica that served it during the phase; next is the first request
// index the phase did not send, so engine probes see unsent requests of the
// same workload.
func runProbes(t *topology, w workload, gen *generator, owner map[int64]*replica, next int) (*probes, error) {
	p := &probes{kindMS: make(map[string]float64)}
	ctx := context.Background()
	pick := func(seed int64) *replica {
		if r := owner[seed]; r != nil {
			return r
		}
		return t.replicas[0]
	}

	// The engine probe runs as many concurrent callers as the phase had
	// clients, so it sees the contention the handler spans saw.
	var mu sync.Mutex
	var engine []float64
	var errs []error
	var idx atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < engineCalls; k++ {
				req := gen.request(next + int(idx.Add(1)-1))
				t0 := time.Now()
				_, err := pick(req.Seed).ws.EstimateBatch(ctx, graphName, toQueries(req))
				mu.Lock()
				engine = append(engine, msSince(t0))
				errs = append(errs, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	p.engineMS = median(engine)

	// One-kind batches over the first probe request's trajectory, which the
	// engine probe above left cached on its replica.
	base := gen.request(next)
	rep := pick(base.Seed)
	// A dashboard-shaped batch holds one query of every kind.
	dash := newGenerator(workload{name: "kinds"}, 1, gen.popular).request(0)
	for _, q := range dash.Queries {
		one := wireRequest{Graph: graphName, Budget: base.Budget, Walkers: base.Walkers, Seed: base.Seed, Queries: []wireQuery{q}}
		var times []float64
		for i := 0; i < probeReps; i++ {
			t0 := time.Now()
			if _, err := rep.ws.EstimateBatch(ctx, graphName, toQueries(one)); err != nil {
				return nil, err
			}
			times = append(times, msSince(t0))
		}
		p.kindMS[q.Kind] += median(times)
	}

	probeStore, err := store.NewDir(filepath.Join(t.dir, "probe-store"))
	if err != nil {
		return nil, err
	}
	var decode, save, size []float64
	for _, r := range t.replicas {
		keys, err := r.store.Keys(graphName)
		if err != nil {
			return nil, err
		}
		for _, k := range keys {
			if len(decode) >= 2*probeReps {
				break
			}
			t0 := time.Now()
			traj, err := r.store.Load(graphName, k)
			if err != nil {
				return nil, err
			}
			decode = append(decode, msSince(t0))
			n, err := r.store.FileSize(graphName, k)
			if err != nil {
				return nil, err
			}
			size = append(size, float64(n))
			t0 = time.Now()
			if err := probeStore.Save(graphName, k, traj); err != nil {
				return nil, err
			}
			save = append(save, msSince(t0))
		}
	}
	p.decodeMS, p.saveMS, p.fileBytes = median(decode), median(save), stats.Mean(size)

	var rec []float64
	for i := 0; i < probeReps; i++ {
		c0 := processCPU()
		if _, err := recordDirect(t.graph, w.budget, stats.Derive(gen.seed, "probe")+int64(i)); err != nil {
			return nil, err
		}
		rec = append(rec, float64(processCPU()-c0)/1e6)
	}
	p.recordMS = median(rec)

	if src := t.replicas[0].src; src != nil {
		var prime []float64
		for i := 0; i < probeReps; i++ {
			s, err := osn.NewSessionFrom(src, osn.Config{})
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			src.PrimeSession(s)
			prime = append(prime, msSince(t0))
		}
		p.primeMS = median(prime)
	}
	return p, nil
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }
