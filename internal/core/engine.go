package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/estimate"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/walk"
)

// CI is the variance-based confidence interval attached to multi-walker
// results (alias of estimate.CI).
type CI = estimate.CI

// ciLevel is the nominal coverage of the reported intervals.
const ciLevel = 0.95

// recordPolicy is what the estimating algorithm decides about the one
// recording loop; each caller keeps its own stop rule.
type recordPolicy struct {
	// lookAhead buys each arrival's friend list (and the start's) as the walk
	// reaches it, so every step carries what any replay needs; the next step
	// then leaves from the crawl cache. NeighborSample, which reads labels
	// only, records without it: its walk never buys the last arrival's list.
	lookAhead bool
	// cost bills each walker's first arrival at a node carrying a label of
	// pair: the NeighborExploration surcharge (see CostModel).
	cost CostModel
	pair graph.LabelPair
}

// walkRecorder is one walker's recording state. Its step is the package's
// only sampling loop: RecordTrajectory (serial and fleet), Recorder.Extend
// and, through them, NeighborSample, NeighborExploration, ResumeRecording
// and the serving layer all run it.
type walkRecorder struct {
	api   osn.API
	w     walk.Walker[graph.Node]
	pol   recordPolicy
	prev  graph.Node
	start TrajStart
	steps []TrajStep
	// explored dedups the exploration surcharge; nil when it is free.
	explored map[graph.Node]struct{}
}

// newWalkRecorder starts recording the burned-in walk w through api. With
// look-ahead it buys the start's friend list, which is the charge the first
// step would otherwise pay, so the bill is unchanged.
func newWalkRecorder(api osn.API, w walk.Walker[graph.Node], pol recordPolicy, capacity int) (*walkRecorder, error) {
	r := &walkRecorder{api: api, w: w, pol: pol, prev: w.Current(), steps: make([]TrajStep, 0, capacity)}
	if pol.cost != ExploreFree {
		r.explored = make(map[graph.Node]struct{})
	}
	if pol.lookAhead {
		ns, err := api.Neighbors(r.prev)
		if err != nil {
			return nil, fmt.Errorf("core: recording start node %d: %w", r.prev, err)
		}
		r.start = TrajStart{Node: r.prev, Degree: len(ns), Neighbors: ns}
	}
	return r, nil
}

// run records up to iters steps, asking stop (nil: never) before each
// step after the first: a walker always records one step, even when the
// prepaid start list used up its budget. With soft set, a charge the budget
// refuses ends the walk normally (exhausted); otherwise it is an error.
func (r *walkRecorder) run(ctx context.Context, iters int, stop func(n int) bool, soft bool) (exhausted bool, err error) {
	for iter := 0; iter < iters; iter++ {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if stop != nil && len(r.steps) > 0 && stop(len(r.steps)) {
			return false, nil
		}
		if err := r.step(); err != nil {
			if soft && errors.Is(err, osn.ErrBudgetExhausted) {
				return true, nil
			}
			return false, fmt.Errorf("core: sampling step %d: %w", iter, err)
		}
	}
	return false, nil
}

// step takes one walk step and records it, buying the arrival's friend list
// and billing its exploration per the policy.
func (r *walkRecorder) step() error {
	cur, err := r.w.Step()
	if err != nil {
		return err
	}
	st := TrajStep{Prev: r.prev, Node: cur}
	if r.pol.lookAhead {
		ns, err := r.api.Neighbors(cur)
		if err != nil {
			return err
		}
		st.Degree, st.Neighbors = len(ns), ns
	}
	if r.explored != nil && (r.api.HasLabel(cur, r.pol.pair.T1) || r.api.HasLabel(cur, r.pol.pair.T2)) {
		if _, seen := r.explored[cur]; !seen {
			r.explored[cur] = struct{}{}
			n := int64(1)
			if r.pol.cost == ExplorePerNeighbor {
				n = int64(st.Degree)
			}
			if err := r.api.ChargeFlat(n); err != nil {
				return fmt.Errorf("core: billing exploration of node %d: %w", cur, err)
			}
		}
	}
	r.steps = append(r.steps, st)
	r.prev = cur
	return nil
}

// recording is the row-form output of recordWalks: per-walker steps, start
// states (zero without look-ahead) and billed calls.
type recording struct {
	steps  [][]TrajStep
	starts []TrajStart
	calls  []int64
}

// lens returns each walker's recorded step count.
func (rec recording) lens() []int {
	n := make([]int, len(rec.steps))
	for w, steps := range rec.steps {
		n[w] = len(steps)
	}
	return n
}

// recordWalks runs one burned-in walk, or a fleet of opts.Walkers >= 2 over
// the shared session, through the recording loop. k is the sample count,
// or the API-call budget when opts.BudgetDriven is set. The serial walk
// fails on any refused charge; fleet walkers share the budget softly (see
// walk.RunFleet) and stop on their own share.
func recordWalks(s *osn.Session, k int, opts Options, pol recordPolicy) (recording, error) {
	if opts.Walkers <= 1 {
		w, err := newBurnedInWalk(s, opts)
		if err != nil {
			return recording{}, err
		}
		s.ResetAccounting()
		r, err := newWalkRecorder(s, w, pol, k)
		if err != nil {
			return recording{}, err
		}
		// Cache hits are free, so a budget-driven walk may take more steps
		// than k; the cap prevents spinning once the whole graph is cached.
		iters := k
		if opts.BudgetDriven {
			iters = 50 * k
		}
		budgetSpent := func(int) bool { return opts.BudgetDriven && s.Calls() >= int64(k) }
		if _, err := r.run(opts.ctx(), iters, budgetSpent, false); err != nil {
			return recording{}, err
		}
		return recording{steps: [][]TrajStep{r.steps}, starts: []TrajStart{r.start}, calls: []int64{s.Calls()}}, nil
	}
	W := min(opts.Walkers, k) // every walker gets a positive share of k
	rec := recording{steps: make([][]TrajStep, W), starts: make([]TrajStart, W)}
	calls, err := walk.RunFleet(walk.FleetConfig[graph.Node]{
		Session:      s,
		Ctx:          opts.Ctx,
		Seed:         opts.Seed,
		Walkers:      W,
		K:            k,
		BudgetDriven: opts.BudgetDriven,
		BurnIn:       opts.BurnIn,
		NewWalker: func(fr *walk.FleetRun[graph.Node]) (walk.Walker[graph.Node], error) {
			start, err := startNode(fr.Meter, opts.Start, fr.Rng)
			if err != nil {
				return nil, err
			}
			return newWalk(fr.Meter, opts, start, fr.Rng)
		},
		Sample: func(fr *walk.FleetRun[graph.Node]) error {
			// Fleet meters are uncapped (budget shares are enforced softly
			// by Done), so the start fetch fails only on a real source
			// error.
			r, err := newWalkRecorder(fr.Meter, fr.W, pol, fr.Quota)
			if err != nil {
				return err
			}
			_, err = r.run(fr.Ctx, fr.MaxIters(), fr.Done, true)
			rec.steps[fr.ID], rec.starts[fr.ID] = r.steps, r.start
			return err
		},
	})
	if err != nil {
		return recording{}, err
	}
	rec.calls = calls
	return rec, nil
}

// sortPairEstimates orders a census descending by estimate, breaking ties
// by pair for determinism.
func sortPairEstimates(pairs []PairEstimate) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Estimate != pairs[j].Estimate {
			return pairs[i].Estimate > pairs[j].Estimate
		}
		pi, pj := pairs[i].Pair, pairs[j].Pair
		if pi.T1 != pj.T1 {
			return pi.T1 < pj.T1
		}
		return pi.T2 < pj.T2
	})
}

// retainedCount mirrors the serial thinning arithmetic: how many of n
// samples feed the HT estimator at the given gap.
func retainedCount(n, gap int) int {
	if gap > 1 {
		return n / gap
	}
	return n
}

func sum[T int | int64](xs []T) T {
	var n T
	for _, x := range xs {
		n += x
	}
	return n
}
