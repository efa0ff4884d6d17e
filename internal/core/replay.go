package core

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
)

// This file is the fused replay pass: one iteration over the trajectory's
// step columns that feeds every registered query's streaming aggregators
// simultaneously. N queries over one trajectory used to cost N full replays,
// each re-walking the steps and re-resolving labels through an interface;
// now they cost one column sweep, with label membership answered by the
// precomputed mask columns (labelcols.go). Bit-identity with the per-query
// replays is structural: each aggregator still receives exactly its own
// sample sequence in walker-major step order — fusing only interleaves
// *different* accumulators, never reorders any one accumulator's inputs.

// TrajectoryVisitor consumes a trajectory's steps in one walker-major pass.
// The driver calls BeginWalker(w, n) with walker w's sample count, then
// VisitStep for each global step index in WalkerSpan(w), then EndWalker —
// for every walker in order — and finally Result.
type TrajectoryVisitor interface {
	BeginWalker(w, n int) error
	VisitStep(i int) error
	EndWalker(w int) error
	Result() (any, error)
}

// StreamingTask is an EstimationTask that can join a fused replay pass.
// NewVisitor builds the task's streaming aggregator over t; the task's
// Estimate and a fused pass containing its visitor must produce identical
// results (the bit-identity sweep in replay_identity_test.go pins this for
// every registered kind).
type StreamingTask interface {
	EstimationTask
	NewVisitor(t *Trajectory) (TrajectoryVisitor, error)
}

// RunVisitors drives one walker-major pass over t, aborting on the first
// visitor error — the single-task path (EstimateManyPairs, census and the
// per-kind Estimate methods) where one error fails the whole call.
func RunVisitors(t *Trajectory, vs []TrajectoryVisitor) error {
	W := t.NumWalkers()
	for w := 0; w < W; w++ {
		lo, hi := t.WalkerSpan(w)
		for _, v := range vs {
			if err := v.BeginWalker(w, hi-lo); err != nil {
				return err
			}
		}
		for i := lo; i < hi; i++ {
			for _, v := range vs {
				if err := v.VisitStep(i); err != nil {
					return err
				}
			}
		}
		for _, v := range vs {
			if err := v.EndWalker(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// RunTasksFused replays every task over t in ONE pass over the step columns.
// Streaming tasks register visitors against the shared sweep; tasks that
// cannot stream fall back to their own Estimate. Errors are isolated per
// task (errs[i] mirrors tasks[i]); a failed visitor drops out of the pass
// without disturbing the others.
func RunTasksFused(t *Trajectory, tasks []EstimationTask) (outs []any, errs []error) {
	outs = make([]any, len(tasks))
	errs = make([]error, len(tasks))
	if t == nil || t.Samples() == 0 {
		// Let each kind produce its own "needs a recorded trajectory" error.
		for i, task := range tasks {
			if task == nil {
				errs[i] = fmt.Errorf("core: nil estimation task")
				continue
			}
			outs[i], errs[i] = task.Estimate(t)
		}
		return outs, errs
	}
	type slot struct {
		idx int
		v   TrajectoryVisitor
	}
	active := make([]slot, 0, len(tasks))
	for idx, task := range tasks {
		if task == nil {
			errs[idx] = fmt.Errorf("core: nil estimation task")
			continue
		}
		if st, ok := task.(StreamingTask); ok {
			v, err := st.NewVisitor(t)
			if err != nil {
				errs[idx] = err
				continue
			}
			active = append(active, slot{idx: idx, v: v})
			continue
		}
		outs[idx], errs[idx] = task.Estimate(t)
	}
	drop := func(k int, err error) {
		errs[active[k].idx] = err
		active = append(active[:k], active[k+1:]...)
	}
	W := t.NumWalkers()
	for w := 0; w < W && len(active) > 0; w++ {
		lo, hi := t.WalkerSpan(w)
		for k := 0; k < len(active); k++ {
			if err := active[k].v.BeginWalker(w, hi-lo); err != nil {
				drop(k, err)
				k--
			}
		}
		for i := lo; i < hi && len(active) > 0; i++ {
			for k := 0; k < len(active); k++ {
				if err := active[k].v.VisitStep(i); err != nil {
					drop(k, err)
					k--
				}
			}
		}
		for k := 0; k < len(active); k++ {
			if err := active[k].v.EndWalker(w); err != nil {
				drop(k, err)
				k--
			}
		}
	}
	for _, s := range active {
		outs[s.idx], errs[s.idx] = s.v.Result()
	}
	return outs, errs
}

// pairReplayState is one label pair's streaming aggregators inside the
// fused pass.
type pairReplayState struct {
	pair   graph.LabelPair
	m1, m2 uint64
	ns     *nsAgg
	ne     *neAgg
	// explorations counts distinct explored nodes per walker, summed over
	// walkers. Whether a node explores is a per-node label property, so the
	// walker-local first-occurrence column decides it — no per-pair set.
	explorations int
}

// pairsVisitor replays every queried label pair's NS and NE estimators in
// one pass — the fused form of EstimateManyPairs.
type pairsVisitor struct {
	t        *Trajectory
	lc       *labelCols
	rc       *replayCols
	useMasks bool
	ps       []pairReplayState
}

// newPairsVisitor sizes the per-pair aggregators from the walker extents
// (every recorded step yields exactly one edge sample and one node sample,
// so the per-walker sample counts are the walker lengths).
func newPairsVisitor(t *Trajectory, pairs []graph.LabelPair) (*pairsVisitor, error) {
	serial := t.Walkers <= 1
	W := t.NumWalkers()
	counts := make([]int, W)
	for w := 0; w < W; w++ {
		counts[w] = t.WalkerLen(w)
	}
	lc := t.labelColumns()
	v := &pairsVisitor{t: t, lc: lc, rc: t.replayColumns(), useMasks: lc.ok, ps: make([]pairReplayState, len(pairs))}
	numEdges := float64(t.NumEdges)
	numNodes := float64(t.NumNodes)
	for k, pair := range pairs {
		ns, err := newNSAgg(numEdges, t.ThinGap, serial, counts)
		if err != nil {
			return nil, err
		}
		ne, err := newNEAgg(numEdges, numNodes, t.ThinGap, serial, counts)
		if err != nil {
			return nil, err
		}
		st := pairReplayState{pair: pair, ns: ns, ne: ne}
		if lc.ok {
			st.m1, st.m2 = lc.pairMasks(pair)
		}
		v.ps[k] = st
	}
	return v, nil
}

func (v *pairsVisitor) BeginWalker(w, n int) error {
	for k := range v.ps {
		p := &v.ps[k]
		p.ns.beginWalker(n)
		p.ne.beginWalker(n)
	}
	return nil
}

func (v *pairsVisitor) VisitStep(i int) error {
	t, rc := v.t, v.rc
	prev, node := t.prev[i], t.node[i]
	d := int(t.deg[i])
	// The HT dedup outcome, the NE inclusion probability and 1/d are
	// pair-independent — read once from the precomputed columns and share
	// them across every queried pair.
	retained := rc.isRetained(i)
	ef, nf := rc.edgeFirst[i], rc.nodeFirst[i]
	efW, nfW := false, false
	if rc.edgeFirstW != nil {
		efW, nfW = rc.edgeFirstW[i], rc.nodeFirstW[i]
	}
	incl, invD := rc.neIncl[i], rc.invDeg[i]
	inclW := 0.0
	if rc.neInclW != nil {
		inclW = rc.neInclW[i]
	}
	firstAllW := rc.nodeFirstAllW[i]
	if v.useMasks {
		pm, nm := v.lc.stepPrev[i], v.lc.stepNode[i]
		for k := range v.ps {
			p := &v.ps[k]
			// Target membership of the traversed edge: symmetric in the two
			// endpoints, so the orientation of (prev, node) is irrelevant.
			target := pm&p.m1 != 0 && nm&p.m2 != 0 || pm&p.m2 != 0 && nm&p.m1 != 0
			if err := p.ns.addIndexed(target, retained, ef, efW); err != nil {
				return err
			}
			hasT1 := nm&p.m1 != 0
			hasT2 := nm&p.m2 != 0
			tt := 0
			if hasT1 || hasT2 {
				tt = v.lc.targetDegreeRuns(i, hasT1, hasT2, p.m1, p.m2)
				if firstAllW {
					p.explorations++
				}
			}
			if err := p.ne.addIndexed(tt, d, retained, nf, nfW, incl, inclW, invD); err != nil {
				return err
			}
		}
		return nil
	}
	labels := t.labels
	e := graph.Edge{U: prev, V: node}.Canonical()
	st := TrajStep{Prev: prev, Node: node, Degree: d, Neighbors: t.arena[t.nbrOff[i]:t.nbrOff[i+1]]}
	for k := range v.ps {
		p := &v.ps[k]
		target := labels.HasLabel(e.U, p.pair.T1) && labels.HasLabel(e.V, p.pair.T2) ||
			labels.HasLabel(e.U, p.pair.T2) && labels.HasLabel(e.V, p.pair.T1)
		if err := p.ns.addIndexed(target, retained, ef, efW); err != nil {
			return err
		}
		tt, explores := ReplayTargetDegree(labels, st, p.pair)
		if explores && firstAllW {
			p.explorations++
		}
		if err := p.ne.addIndexed(tt, d, retained, nf, nfW, incl, inclW, invD); err != nil {
			return err
		}
	}
	return nil
}

func (v *pairsVisitor) EndWalker(w int) error {
	for k := range v.ps {
		v.ps[k].ns.endWalker()
		v.ps[k].ne.endWalker()
	}
	return nil
}

// estimates assembles the finished per-pair results.
func (v *pairsVisitor) estimates() ([]PairEstimates, error) {
	out := make([]PairEstimates, 0, len(v.ps))
	for k := range v.ps {
		p := &v.ps[k]
		pe := PairEstimates{Pair: p.pair}
		p.ns.finishInto(&pe.NS)
		p.ne.finishInto(&pe.NE)
		pe.NS.APICalls = v.t.APICalls
		pe.NE.APICalls = v.t.APICalls
		pe.NE.Explorations = p.explorations
		out = append(out, pe)
	}
	return out, nil
}

func (v *pairsVisitor) Result() (any, error) { return v.estimates() }

// censusVisitor replays the all-pairs census in one pass — the fused form
// of CensusFromTrajectory.
type censusVisitor struct {
	t        *Trajectory
	top      int
	lc       *labelCols
	useMasks bool
	hits     map[graph.LabelPair]int
	seen     map[graph.LabelPair]struct{}
	samples  int
}

func newCensusVisitor(t *Trajectory, top int) (*censusVisitor, error) {
	if top < 0 {
		return nil, fmt.Errorf("core: census replay needs top >= 0, got %d", top)
	}
	lc := t.labelColumns()
	return &censusVisitor{
		t:        t,
		top:      top,
		lc:       lc,
		useMasks: lc.ok,
		hits:     make(map[graph.LabelPair]int),
		seen:     make(map[graph.LabelPair]struct{}, 8),
	}, nil
}

func (v *censusVisitor) BeginWalker(w, n int) error { return nil }

func (v *censusVisitor) VisitStep(i int) error {
	v.samples++
	if v.useMasks {
		// The per-step credits are integer increments determined entirely
		// by the two endpoint masks, so Result replays the precomputed
		// (prev, node) mask combos scaled by multiplicity instead —
		// identical counts in O(distinct combos) work.
		return nil
	}
	censusHits(v.t.labels, v.t.prev[i], v.t.node[i], v.hits, v.seen)
	return nil
}

func (v *censusVisitor) EndWalker(w int) error { return nil }

func (v *censusVisitor) Result() (any, error) {
	var res CensusResult
	res.Samples = v.samples
	if res.Samples == 0 {
		return nil, fmt.Errorf("core: EstimateCensus drew no samples")
	}
	if v.useMasks {
		for c := range v.lc.comboCnt {
			censusHitsMaskedN(v.lc, v.lc.comboPrev[c], v.lc.comboNode[c], int(v.lc.comboCnt[c]), v.hits, v.seen)
		}
	}
	numEdges := float64(v.t.NumEdges)
	res.Pairs = make([]PairEstimate, 0, len(v.hits))
	for p, h := range v.hits {
		res.Pairs = append(res.Pairs, PairEstimate{
			Pair:     p,
			Estimate: numEdges * float64(h) / float64(res.Samples),
			Hits:     h,
		})
	}
	sortPairEstimates(res.Pairs)
	if v.top > 0 && v.top < len(res.Pairs) {
		res.Pairs = res.Pairs[:v.top]
	}
	res.APICalls = v.t.APICalls
	res.Walkers = v.t.Walkers
	return res, nil
}

// censusHitsMaskedN credits one step's label pairs n times — the combo
// replay: n steps sharing the same endpoint masks credit the same pairs.
func censusHitsMaskedN(lc *labelCols, pm, nm uint64, n int, hits map[graph.LabelPair]int, seen map[graph.LabelPair]struct{}) {
	clear(seen)
	for a := pm; a != 0; a &= a - 1 {
		la := lc.table[bits.TrailingZeros64(a)]
		for b := nm; b != 0; b &= b - 1 {
			lb := lc.table[bits.TrailingZeros64(b)]
			p := graph.LabelPair{T1: la, T2: lb}.Canonical()
			if _, dup := seen[p]; dup {
				continue
			}
			seen[p] = struct{}{}
			hits[p] += n
		}
	}
}

// NewVisitor lets the pairs task join a fused pass.
func (pt pairsTask) NewVisitor(t *Trajectory) (TrajectoryVisitor, error) {
	return newPairsVisitor(t, pt.pairs)
}

// NewVisitor lets the census task join a fused pass.
func (ct censusTask) NewVisitor(t *Trajectory) (TrajectoryVisitor, error) {
	return newCensusVisitor(t, ct.top)
}
