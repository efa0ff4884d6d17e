package core

import (
	"fmt"

	"repro/internal/estimate"
	"repro/internal/graph"
	"repro/internal/osn"
)

// NeighborExplorationResult carries the outputs of one NeighborExploration
// run (Algorithm 2 with the single-walk implementation of Section 4.2.2).
type NeighborExplorationResult struct {
	// HH is the Hansen–Hurwitz estimate of F (Eq. 11).
	HH float64
	// HHStdErr is a standard error for HH: batch-means on the serial path,
	// between-walker on multi-walker runs (see
	// NeighborSampleResult.HHStdErr).
	HHStdErr float64
	// HT is the Horvitz–Thompson estimate of F (Eq. 13).
	HT float64
	// RW is the Re-weighted (importance sampling) estimate of F (Eq. 19).
	RW float64
	// Samples is the number of nodes sampled.
	Samples int
	// DistinctNodes is the number of distinct nodes feeding the HT
	// estimator.
	DistinctNodes int
	// Explorations is how many sampled nodes carried a target label and had
	// their neighborhoods explored (deduplicated per node).
	Explorations int
	// TargetEdgeMass is Σ T(u_i) over the sample — the total target-edge
	// incidences observed.
	TargetEdgeMass int64
	// APICalls is the number of charged API calls in the sampling phase,
	// including exploration surcharges per the cost model. For a
	// multi-walker run this is the sum of the per-walker bills.
	APICalls int64
	// Walkers is how many concurrent walkers produced the sample (1 for the
	// serial path).
	Walkers int
	// HHCI, HTCI and RWCI are variance-based confidence intervals computed
	// from the per-walker estimates. Zero (Valid() == false) on serial runs.
	HHCI CI
	HTCI CI
	RWCI CI
}

// NeighborExploration samples nodes via a single simple random walk; for
// every sampled node carrying one of the target labels it explores the full
// neighborhood and records T(u), the number of incident target edges. It
// returns the HH, HT and RW estimates of F. Sampling probability of node u
// per step is the stationary π(u) = d(u)/2|E| (Section 4.2).
//
// k is the number of samples, or the API-call budget when
// opts.BudgetDriven is set; exploration is billed per opts.Cost as the walk
// is recorded, and the recording is then replayed for the one pair.
func NeighborExploration(s *osn.Session, pair graph.LabelPair, k int, opts Options) (NeighborExplorationResult, error) {
	var res NeighborExplorationResult
	if err := opts.validate(); err != nil {
		return res, err
	}
	if k <= 0 {
		return res, fmt.Errorf("core: NeighborExploration needs k > 0, got %d", k)
	}
	rec, err := recordWalks(s, k, opts, recordPolicy{lookAhead: true, cost: opts.Cost, pair: pair})
	if err != nil {
		return res, err
	}
	return rec.replayNE(s, pair, opts)
}

// replayNE feeds the recorded walks, in walker order, through the
// NeighborExploration aggregators for one pair (see replayNS). Explorations
// counts, per walker, the distinct nodes carrying a target label — the
// nodes whose neighborhoods Algorithm 2 explores.
func (rec recording) replayNE(s *osn.Session, pair graph.LabelPair, opts Options) (NeighborExplorationResult, error) {
	var res NeighborExplorationResult
	serial, gap := opts.Walkers <= 1, opts.ThinGap
	numEdges, numNodes := float64(s.NumEdges()), s.NumNodes()
	a, err := newNEAgg(numEdges, float64(numNodes), gap, serial, rec.lens())
	if err != nil {
		return res, err
	}
	seen := newNodeSet(numNodes)
	for _, steps := range rec.steps {
		a.beginWalker(len(steps))
		seenW, explored := newNodeSet(numNodes), newNodeSet(numNodes)
		for i, st := range steps {
			t, explores := ReplayTargetDegree(s, st, pair)
			if explores && explored.add(st.Node) {
				res.Explorations++
			}
			retained := gap <= 1 || i%gap == 0
			first, firstW := false, false
			var incl, inclW float64
			if retained {
				// HT (Eq. 13): inclusion 1−(1−d(u)/2|E|)^m, needed at each
				// node's first retained visit only.
				p := float64(st.Degree) / (2 * numEdges)
				if first = seen.add(st.Node); first {
					incl = estimate.InclusionProbability(p, a.retained)
				}
				if firstW = !serial && seenW.add(st.Node); firstW {
					inclW = estimate.InclusionProbability(p, a.wret)
				}
			}
			if err := a.addIndexed(t, st.Degree, retained, first, firstW, incl, inclW, 1/float64(st.Degree)); err != nil {
				return res, err
			}
		}
		a.endWalker()
	}
	a.finishInto(&res)
	res.APICalls = sum(rec.calls)
	return res, nil
}
