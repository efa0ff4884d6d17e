package core

import (
	"fmt"

	"repro/internal/estimate"
	"repro/internal/graph"
)

// This file holds the estimator-aggregation stage of NeighborSample and
// NeighborExploration as streaming accumulators over a recorded walk:
// replays feed one sample at a time, with its Horvitz–Thompson dedup
// outcome precomputed, and read the finished result at the end. The
// one-pair replays behind NeighborSample and NeighborExploration and the
// fused multi-query pass all drive the same arithmetic in the same order.
// Walker boundaries are explicit (beginWalker/endWalker) so the per-walker
// sub-estimates behind the confidence intervals accumulate walker by
// walker; the serial mode keeps per-sample HH terms for the batch-means SE
// instead.

// nsAgg streams edge samples into the NeighborSample estimators.
type nsAgg struct {
	numEdges float64
	thinGap  int
	serial   bool
	walkers  int

	incl    float64 // pooled HT inclusion probability
	hh      *estimate.HansenHurwitz
	ht      *estimate.HorvitzThompson[graph.Edge]
	hhTerms []float64 // serial only: feeds the batch-means SE
	perHH   []float64 // parallel only: per-walker estimates for the CIs
	perHT   []float64

	samples    int
	targetHits int

	// current-walker state
	whh   *estimate.HansenHurwitz
	wht   *estimate.HorvitzThompson[graph.Edge]
	wincl float64
	wn    int // sample count of the current walker
}

// newNSAgg sizes a NeighborSample accumulator for per-walker sample counts
// known up front (from the walker extents or the recorded walks). serial
// selects the single-walk aggregation; otherwise the multi-walker merging is
// used with len(perCounts) walkers.
func newNSAgg(numEdges float64, thinGap int, serial bool, perCounts []int) (*nsAgg, error) {
	retained, err := pooledRetained(perCounts, thinGap)
	if err != nil {
		return nil, err
	}
	a := &nsAgg{
		numEdges: numEdges,
		thinGap:  thinGap,
		serial:   serial,
		walkers:  len(perCounts),
		incl:     estimate.InclusionProbability(1/numEdges, retained),
		hh:       &estimate.HansenHurwitz{},
		ht:       &estimate.HorvitzThompson[graph.Edge]{},
	}
	if serial {
		a.hhTerms = make([]float64, 0, perCounts[0])
	} else {
		a.perHH = make([]float64, 0, len(perCounts))
		a.perHT = make([]float64, 0, len(perCounts))
	}
	return a, nil
}

// pooledRetained is how many samples of all walkers survive the thinning
// gap — the pooled HT sample size — failing when none does.
func pooledRetained(perCounts []int, thinGap int) (int, error) {
	retained, total := 0, 0
	for _, n := range perCounts {
		retained += retainedCount(n, thinGap)
		total += n
	}
	if retained == 0 {
		return 0, fmt.Errorf("core: thinning gap %d leaves no samples out of %d", thinGap, total)
	}
	return retained, nil
}

// beginWalker opens the next walker's sample stream of n samples.
func (a *nsAgg) beginWalker(n int) {
	a.wn = n
	if !a.serial {
		a.whh = &estimate.HansenHurwitz{}
		a.wht = &estimate.HorvitzThompson[graph.Edge]{}
		a.wincl = estimate.InclusionProbability(1/a.numEdges, retainedCount(n, a.thinGap))
	}
}

// addIndexed streams one retained walk transition whose Horvitz–Thompson
// dedup was precomputed (see replayCols): retained reports whether the step
// survives the thinning gap, first / firstW whether it is the first retained
// occurrence of its canonical edge in the pooled / per-walker stream. It
// accumulates bit-for-bit what add would — the HT sums receive the same
// y/π terms in the same order, only the dedup map is skipped.
func (a *nsAgg) addIndexed(target bool, retained, first, firstW bool) error {
	a.samples++
	indicator := 0.0
	if target {
		indicator = 1
		a.targetHits++
	}
	term := indicator * a.numEdges
	if a.serial {
		a.hhTerms = append(a.hhTerms, term)
	}
	a.hh.AddUnit(term)
	if !a.serial {
		a.whh.AddUnit(term)
	}
	if retained {
		if first {
			if err := a.ht.AddFirst(indicator, a.incl); err != nil {
				return err
			}
		}
		if !a.serial && firstW {
			if err := a.wht.AddFirst(indicator, a.wincl); err != nil {
				return err
			}
		}
	}
	return nil
}

// endWalker closes the current walker, folding its sub-estimates into the
// per-walker series behind the confidence intervals.
func (a *nsAgg) endWalker() {
	if !a.serial && a.wn > 0 {
		a.perHH = append(a.perHH, a.whh.Estimate())
		a.perHT = append(a.perHT, a.wht.Estimate())
	}
}

// finishInto writes the finished estimators into res (every field except
// APICalls).
func (a *nsAgg) finishInto(res *NeighborSampleResult) {
	res.Samples = a.samples
	res.TargetHits = a.targetHits
	res.HH = a.hh.Estimate()
	res.HT = a.ht.Estimate()
	res.DistinctEdges = a.ht.Distinct()
	if a.serial {
		res.HHStdErr = batchSE(a.hhTerms)
		res.Walkers = 1
		return
	}
	res.HHCI = estimate.CIFromEstimates(a.perHH, ciLevel)
	res.HTCI = estimate.CIFromEstimates(a.perHT, ciLevel)
	res.HHStdErr = res.HHCI.StdErr
	res.Walkers = a.walkers
}

// neAgg streams node samples into the NeighborExploration estimators.
type neAgg struct {
	numEdges float64
	numNodes float64
	thinGap  int
	serial   bool
	walkers  int

	retained int // pooled HT retained count
	hh       *estimate.HansenHurwitz
	ht       *estimate.HorvitzThompson[graph.Node]
	rw       *estimate.Reweighted
	hhTerms  []float64
	perHH    []float64
	perHT    []float64
	perRW    []float64

	samples        int
	targetEdgeMass int64

	// current-walker state
	whh  *estimate.HansenHurwitz
	wht  *estimate.HorvitzThompson[graph.Node]
	wrw  *estimate.Reweighted
	wret int
	wn   int
}

// newNEAgg sizes a NeighborExploration accumulator; see newNSAgg.
func newNEAgg(numEdges, numNodes float64, thinGap int, serial bool, perCounts []int) (*neAgg, error) {
	retained, err := pooledRetained(perCounts, thinGap)
	if err != nil {
		return nil, err
	}
	a := &neAgg{
		numEdges: numEdges,
		numNodes: numNodes,
		thinGap:  thinGap,
		serial:   serial,
		walkers:  len(perCounts),
		retained: retained,
		hh:       &estimate.HansenHurwitz{},
		ht:       &estimate.HorvitzThompson[graph.Node]{},
		rw:       &estimate.Reweighted{},
	}
	if serial {
		a.hhTerms = make([]float64, 0, perCounts[0])
	} else {
		a.perHH = make([]float64, 0, len(perCounts))
		a.perHT = make([]float64, 0, len(perCounts))
		a.perRW = make([]float64, 0, len(perCounts))
	}
	return a, nil
}

// beginWalker opens the next walker's sample stream of n samples.
func (a *neAgg) beginWalker(n int) {
	a.wn = n
	if !a.serial {
		a.whh = &estimate.HansenHurwitz{}
		a.wht = &estimate.HorvitzThompson[graph.Node]{}
		a.wrw = &estimate.Reweighted{}
		a.wret = retainedCount(n, a.thinGap)
	}
}

// addIndexed streams one retained walk position using precomputed replay
// columns: first-visit flags replace the HT dedup maps, incl / inclW are the
// step's precomputed inclusion probabilities, and invD is 1/d. Bit-identical
// to add — every accumulator receives the same terms in the same order.
func (a *neAgg) addIndexed(t, d int, retained, first, firstW bool, incl, inclW, invD float64) error {
	a.samples++
	a.targetEdgeMass += int64(t)
	var term float64
	if t != 0 {
		// float64(0)*numEdges/d is exactly +0, so the skipped division
		// changes no bits.
		term = float64(t) * a.numEdges / float64(d)
	}
	if a.serial {
		a.hhTerms = append(a.hhTerms, term)
	}
	a.hh.AddUnit(term)
	if !a.serial {
		a.whh.AddUnit(term)
	}
	if a.serial {
		if err := a.rw.AddInv(float64(t), float64(d), invD); err != nil {
			return err
		}
	} else {
		if err := a.wrw.AddInv(float64(t), float64(d), invD); err != nil {
			return err
		}
	}
	if retained {
		if first {
			if err := a.ht.AddFirst(float64(t), incl); err != nil {
				return err
			}
		}
		if !a.serial && firstW {
			if err := a.wht.AddFirst(float64(t), inclW); err != nil {
				return err
			}
		}
	}
	return nil
}

// endWalker closes the current walker, merging its RW draws into the pooled
// ratio and recording its sub-estimates for the confidence intervals.
func (a *neAgg) endWalker() {
	if a.serial {
		return
	}
	a.rw.Merge(a.wrw)
	if a.wn > 0 {
		a.perHH = append(a.perHH, a.whh.Estimate())
		a.perHT = append(a.perHT, a.wht.Estimate()/2)
		a.perRW = append(a.perRW, a.wrw.Ratio()*a.numNodes/2)
	}
}

// finishInto writes the finished estimators into res (every field except
// APICalls and Explorations, which are access-time statistics the caller
// tracks).
func (a *neAgg) finishInto(res *NeighborExplorationResult) {
	res.Samples = a.samples
	res.TargetEdgeMass = a.targetEdgeMass
	res.HH = a.hh.Estimate()
	res.HT = a.ht.Estimate() / 2
	res.RW = a.rw.Ratio() * a.numNodes / 2
	res.DistinctNodes = a.ht.Distinct()
	if a.serial {
		res.HHStdErr = batchSE(a.hhTerms)
		res.Walkers = 1
		return
	}
	res.HHCI = estimate.CIFromEstimates(a.perHH, ciLevel)
	res.HTCI = estimate.CIFromEstimates(a.perHT, ciLevel)
	res.RWCI = estimate.CIFromEstimates(a.perRW, ciLevel)
	res.HHStdErr = res.HHCI.StdErr
	res.Walkers = a.walkers
}
