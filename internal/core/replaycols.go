package core

import (
	"sync"

	"repro/internal/estimate"
	"repro/internal/graph"
)

// This file builds the trajectory's pair-independent replay columns. The
// Horvitz–Thompson estimators contribute y/π once per *distinct* retained
// unit, and which step first sees each edge or node is a property of the
// trajectory alone — it is the same for every queried label pair and every
// concurrent query. Likewise the NE inclusion probability depends only on
// the step's degree and the retained-sample count, and 1/d(u) only on the
// degree. Precomputing all of them once turns the per-pair inner loop of
// the fused replay into straight-line float arithmetic: no dedup maps, no
// expm1/log1p, no divisions that every pair would redo.

// replayCols holds the precomputed per-step replay columns. All columns are
// index-aligned with the step columns; first-visit flags are false and
// inclusion probabilities zero at steps the thinning gap drops, because the
// HT estimators never see those steps.
type replayCols struct {
	// retained[i] reports whether step i survives the thinning gap; nil
	// when ThinGap <= 1 (every step retained).
	retained []bool
	// edgeFirst and nodeFirst flag the first retained occurrence of the
	// step's canonical edge / arrival node across the whole pass, in global
	// step order — the H(· ∈ S) indicator of the pooled HT estimators.
	edgeFirst []bool
	nodeFirst []bool
	// edgeFirstW and nodeFirstW flag first retained occurrences *within the
	// owning walker* — the indicator of the per-walker HT sub-estimates
	// behind the confidence intervals. nil for serial trajectories.
	edgeFirstW []bool
	nodeFirstW []bool
	// nodeFirstAllW flags the first occurrence of the arrival node within
	// its walker among ALL steps (retention does not apply): the NE
	// exploration counter visits every step and resets per walker, and
	// whether a node counts as explored is a per-node label property, so
	// first-occurrence is the only per-step state it needs.
	nodeFirstAllW []bool
	// neIncl[i] is InclusionProbability(d(u_i)/2|E|, retainedTotal), the NE
	// HT inclusion probability of step i; neInclW uses the owning walker's
	// retained count (nil for serial trajectories).
	neIncl  []float64
	neInclW []float64
	// invDeg[i] is 1/d(u_i), shared by every pair's re-weighted estimator.
	invDeg []float64
	// occ groups every arrival by node — the collision-counting index.
	occ *OccurrenceIndex
}

// OccurrenceIndex groups the trajectory's arrivals by node: Nodes lists the
// distinct arrival nodes in first-visit order, and node j's occurrences are
// the index range Off[j]..Off[j+1] into the Walker / Pos columns (owning
// walker and walker-local sample position, in global step order — so each
// node's occurrences are sorted by walker, then by position). Collision
// counting (sizeest) derives its same-node pair counts from this index
// instead of rebuilding per-walker position maps on every replay; the
// counts are integer sums over unordered pairs, so the grouping changes
// no result bits.
type OccurrenceIndex struct {
	Nodes  []graph.Node
	Off    []int32
	Walker []int32
	Pos    []int32
}

// Occurrences returns the trajectory's node-occurrence index, built lazily
// with the other replay columns and shared by every replay.
func (t *Trajectory) Occurrences() *OccurrenceIndex {
	return t.replayColumns().occ
}

// replayHolder guards one lazy build of the replay columns, mirroring
// colsHolder. The columns derive from the step columns and recording
// parameters only — not from labels — so BindLabels keeps them. The
// common-neighbor column builds under its own Once: only triangle-shaped
// replays need it, and replays that don't should not pay for it.
type replayHolder struct {
	once sync.Once
	cols *replayCols

	commonOnce sync.Once
	common     []int32
}

// replayColumns returns the trajectory's replay columns, building them on
// first use. Safe for concurrent replays over one trajectory.
func (t *Trajectory) replayColumns() *replayCols {
	h := t.replayH
	if h == nil {
		// Trajectories assembled without SetData/NewTrajectoryFromSteps
		// (tests building literals) get an unshared build.
		return buildReplayCols(t)
	}
	h.once.Do(func() { h.cols = buildReplayCols(t) })
	return h.cols
}

// EdgeCommonNeighbors returns the per-step count |N(prev_i) ∩ N(node_i)| of
// neighbors common to the sampled edge's endpoints — the closed-triangle
// count every triangle estimator derives per step. The previous endpoint's
// friend list is the preceding step's (the walker's start list at its first
// step), so the column is pure trajectory structure: label-independent,
// identical for every query, and built once per trajectory. Returns nil when
// the trajectory lacks per-walker start states (the prev lists are then
// unknown).
func (t *Trajectory) EdgeCommonNeighbors() []int32 {
	h := t.replayH
	if h == nil {
		return buildCommonNeighbors(t)
	}
	h.commonOnce.Do(func() { h.common = buildCommonNeighbors(t) })
	return h.common
}

// buildCommonNeighbors counts each step's endpoint-common neighbors. With a
// bounded node universe it runs an epoch-stamped membership scan — two flat
// passes per friend list instead of a branchy sorted merge — and because the
// prev list at step i+1 is exactly step i's friend list, each list is marked
// once. The count is an integer either way, so the algorithm choice changes
// no result bits.
func buildCommonNeighbors(t *Trajectory) []int32 {
	if !t.HasStarts() {
		return nil
	}
	S := t.Samples()
	W := t.NumWalkers()
	cn := make([]int32, S)
	dense := denseScratch(t.NumNodes, len(t.arena))
	if dense {
		// Arena entries outside [0, NumNodes) would overflow the stamp
		// array; fall back to merging if any exist (a malformed header).
		for _, v := range t.arena {
			if int(v) < 0 || int(v) >= t.NumNodes {
				dense = false
				break
			}
		}
	}
	if dense {
		stamp := make([]int32, t.NumNodes)
		for i := range stamp {
			stamp[i] = -1
		}
		epoch := int32(0)
		for w := 0; w < W; w++ {
			for _, v := range t.StartNeighbors(w) {
				stamp[v] = epoch
			}
			lo, hi := t.WalkerSpan(w)
			for i := lo; i < hi; i++ {
				nbrs := t.arena[t.nbrOff[i]:t.nbrOff[i+1]]
				c := int32(0)
				for _, v := range nbrs {
					if stamp[v] == epoch {
						c++
					}
				}
				cn[i] = c
				epoch++
				for _, v := range nbrs {
					stamp[v] = epoch
				}
			}
			epoch++
		}
		return cn
	}
	for w := 0; w < W; w++ {
		prev := t.StartNeighbors(w)
		lo, hi := t.WalkerSpan(w)
		for i := lo; i < hi; i++ {
			nbrs := t.arena[t.nbrOff[i]:t.nbrOff[i+1]]
			cn[i] = int32(commonSorted(prev, nbrs))
			prev = nbrs
		}
	}
	return cn
}

// commonSorted merge-counts the intersection of two sorted node lists.
func commonSorted(nu, nv []graph.Node) int {
	common, i, j := 0, 0, 0
	for i < len(nu) && j < len(nv) {
		switch {
		case nu[i] < nv[j]:
			i++
		case nu[i] > nv[j]:
			j++
		default:
			common++
			i++
			j++
		}
	}
	return common
}

// buildReplayCols scans the step columns once, replaying the dedup the HT
// estimators would do and freezing the outcome into flag columns.
func buildReplayCols(t *Trajectory) *replayCols {
	S := t.Samples()
	W := t.NumWalkers()
	gap := t.ThinGap
	serial := t.Walkers <= 1
	rc := &replayCols{
		edgeFirst:     make([]bool, S),
		nodeFirst:     make([]bool, S),
		nodeFirstAllW: make([]bool, S),
		neIncl:        make([]float64, S),
		invDeg:        make([]float64, S),
	}
	if gap > 1 {
		rc.retained = make([]bool, S)
	}
	if !serial {
		rc.edgeFirstW = make([]bool, S)
		rc.nodeFirstW = make([]bool, S)
		rc.neInclW = make([]float64, S)
	}

	// Retained-sample counts, exactly as the aggregators size them: the
	// pooled count feeds neIncl, the per-walker counts feed neInclW.
	retTotal := 0
	retW := make([]int, W)
	for w := 0; w < W; w++ {
		retW[w] = retainedCount(t.WalkerLen(w), gap)
		retTotal += retW[w]
	}

	numEdges := float64(t.NumEdges)
	seenEdges := make(map[graph.Edge]struct{}, S)
	seenNodes := newNodeSet(t.NumNodes)
	for w := 0; w < W; w++ {
		lo, hi := t.WalkerSpan(w)
		var wEdges map[graph.Edge]struct{}
		var wNodes *nodeSet
		if !serial {
			wEdges = make(map[graph.Edge]struct{}, hi-lo)
			wNodes = newNodeSet(t.NumNodes)
		}
		wNodesAll := newNodeSet(t.NumNodes)
		for i := lo; i < hi; i++ {
			d := int(t.deg[i])
			rc.invDeg[i] = 1 / float64(d)
			if wNodesAll.add(t.node[i]) {
				rc.nodeFirstAllW[i] = true
			}
			if gap > 1 {
				if (i-lo)%gap != 0 {
					continue
				}
				rc.retained[i] = true
			}
			e := graph.Edge{U: t.prev[i], V: t.node[i]}.Canonical()
			if _, dup := seenEdges[e]; !dup {
				seenEdges[e] = struct{}{}
				rc.edgeFirst[i] = true
			}
			u := t.node[i]
			if seenNodes.add(u) {
				rc.nodeFirst[i] = true
			}
			// Bit-identical to what replayNE computes inline: same p
			// expression, same retained count.
			rc.neIncl[i] = estimate.InclusionProbability(float64(d)/(2*numEdges), retTotal)
			if !serial {
				if _, dup := wEdges[e]; !dup {
					wEdges[e] = struct{}{}
					rc.edgeFirstW[i] = true
				}
				if wNodes.add(u) {
					rc.nodeFirstW[i] = true
				}
				rc.neInclW[i] = estimate.InclusionProbability(float64(d)/(2*numEdges), retW[w])
			}
		}
	}
	rc.occ = buildOccurrences(t)
	return rc
}

// buildOccurrences assembles the node-occurrence index in two passes: the
// first assigns each distinct arrival node a group in first-visit order and
// counts occurrences, the second fills the grouped columns.
func buildOccurrences(t *Trajectory) *OccurrenceIndex {
	S := t.Samples()
	W := t.NumWalkers()
	slotOf := func() func(u graph.Node, assign bool) int32 {
		if denseScratch(t.NumNodes, S) {
			slots := make([]int32, t.NumNodes)
			for i := range slots {
				slots[i] = -1
			}
			next := int32(0)
			return func(u graph.Node, assign bool) int32 {
				if s := slots[u]; s >= 0 || !assign {
					return s
				}
				slots[u] = next
				next++
				return slots[u]
			}
		}
		m := make(map[graph.Node]int32, S)
		return func(u graph.Node, assign bool) int32 {
			if s, ok := m[u]; ok {
				return s
			}
			if !assign {
				return -1
			}
			s := int32(len(m))
			m[u] = s
			return s
		}
	}()

	occ := &OccurrenceIndex{
		Walker: make([]int32, S),
		Pos:    make([]int32, S),
	}
	counts := make([]int32, 0, S)
	for _, u := range t.node {
		s := slotOf(u, true)
		if int(s) == len(counts) {
			occ.Nodes = append(occ.Nodes, u)
			counts = append(counts, 0)
		}
		counts[s]++
	}
	occ.Off = make([]int32, len(counts)+1)
	for j, c := range counts {
		occ.Off[j+1] = occ.Off[j] + c
	}
	fill := make([]int32, len(counts))
	copy(fill, occ.Off[:len(counts)])
	for w := 0; w < W; w++ {
		lo, hi := t.WalkerSpan(w)
		for i := lo; i < hi; i++ {
			s := slotOf(t.node[i], false)
			at := fill[s]
			fill[s]++
			occ.Walker[at] = int32(w)
			occ.Pos[at] = int32(i - lo)
		}
	}
	return occ
}

// isRetained reports whether step i survives the thinning gap.
func (rc *replayCols) isRetained(i int) bool {
	return rc.retained == nil || rc.retained[i]
}
