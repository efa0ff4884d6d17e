package core

import (
	"maps"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/graph"
)

// LabelSnapshot is an interned, immutable copy of the label sets of every
// node a trajectory references — start nodes, step endpoints and all their
// recorded neighbors — laid out exactly as the label sections of a .osnt
// file (internal/store): the sorted labeled nodes, per-node offsets, and the
// sorted table of distinct label values. Each node's set keeps the order
// its reader returned; a file's refs section is the table index of each
// stored value. Unlabeled nodes are represented by absence.
//
// A recording through a source other than the in-memory graph is bound to
// the snapshot taken when it ends (one label read per referenced node), so
// the trajectory keeps no reference to its session; the store writes the
// same snapshot, and a decoded file is bound to one. It satisfies
// LabelReader.
type LabelSnapshot struct {
	nodes []graph.Node // sorted distinct labeled nodes
	off   []uint32     // len(nodes)+1 offsets into vals
	table []graph.Label
	vals  []graph.Label
	// dense maps node ID → index into nodes (-1 = unlabeled). It is built
	// only under the denseScratch rule over the labeled-node count, so a
	// short walk over a huge graph does not pay O(|V|) per trajectory;
	// otherwise lookups binary-search nodes.
	dense []int32
}

// NewLabelSnapshot assembles a snapshot from its sections, taking ownership
// of every slice: nodes sorted ascending, off with len(nodes)+1 entries
// starting at 0 and ending at len(vals), table the sorted distinct values
// of vals. numNodes is the node universe the O(1) index would span. The
// caller (the .osnt decoder) validates the sections.
func NewLabelSnapshot(numNodes int, nodes []graph.Node, off []uint32, table, vals []graph.Label) *LabelSnapshot {
	ls := &LabelSnapshot{nodes: nodes, off: off, table: table, vals: vals}
	ls.index(numNodes)
	return ls
}

// Sections returns the snapshot's interned sections as read-only views.
func (ls *LabelSnapshot) Sections() (nodes []graph.Node, off []uint32, table, vals []graph.Label) {
	return ls.nodes, ls.off, ls.table, ls.vals
}

// index builds the O(1) node lookup when the denseScratch rule allows it.
func (ls *LabelSnapshot) index(numNodes int) {
	if !denseScratch(numNodes, len(ls.nodes)) {
		return
	}
	ls.dense = make([]int32, numNodes)
	for i := range ls.dense {
		ls.dense[i] = -1
	}
	for i, u := range ls.nodes {
		if int(u) < numNodes {
			ls.dense[u] = int32(i)
		}
	}
}

// find returns the index of u in nodes, or -1.
func (ls *LabelSnapshot) find(u graph.Node) int {
	if ls.dense != nil {
		if u < 0 || int(u) >= len(ls.dense) {
			return -1
		}
		return int(ls.dense[u])
	}
	i := sort.Search(len(ls.nodes), func(j int) bool { return ls.nodes[j] >= u })
	if i < len(ls.nodes) && ls.nodes[i] == u {
		return i
	}
	return -1
}

// Labels returns u's stored label set; nodes absent from the snapshot (or
// recorded unlabeled) return nil, matching the graph's convention.
func (ls *LabelSnapshot) Labels(u graph.Node) []graph.Label {
	i := ls.find(u)
	if i < 0 {
		return nil
	}
	return ls.vals[ls.off[i]:ls.off[i+1]]
}

// HasLabel reports whether u's stored label set contains l.
func (ls *LabelSnapshot) HasLabel(u graph.Node, l graph.Label) bool {
	return slices.Contains(ls.Labels(u), l)
}

// LabelSnapshot returns the interned labels of every node t references: the
// bound reader itself when it is a snapshot (a recording through an
// external source, or a decoded .osnt), otherwise a fresh one read from the
// bound reader once per referenced node. The fresh one carries no O(1)
// index; it is meant for one pass, such as a .osnt save.
func (t *Trajectory) LabelSnapshot() *LabelSnapshot {
	if ls, ok := t.labels.(*LabelSnapshot); ok {
		return ls
	}
	return snapshotLabels(t, t.labels)
}

// snapshotLabels reads lr once for each node t references, in ascending
// node order, and interns the result.
func snapshotLabels(t *Trajectory, lr LabelReader) *LabelSnapshot {
	if lr == nil {
		return &LabelSnapshot{off: []uint32{0}}
	}
	refs := t.referencedNodes()
	ls := &LabelSnapshot{
		nodes: make([]graph.Node, 0, len(refs)),
		off:   make([]uint32, 1, len(refs)+1),
		vals:  make([]graph.Label, 0, len(refs)),
	}
	distinct := make(map[graph.Label]struct{})
	for _, u := range refs {
		set := lr.Labels(u)
		if len(set) == 0 {
			continue
		}
		ls.nodes = append(ls.nodes, u)
		ls.vals = append(ls.vals, set...)
		ls.off = append(ls.off, uint32(len(ls.vals)))
		for _, l := range set {
			distinct[l] = struct{}{}
		}
	}
	ls.table = slices.Sorted(maps.Keys(distinct))
	return ls
}

// referencedNodes returns the sorted distinct nodes t references: through
// a bitmap over the node universe under the denseScratch rule, otherwise by
// sorting the referenced IDs.
func (t *Trajectory) referencedNodes() []graph.Node {
	cols := [][]graph.Node{t.startNode, t.prev, t.node, t.arena}
	refs := 0
	for _, col := range cols {
		refs += len(col)
	}
	n := t.NumNodes
	if denseScratch(n, refs) {
		seen := make([]uint64, (n+63)/64)
		for _, col := range cols {
			for _, u := range col {
				if u < 0 || int(u) >= n {
					return sortedDistinct(cols, refs)
				}
				seen[uint(u)>>6] |= 1 << (uint(u) & 63)
			}
		}
		var out []graph.Node
		for w, word := range seen {
			for word != 0 {
				out = append(out, graph.Node(w<<6+bits.TrailingZeros64(word)))
				word &= word - 1
			}
		}
		return out
	}
	return sortedDistinct(cols, refs)
}

// sortedDistinct concatenates cols, sorts and deduplicates.
func sortedDistinct(cols [][]graph.Node, refs int) []graph.Node {
	out := make([]graph.Node, 0, refs)
	for _, col := range cols {
		out = append(out, col...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}
