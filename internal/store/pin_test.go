package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/stats"
)

// pinLabeler gives every node a deterministic label set that exercises the
// whole interned label section: some nodes unlabeled (absent from the
// section), one- and two-label sets, and sets whose order is not sorted
// (the file keeps each node's labels in the order its reader returned).
type pinLabeler struct{}

func (pinLabeler) Label(_ *graph.Graph, u graph.Node) []graph.Label {
	switch u % 7 {
	case 0:
		return nil
	case 1, 2:
		return []graph.Label{graph.Label(100 + u%13)}
	default:
		return []graph.Label{graph.Label(100 + u%13), graph.Label(u % 5)}
	}
}

// pinGraph is the fixed labeled graph both pinned recordings walk.
func pinGraph(t testing.TB) *graph.Graph { return labeledGraph(t, pinLabeler{}) }

// labeledGraph is pinGraph's topology under another labeler.
func labeledGraph(t testing.TB, l gen.Labeler) *graph.Graph {
	t.Helper()
	g0, err := gen.BarabasiAlbert(700, 4, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Apply(g0, l)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// opaqueSource hides the in-memory graph behind a plain osn.Source, so a
// session over it takes every path a remote backend takes.
type opaqueSource struct{ osn.Source }

// recordFrom records a fleet trajectory over src with a fixed recipe.
func recordFrom(t testing.TB, src osn.Source, walkers int, seed int64) *core.Trajectory {
	t.Helper()
	s, err := osn.NewSessionFrom(src, osn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	traj, err := core.RecordTrajectory(s, 300, core.Options{
		BurnIn:  40,
		Rng:     stats.NewSeedSequence(seed).NextRand(),
		Start:   -1,
		Walkers: walkers,
		Seed:    stats.Derive(seed, "fleet"),
	})
	if err != nil {
		t.Fatal(err)
	}
	traj.GraphVersion = 3
	traj.GraphFingerprint = 0x5eed
	return traj
}

// TestWriteBytesPinned pins the exact .osnt bytes Write produces for two
// fixed recordings: one through a non-graph source, one through the
// in-memory GraphSource. The hashes were recorded once and are never
// regenerated: any change to how labels are gathered, interned or laid out
// must leave the file format byte for byte as it was. EncodedSize must
// agree with the written length on both.
func TestWriteBytesPinned(t *testing.T) {
	g := pinGraph(t)
	cases := []struct {
		name string
		traj *core.Trajectory
		want string
	}{
		{"opaque-source", recordFrom(t, opaqueSource{osn.NewGraphSource(g)}, 2, 5), "b106d6fcaedd24c1868f9a14747ef08de49c7b1785d3c62cba65eb35c8214555"},
		{"graph-source", recordFrom(t, osn.NewGraphSource(g), 3, 8), "8ba30a9f7c61093a953d6f3736a65de6437dd589573d3813a604073b3c68fc75"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := Write(&buf, c.traj); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := EncodedSize(c.traj); got != int64(buf.Len()) {
			t.Errorf("%s: EncodedSize %d, Write produced %d bytes", c.name, got, buf.Len())
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: .osnt sha256 %s, pinned %s (%d bytes)", c.name, got, c.want, buf.Len())
		}
	}
}

// manyLabeler gives the nodes more distinct labels than a mask column holds.
type manyLabeler struct{}

func (manyLabeler) Label(_ *graph.Graph, u graph.Node) []graph.Label {
	return []graph.Label{graph.Label(u % 97)}
}

// countingSource is opaqueSource counting label reads per node.
type countingSource struct {
	osn.Source
	mu    sync.Mutex
	reads map[graph.Node]int
}

func (c *countingSource) count(u graph.Node) {
	c.mu.Lock()
	c.reads[u]++
	c.mu.Unlock()
}

func (c *countingSource) Labels(u graph.Node) []graph.Label {
	c.count(u)
	return c.Source.Labels(u)
}

func (c *countingSource) HasLabel(u graph.Node, l graph.Label) bool {
	c.count(u)
	return c.Source.HasLabel(u, l)
}

// TestLabelReadsOncePerNode is the hardware-independent guard on label
// traffic: a recording through a non-graph source, its cache weight, its
// .osnt save and a pairs+census replay together read each node's labels
// from the source at most once. It runs with few labels (the replay takes
// the mask columns) and with more than 64 (the replay reads labels per
// neighbor).
func TestLabelReadsOncePerNode(t *testing.T) {
	for _, c := range []struct {
		name string
		l    gen.Labeler
	}{{"few-labels", pinLabeler{}}, {"many-labels", manyLabeler{}}} {
		src := &countingSource{Source: osn.NewGraphSource(labeledGraph(t, c.l)), reads: map[graph.Node]int{}}
		traj := recordFrom(t, src, 2, 5)
		if _, _, table, _ := traj.LabelSnapshot().Sections(); (len(table) > 64) != (c.name == "many-labels") {
			t.Fatalf("%s: %d distinct labels, on the wrong side of the 64-label mask limit", c.name, len(table))
		}
		size := EncodedSize(traj)
		var buf bytes.Buffer
		if err := Write(&buf, traj); err != nil {
			t.Fatal(err)
		}
		if int64(buf.Len()) != size {
			t.Errorf("%s: EncodedSize %d, Write produced %d bytes", c.name, size, buf.Len())
		}
		pairs := []graph.LabelPair{{T1: 101, T2: 103}, {T1: 1, T2: 2}, {T1: 4, T2: 4}}
		if _, err := core.EstimateManyPairs(traj, pairs); err != nil {
			t.Fatal(err)
		}
		if _, err := core.CensusFromTrajectory(traj, 5); err != nil {
			t.Fatal(err)
		}
		if len(src.reads) == 0 {
			t.Fatalf("%s: no label was read at all", c.name)
		}
		for u, n := range src.reads {
			if n > 1 {
				t.Errorf("%s: node %d's labels were read %d times", c.name, u, n)
				break
			}
		}
	}
}
