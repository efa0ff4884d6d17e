package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/stats"
)

// opaqueSource hides the in-memory graph behind a plain osn.Source, so a
// session over it takes every path a remote backend takes.
type opaqueSource struct{ osn.Source }

// TestTrajectoryDoesNotPinSession records through a non-graph source and
// drops the session: the trajectory must not keep it (or the responses it
// cached) reachable, and must still replay — to exactly what the same walk
// recorded over the in-memory graph replays to.
func TestTrajectoryDoesNotPinSession(t *testing.T) {
	g := genderGraph(t, 3)
	pairs := []graph.LabelPair{{T1: 1, T2: 2}, {T1: 1, T2: 1}}
	opts := func() Options {
		return Options{BurnIn: 50, Rng: rand.New(rand.NewSource(4)), Start: -1, Walkers: 2, Seed: stats.Derive(4, "fleet")}
	}
	var collected atomic.Bool
	traj := func() *Trajectory {
		s, err := osn.NewSessionFrom(opaqueSource{osn.NewGraphSource(g)}, osn.Config{})
		if err != nil {
			t.Fatal(err)
		}
		runtime.AddCleanup(s, func(flag *atomic.Bool) { flag.Store(true) }, &collected)
		traj, err := RecordTrajectory(s, 400, opts())
		if err != nil {
			t.Fatal(err)
		}
		return traj
	}()
	for i := 0; i < 100 && !collected.Load(); i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if !collected.Load() {
		t.Fatal("the recording session is still reachable from its trajectory")
	}

	ref, err := RecordTrajectory(newSession(t, g), 400, opts())
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*Trajectory{traj, ref} {
		if _, ok := tr.Labels().(*LabelSnapshot); ok != (tr == traj) {
			t.Errorf("label binding: snapshot=%v, want a snapshot only for the non-graph recording", ok)
		}
	}
	want, err := EstimateManyPairs(ref, pairs)
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent replays share the snapshot-bound trajectory.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := EstimateManyPairs(traj, pairs)
			if err != nil {
				t.Error(err)
			} else if !reflect.DeepEqual(got, want) {
				t.Error("snapshot-bound replay differs from the graph-bound replay of the same walk")
			}
		}()
	}
	wg.Wait()
	gotC, err := CensusFromTrajectory(traj, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantC, err := CensusFromTrajectory(ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotC, wantC) {
		t.Error("snapshot-bound census differs from the graph-bound census of the same walk")
	}
	runtime.KeepAlive(traj)
}

// TestLabelSnapshotIndexRule pins that the snapshot's O(1) node index
// follows the denseScratch rule, and that both lookups answer alike.
func TestLabelSnapshotIndexRule(t *testing.T) {
	nodes := []graph.Node{3, 9, 4000}
	off := []uint32{0, 1, 3, 4}
	table := []graph.Label{1, 2, 7}
	vals := []graph.Label{7, 2, 1, 7}
	small := NewLabelSnapshot(5000, nodes, off, table, vals)
	large := NewLabelSnapshot(1<<20, nodes, off, table, vals)
	if small.dense != nil || large.dense != nil {
		t.Fatal("3 labeled nodes over 5000+ nodes built a dense index")
	}
	tiny := NewLabelSnapshot(4096, nodes, off, table, vals)
	if tiny.dense == nil {
		t.Fatal("a 4096-node universe should take the dense index")
	}
	for _, ls := range []*LabelSnapshot{small, large, tiny} {
		if got := ls.Labels(9); !reflect.DeepEqual(got, []graph.Label{2, 1}) {
			t.Errorf("Labels(9) = %v, want [2 1]", got)
		}
		if ls.Labels(5) != nil || ls.HasLabel(4000, 1) || !ls.HasLabel(4000, 7) || ls.Labels(-1) != nil {
			t.Error("lookup of absent or labeled node wrong")
		}
	}
}
