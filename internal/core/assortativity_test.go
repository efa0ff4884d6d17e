package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestAssortativityRegistered: the kind is dispatchable through the registry
// and validates its variant parameter at construction time, pre-spend.
func TestAssortativityRegistered(t *testing.T) {
	found := false
	for _, k := range TaskKinds() {
		if k == "assortativity" {
			found = true
		}
	}
	if !found {
		t.Fatalf("assortativity not registered (have %v)", TaskKinds())
	}
	spec, _ := LookupTask("assortativity")
	if _, err := spec.NewTask(TaskParams{Variant: "modularity"}); err == nil {
		t.Error("unknown variant should be a constructor-time error")
	}
	for _, v := range []string{"", "degree", "label"} {
		if _, err := spec.NewTask(TaskParams{Variant: v}); err != nil {
			t.Errorf("variant %q rejected: %v", v, err)
		}
	}
}

// assortTraj records one walk long enough for the mixing estimates to settle
// on the small stand-in graph.
func assortTraj(t *testing.T, g *graph.Graph, walkers int) *Trajectory {
	t.Helper()
	traj, err := RecordTrajectory(newSession(t, g), 12000, Options{
		BurnIn: 300, Rng: rand.New(rand.NewSource(71)), Start: -1,
		Walkers: walkers, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return traj
}

// TestDegreeAssortativityMatchesExact: the replayed degree-mixing
// coefficient converges to the exact Pearson correlation — the walk's
// (prev, node) step pairs are a uniform edge-endpoint sample of the same
// population the exact computation sums exhaustively.
func TestDegreeAssortativityMatchesExact(t *testing.T) {
	g := taskGraph(t)
	truth := exact.DegreeAssortativity(g)
	for _, walkers := range []int{1, 4} {
		traj := assortTraj(t, g, walkers)
		out, err := RunTask(traj, "assortativity", TaskParams{})
		if err != nil {
			t.Fatal(err)
		}
		res := out.(AssortativityResult)
		if res.Variant != "degree" {
			t.Errorf("walkers=%d: empty variant should default to degree, got %q", walkers, res.Variant)
		}
		if math.Abs(res.Coefficient-truth) > 0.08 {
			t.Errorf("walkers=%d: degree assortativity %.4f, exact %.4f (|diff| > 0.08)",
				walkers, res.Coefficient, truth)
		}
		// Every step contributes a pair: starts are recorded, nothing skipped.
		if res.Used != res.Samples || res.Skipped != 0 {
			t.Errorf("walkers=%d: used %d of %d steps, %d skipped; want all used",
				walkers, res.Used, res.Samples, res.Skipped)
		}
		if walkers > 1 && !res.CI.Valid() {
			t.Errorf("walkers=%d: expected a jackknife CI, got %+v", walkers, res.CI)
		}
	}
}

// TestLabelAssortativityMatchesExact mirrors the degree test for the
// categorical (same-label) coefficient.
func TestLabelAssortativityMatchesExact(t *testing.T) {
	g := taskGraph(t)
	truth := exact.LabelAssortativity(g)
	traj := assortTraj(t, g, 1)
	out, err := RunTask(traj, "assortativity", TaskParams{Variant: "label"})
	if err != nil {
		t.Fatal(err)
	}
	res := out.(AssortativityResult)
	if math.Abs(res.Coefficient-truth) > 0.08 {
		t.Errorf("label assortativity %.4f, exact %.4f (|diff| > 0.08)", res.Coefficient, truth)
	}
	if res.Used+res.Skipped != res.Samples {
		t.Errorf("used %d + skipped %d != samples %d", res.Used, res.Skipped, res.Samples)
	}
}

// TestAssortativityFusedMatchesSolo: the visitor path (fused replay) is
// bit-identical to the standalone Estimate — the StreamingTask contract.
func TestAssortativityFusedMatchesSolo(t *testing.T) {
	g := taskGraph(t)
	traj := assortTraj(t, g, 3)
	for _, variant := range []string{"degree", "label"} {
		spec, _ := LookupTask("assortativity")
		task, err := spec.NewTask(TaskParams{Variant: variant})
		if err != nil {
			t.Fatal(err)
		}
		solo, err := task.Estimate(traj)
		if err != nil {
			t.Fatal(err)
		}
		outs, errs := RunTasksFused(traj, []EstimationTask{task})
		if errs[0] != nil {
			t.Fatal(errs[0])
		}
		a, b := solo.(AssortativityResult), outs[0].(AssortativityResult)
		if math.Float64bits(a.Coefficient) != math.Float64bits(b.Coefficient) || a.Used != b.Used {
			t.Errorf("%s: fused %+v != solo %+v", variant, b, a)
		}
	}
}

// TestLabelAssortativityDeterministic: replaying one many-label trajectory
// gives one coefficient and one CI, bit for bit. The coefficient sums a
// squared share per label; with more than two labels that sum depends on
// the order of its terms, so it must not follow Go's randomized map order.
func TestLabelAssortativityDeterministic(t *testing.T) {
	g, err := gen.Build(gen.Pokec, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, walkers := range []int{1, 2} {
		traj, err := RecordTrajectory(newSession(t, g), 2000, Options{
			BurnIn: 200, Rng: rand.New(rand.NewSource(5)), Start: -1,
			Walkers: walkers, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		type bitsOf struct{ coeff, low, high, se uint64 }
		seen := make(map[bitsOf]int)
		for i := 0; i < 120; i++ {
			out, err := RunTask(traj, "assortativity", TaskParams{Variant: "label"})
			if err != nil {
				t.Fatal(err)
			}
			res := out.(AssortativityResult)
			seen[bitsOf{
				math.Float64bits(res.Coefficient), math.Float64bits(res.CI.Low),
				math.Float64bits(res.CI.High), math.Float64bits(res.CI.StdErr),
			}]++
		}
		if len(seen) != 1 {
			t.Errorf("W=%d: %d distinct (coefficient, CI) bit patterns over 120 replays, want 1: %v", walkers, len(seen), seen)
		}
	}
}
