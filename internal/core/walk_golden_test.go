package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// updateGolden rewrites testdata/golden_walks.json instead of comparing
// against it: go test ./internal/core -run TestWalkGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the walk golden file")

const walkGoldenPath = "testdata/golden_walks.json"

// walkGolden pins one NeighborSample or NeighborExploration run: every
// result field (floats as IEEE-754 bit patterns, confidence intervals
// included) and the session's call counter after the run.
type walkGolden struct {
	Name         string            `json:"name"`
	Fields       map[string]string `json:"fields"`
	SessionCalls int64             `json:"session_calls"`
}

// flattenResult renders every field of a result struct, recursing into
// nested structs (the CIs) with dotted names. Floats are rendered as their
// bit patterns so the comparison is exact.
func flattenResult(prefix string, v reflect.Value, out map[string]string) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		fv := v.Field(i)
		name := prefix + f.Name
		switch fv.Kind() {
		case reflect.Struct:
			flattenResult(name+".", fv, out)
		case reflect.Float64:
			out[name] = fmt.Sprintf("%016x", math.Float64bits(fv.Float()))
		default:
			out[name] = fmt.Sprint(fv.Interface())
		}
	}
}

// walkGoldenRuns executes the pinned matrix: both algorithms, sample- and
// budget-driven, W ∈ {1, 4}, thinning gap ∈ {0, 3}, every NE cost model,
// plus one non-backtracking run per algorithm. On the facebook stand-in
// every node carries one of the two target labels, so a few budget-driven
// runs on the pokec stand-in (location labels, most nodes carry neither)
// pin the unexplored branch too.
func walkGoldenRuns(t *testing.T) []walkGolden {
	t.Helper()
	fb, err := gen.Build(gen.Facebook, 0.3, 11)
	if err != nil {
		t.Fatal(err)
	}
	pokec, err := gen.Build(gen.Pokec, 0.05, 11)
	if err != nil {
		t.Fatal(err)
	}
	pair := graph.LabelPair{T1: 1, T2: 2}
	type spec struct {
		pokec   bool
		alg     string
		budget  bool
		walkers int
		gap     int
		cost    CostModel
		kind    WalkKind
	}
	var specs []spec
	for _, budget := range []bool{false, true} {
		for _, walkers := range []int{1, 4} {
			for _, gap := range []int{0, 3} {
				specs = append(specs, spec{alg: "NS", budget: budget, walkers: walkers, gap: gap})
				for _, cost := range []CostModel{ExploreFree, ExplorePerNode, ExplorePerNeighbor} {
					specs = append(specs, spec{alg: "NE", budget: budget, walkers: walkers, gap: gap, cost: cost})
				}
			}
		}
	}
	specs = append(specs,
		spec{alg: "NS", budget: true, walkers: 1, kind: WalkNonBacktracking},
		spec{alg: "NE", budget: true, walkers: 1, cost: ExplorePerNode, kind: WalkNonBacktracking})
	for _, walkers := range []int{1, 4} {
		specs = append(specs,
			spec{pokec: true, alg: "NS", budget: true, walkers: walkers},
			spec{pokec: true, alg: "NE", budget: true, walkers: walkers, cost: ExplorePerNode},
			spec{pokec: true, alg: "NE", budget: true, walkers: walkers, cost: ExplorePerNeighbor})
	}

	out := make([]walkGolden, 0, len(specs))
	for i, sp := range specs {
		g, graphName := fb, "facebook"
		if sp.pokec {
			g, graphName = pokec, "pokec"
		}
		s := newSession(t, g)
		opts := DefaultOptions(150, rand.New(rand.NewSource(int64(100+i))))
		opts.BudgetDriven = sp.budget
		opts.Walkers = sp.walkers
		opts.Seed = int64(200 + i)
		opts.ThinGap = sp.gap
		opts.Cost = sp.cost
		opts.Walk = sp.kind
		k := 500
		if sp.budget {
			k = 300
		}
		name := fmt.Sprintf("%s/%s/budget=%v/W=%d/gap=%d/cost=%d/walk=%d", graphName, sp.alg, sp.budget, sp.walkers, sp.gap, sp.cost, sp.kind)
		var res any
		if sp.alg == "NS" {
			res, err = NeighborSample(s, pair, k, opts)
		} else {
			res, err = NeighborExploration(s, pair, k, opts)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fields := make(map[string]string)
		flattenResult("", reflect.ValueOf(res), fields)
		out = append(out, walkGolden{Name: name, Fields: fields, SessionCalls: s.Calls()})
	}
	return out
}

// TestWalkGolden pins the exact outputs and bills of NeighborSample and
// NeighborExploration across sampling modes, fleet sizes, thinning gaps,
// cost models and walk kinds.
func TestWalkGolden(t *testing.T) {
	got := walkGoldenRuns(t)
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(walkGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walkGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", walkGoldenPath)
		return
	}
	buf, err := os.ReadFile(walkGoldenPath)
	if err != nil {
		t.Fatalf("reading golden file (rerun with -update-golden to regenerate): %v", err)
	}
	var want []walkGolden
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d cases, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name {
			t.Fatalf("case %d: got %q, golden %q", i, got[i].Name, want[i].Name)
		}
		if got[i].SessionCalls != want[i].SessionCalls {
			t.Errorf("%s: session calls %d, golden %d", want[i].Name, got[i].SessionCalls, want[i].SessionCalls)
		}
		if !reflect.DeepEqual(got[i].Fields, want[i].Fields) {
			for k, w := range want[i].Fields {
				if g := got[i].Fields[k]; g != w {
					t.Errorf("%s: %s = %s, golden %s", want[i].Name, k, g, w)
				}
			}
			for k := range got[i].Fields {
				if _, ok := want[i].Fields[k]; !ok {
					t.Errorf("%s: unexpected field %s", want[i].Name, k)
				}
			}
		}
	}
}
