package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
)

// referenceAnswer answers one dashboard request on a small stand-in the way
// the reference replica does.
func referenceAnswer(t *testing.T) (workload, []byte) {
	t.Helper()
	g, err := gen.Build(gen.Pokec, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := workload{name: "test", budget: 300}
	ws, err := serve.NewWorkspace(serve.WorkspaceConfig{Defaults: serve.GraphOptions{BurnIn: burnIn}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.AddGraph(graphName, g, nil); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(newGenerator(w, 1, popularLabels(g, 6)).request(0))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	serve.NewHandler(ws).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/estimate", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	return w, rec.Body.Bytes()
}

// mutate decodes an answer, lets edit change it, and re-encodes it.
func mutate(t *testing.T, raw []byte, edit func(answers []map[string]any)) []byte {
	t.Helper()
	var b batchAnswer
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	edit(b.Answers)
	out, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func flipLowBit(x float64) float64 { return math.Float64frombits(math.Float64bits(x) ^ 1) }

func TestCheckCatchesOneBitChange(t *testing.T) {
	w, ref := referenceAnswer(t)
	if _, err := compareBatch(ref, ref, w); err != nil {
		t.Fatalf("an answer must match itself: %v", err)
	}

	flipped := mutate(t, ref, func(as []map[string]any) {
		est := as[0]["pairs"].([]any)[0].(map[string]any)["estimates"].(map[string]any)
		est["NeighborSample-HH"] = flipLowBit(est["NeighborSample-HH"].(float64))
	})
	if _, err := compareBatch(flipped, ref, w); err == nil || !strings.Contains(err.Error(), "pairs") {
		t.Fatalf("a one-bit change to a pairs estimate passed the check: %v", err)
	}

	// Label assortativity is compared within a few ULPs and counted.
	labelAssort := func(as []map[string]any) map[string]any {
		for _, a := range as {
			if m, ok := a["assortativity"].(map[string]any); ok && m["variant"] == "label" {
				return m
			}
		}
		t.Fatal("no label assortativity answer")
		return nil
	}
	nudged := mutate(t, ref, func(as []map[string]any) {
		m := labelAssort(as)
		m["coefficient"] = flipLowBit(m["coefficient"].(float64))
	})
	if inexact, err := compareBatch(nudged, ref, w); err != nil || inexact != 1 {
		t.Fatalf("label assortativity one ULP off: inexact=%d err=%v, want 1 and nil", inexact, err)
	}
	moved := mutate(t, ref, func(as []map[string]any) {
		m := labelAssort(as)
		m["coefficient"] = m["coefficient"].(float64) * 1.001
	})
	if _, err := compareBatch(moved, ref, w); err == nil {
		t.Fatal("a label assortativity coefficient off by 0.1% passed the check")
	}

	// Interleaving-dependent fields are held to rules, not to the reference.
	billed := mutate(t, ref, func(as []map[string]any) {
		as[0]["cache_hit"] = true
	})
	if _, err := compareBatch(billed, ref, w); err == nil {
		t.Fatal("a cache hit that was charged passed the check")
	}
}

func TestSameSeedSameRequests(t *testing.T) {
	popular := []graph.Label{1, 2, 3, 4, 5, 6}
	sequence := func(w workload, seed int64) string {
		g := newGenerator(w, seed, popular)
		var sb strings.Builder
		for i := 0; i < 300; i++ {
			b, err := json.Marshal(g.request(i))
			if err != nil {
				t.Fatal(err)
			}
			sb.Write(b)
		}
		return sb.String()
	}
	for _, w := range workloads {
		if sequence(w, 5) != sequence(w, 5) {
			t.Errorf("%s: the same seed gave different requests", w.name)
		}
		if sequence(w, 5) == sequence(w, 6) {
			t.Errorf("%s: different seeds gave the same requests", w.name)
		}
		if !reflect.DeepEqual(newGenerator(w, 5, popular).setupRequests(), newGenerator(w, 6, popular).setupRequests()) {
			t.Errorf("%s: set-up depends on the workload seed", w.name)
		}
	}

	g, err := gen.Build(gen.Pokec, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := churnDeltas(g, 5, 3, churnFrac)
	if err != nil {
		t.Fatal(err)
	}
	b, err := churnDeltas(g, 5, 3, churnFrac)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different churn deltas")
	}
}

func TestRepeatShareIsStated(t *testing.T) {
	popular := []graph.Label{1, 2, 3, 4, 5, 6}
	for _, w := range workloads {
		got := newGenerator(w, 9, popular).repeatShare(2000)
		if math.Abs(got-w.repeatShare) > 0.05 {
			t.Errorf("%s: measured repeat share %.3f, stated %.2f", w.name, got, w.repeatShare)
		}
	}
}

// The metric names the program reports are the ones BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(s []string) []string {
		s = append([]string(nil), s...)
		sort.Strings(s)
		return s
	}
	if got, want := sorted(endToEndNames), names(decl.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, want)
	}
	if got, want := sorted(perLayerNames), names(decl.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, want)
	}
}
