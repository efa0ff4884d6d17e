package httpsrc

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/osn"
)

// TestPrimeSessionAllocsIndependentOfCacheSize pins that priming a session
// reads the response cache in place: registering 10,000 cached responses
// allocates what registering 100 does, so a long-lived client's growing
// cache does not make every recording pay a copy of it.
func TestPrimeSessionAllocsIndependentOfCacheSize(t *testing.T) {
	const nodes = 20_000
	allocs := func(cached int) float64 {
		cache, err := OpenCache("", nodes, nodes)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < cached; u++ {
			if err := cache.PutNeighbors(graph.Node(u), []graph.Node{graph.Node((u + 1) % nodes)}); err != nil {
				t.Fatal(err)
			}
		}
		c := &Client{nodes: nodes, edges: nodes, cache: cache}
		s, err := osn.NewSessionFrom(c, osn.Config{})
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(20, func() { c.PrimeSession(s) })
		// The primed session redeems a cached response without the upstream.
		if adj, err := s.Neighbors(0); err != nil || len(adj) != 1 || adj[0] != 1 || s.PrepaidHits() != 1 {
			t.Fatalf("primed fetch: %v, %v, %d prepaid hits", adj, err, s.PrepaidHits())
		}
		return n
	}
	small, large := allocs(100), allocs(10_000)
	t.Logf("PrimeSession allocations: %.0f with 100 cached responses, %.0f with 10,000", small, large)
	if large > small+2 {
		t.Errorf("priming with 10,000 cached responses allocates %.0f times, with 100 %.0f: the cache is being copied", large, small)
	}
}
