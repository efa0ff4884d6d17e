package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/gateway"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graph/snapshot"
	"repro/internal/osn"
	"repro/internal/osn/httpsrc"
	"repro/internal/osn/httpsrc/faultsim"
	"repro/internal/serve"
	"repro/internal/store"
)

const (
	// graphScale sizes the pokec stand-in at about 100k nodes (560k edges).
	graphScale = 5
	// graphSeed fixes the graph: runs differ only in their traffic.
	graphSeed = 7
	// burnIn is every replica's fixed walk burn-in; a measured mixing time
	// would cost set-up time and make replicas disagree.
	burnIn = 40
	// walkers is every trajectory's walker count.
	walkers = 2
	// replicaCount replicas sit behind the gateway.
	replicaCount = 2
)

// replica is one serve process stand-in behind its own loopback listener.
type replica struct {
	name   string // the gateway's name for it, e.g. "http://replica-0"
	ws     *serve.Workspace
	store  *store.Dir
	src    *httpsrc.Client // nil when recording against the in-memory graph
	server *httptest.Server
}

// topology is one running system: upstream, replicas and gateway, all in
// this process, with their on-disk state under dir.
type topology struct {
	dir      string
	graph    *graph.Graph
	upstream *faultsim.Upstream // nil for in-memory workloads
	replicas []*replica
	gw       *gateway.Gateway
	gwServer *httptest.Server
	client   *http.Client // the bench clients' connection to the gateway
	tr       *tracer      // nil when untraced
	closed   bool
}

// resolvingTransport dials the fixed replica names at their listeners'
// real addresses. The gateway hashes the names, so routing does not depend
// on which ports the OS assigned.
func resolvingTransport(addrs map[string]string) *http.Transport {
	d := &net.Dialer{}
	return &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if real, ok := addrs[addr]; ok {
				addr = real
			}
			return d.DialContext(ctx, network, addr)
		},
		MaxIdleConnsPerHost: 32,
	}
}

// buildGraph generates the stand-in every run serves.
func buildGraph() (*graph.Graph, error) {
	return gen.Build(gen.Pokec, graphScale, graphSeed)
}

// startTopology builds the graph and starts upstream, replicas and gateway.
// Replicas of an httpsrc workload record through their own httpsrc client;
// the others load the graph from an .osnb snapshot through the gateway's
// PUT broadcast and persist every PATCH as an .osnd segment.
func startTopology(w workload, dir string, tr *tracer) (*topology, error) {
	g, err := buildGraph()
	if err != nil {
		return nil, err
	}
	t := &topology{dir: dir, graph: g, tr: tr}
	if err := t.start(w); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *topology) start(w workload) error {
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		return err
	}
	if w.httpsrc {
		t.upstream = faultsim.New(t.graph)
	}
	var cacheBytes int64
	if w.cacheTrajectories > 0 {
		// A trajectory's .osnt size is about linear in its budget; measure
		// one so the bound holds cacheTrajectories of them.
		size, err := trajectoryBytes(t.graph, w)
		if err != nil {
			return err
		}
		cacheBytes = int64(w.cacheTrajectories)*size + size/2
	}
	addrs := make(map[string]string)
	names := make([]string, replicaCount)
	for i := range names {
		rep, err := t.startReplica(w, i, cacheBytes)
		if err != nil {
			return err
		}
		names[i] = rep.name
		addrs[strings.TrimPrefix(rep.name, "http://")+":80"] = rep.server.Listener.Addr().String()
	}
	var rt http.RoundTripper = resolvingTransport(addrs)
	if t.tr != nil {
		rt = spanTransport{base: rt}
	}
	gw, err := gateway.New(gateway.Config{Replicas: names, Client: &http.Client{Transport: rt}})
	if err != nil {
		return err
	}
	t.gw = gw
	var h http.Handler = gw.Handler()
	if t.tr != nil {
		h = gatewayHandler(h)
	}
	t.gwServer = httptest.NewServer(h)
	t.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 32}}
	if !w.httpsrc {
		// Load the snapshot through the system: the broadcast PUT makes
		// every replica read its own copy from its graphs directory.
		status, body, err := t.do(http.MethodPut, "/graphs/"+graphName, nil, "")
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("loading %s: status %d: %s", graphName, status, body)
		}
	}
	return nil
}

func (t *topology) startReplica(w workload, i int, cacheBytes int64) (*replica, error) {
	rdir := filepath.Join(t.dir, fmt.Sprintf("replica-%d", i))
	st, err := store.NewDir(filepath.Join(rdir, "store"))
	if err != nil {
		return nil, err
	}
	rep := &replica{name: fmt.Sprintf("http://replica-%d", i), store: st}
	t.replicas = append(t.replicas, rep) // so close releases a half-built one
	wcfg := serve.WorkspaceConfig{
		Store:      st,
		CacheBytes: cacheBytes,
		Defaults:   serve.GraphOptions{BurnIn: burnIn, Walkers: walkers, Budget: w.budget},
	}
	if w.httpsrc {
		rep.src, err = httpsrc.New(httpsrc.Config{
			BaseURL:    t.upstream.URL(),
			HTTPClient: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 32}},
		})
		if err != nil {
			return nil, err
		}
		var src osn.Source = rep.src
		if t.tr != nil {
			src = &tracedSource{c: rep.src, tr: t.tr}
		}
		wcfg.Defaults.SourceFactory = func(*graph.Graph) osn.Source { return src }
	} else {
		wcfg.GraphsDir = filepath.Join(rdir, "graphs")
		if err := os.MkdirAll(wcfg.GraphsDir, 0o755); err != nil {
			return nil, err
		}
		if err := snapshot.Save(filepath.Join(wcfg.GraphsDir, graphName+snapshot.Ext), t.graph); err != nil {
			return nil, err
		}
	}
	rep.ws, err = serve.NewWorkspace(wcfg)
	if err != nil {
		return nil, err
	}
	if w.httpsrc {
		if _, err := rep.ws.AddGraph(graphName, t.graph, nil); err != nil {
			return nil, err
		}
	}
	var h http.Handler = serve.NewHandler(rep.ws)
	if t.tr != nil {
		h = t.tr.handler(rep.name, h)
	}
	rep.server = httptest.NewServer(h)
	return rep, nil
}

// do sends one request body (nil for none) to the gateway and reads the
// whole answer.
func (t *topology) do(method, path string, body []byte, id string) (int, []byte, error) {
	req, err := http.NewRequest(method, t.gwServer.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(spanHeader, id)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// close stops every server and client of the topology and removes its
// on-disk state. Closing twice is a no-op.
func (t *topology) close() {
	if t.closed {
		return
	}
	t.closed = true
	if t.gwServer != nil {
		t.gwServer.Close()
	}
	for _, r := range t.replicas {
		if r.server != nil {
			r.server.Close()
		}
		if r.src != nil {
			r.src.Close()
		}
	}
	if t.upstream != nil {
		t.upstream.Close()
	}
	if t.client != nil {
		t.client.CloseIdleConnections()
	}
	os.RemoveAll(t.dir)
}

// replicaStats sums the serve counters over every replica.
func (t *topology) replicaStats() serve.Stats {
	var s serve.Stats
	for _, r := range t.replicas {
		for _, gi := range r.ws.List() {
			s.Queries += gi.Stats.Queries
			s.CacheHits += gi.Stats.CacheHits
			s.Recordings += gi.Stats.Recordings
			s.StoreLoads += gi.Stats.StoreLoads
			s.StoreSaves += gi.Stats.StoreSaves
			s.UpstreamCalls += gi.Stats.UpstreamCalls
			s.TopUps += gi.Stats.TopUps
			s.TopUpSavedCalls += gi.Stats.TopUpSavedCalls
		}
	}
	return s
}

// httpsrcStats sums the httpsrc counters over every replica.
func (t *topology) httpsrcStats() httpsrc.Stats {
	var s httpsrc.Stats
	for _, r := range t.replicas {
		if r.src == nil {
			continue
		}
		c := r.src.Stats()
		s.UpstreamRequests += c.UpstreamRequests
		s.Fetches += c.Fetches
		s.CacheHits += c.CacheHits
		s.Retries += c.Retries
	}
	return s
}

// ledger snapshots the upstream's request accounting (zero without one).
func (t *topology) ledger() faultsim.Ledger {
	if t.upstream == nil {
		return faultsim.Ledger{}
	}
	return t.upstream.Ledger()
}
