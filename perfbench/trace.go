package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/osn/httpsrc"
)

// spanHeader carries a request's span id from the bench client through the
// gateway to the replica, so the replica's handler span can be matched to
// the client span that caused it.
const spanHeader = "X-Bench-Span"

// span is one timed interval at a layer boundary. Spans of one estimate
// request share its id (the request index); fetch spans carry none.
type span struct {
	Layer   string `json:"layer"`
	ID      string `json:"id,omitempty"`
	Replica string `json:"replica,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// tracer keeps spans and counts in memory; write dumps them at exit. All
// methods are safe for concurrent use.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	// sourceCalls counts Neighbors and Degree calls into the httpsrc
	// clients; label reads are the clients' other reads (see perLayer).
	sourceCalls atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops the spans recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// handler wraps one replica's serve handler, recording a span per estimate
// and per PATCH.
func (t *tracer) handler(replica string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		layer := ""
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/estimate":
			layer = "replica.estimate"
		case r.Method == http.MethodPatch:
			layer = "replica.patch"
		}
		start := t.now()
		h.ServeHTTP(w, r)
		if layer != "" {
			t.add(span{Layer: layer, ID: r.Header.Get(spanHeader), Replica: replica, StartNS: start, EndNS: t.now()})
		}
	})
}

type spanKey struct{}

// gatewayHandler moves the client's span id into the request context, where
// the gateway's outbound requests inherit it (see spanTransport).
func gatewayHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id := r.Header.Get(spanHeader); id != "" {
			r = r.WithContext(context.WithValue(r.Context(), spanKey{}, id))
		}
		h.ServeHTTP(w, r)
	})
}

// spanTransport copies the span id from an outbound request's context into
// its header.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(spanKey{}).(string); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, id)
	}
	return t.base.RoundTrip(r)
}

// tracedSource wraps one replica's httpsrc client: it records a span for
// every neighbor or degree read the client's response cache could not
// answer, i.e. every such upstream fetch. Label reads, hundreds of
// thousands per warm_hit batch, pass through untouched: peeking the cache
// for each would double the lock traffic the bench measures. It forwards
// osn.SessionPrimer, which the replica calls on every recording session.
type tracedSource struct {
	c  *httpsrc.Client
	tr *tracer
}

var (
	_ osn.Source        = (*tracedSource)(nil)
	_ osn.SessionPrimer = (*tracedSource)(nil)
)

func (s *tracedSource) fetched(layer string, start int64) {
	s.tr.add(span{Layer: layer, StartNS: start, EndNS: s.tr.now()})
}

func (s *tracedSource) NumNodes() int   { return s.c.NumNodes() }
func (s *tracedSource) NumEdges() int64 { return s.c.NumEdges() }

func (s *tracedSource) RandomNode(rng *rand.Rand) graph.Node { return s.c.RandomNode(rng) }

func (s *tracedSource) Neighbors(u graph.Node) ([]graph.Node, error) {
	s.tr.sourceCalls.Add(1)
	_, cached := s.c.Cache().Neighbors(u)
	start := s.tr.now()
	adj, err := s.c.Neighbors(u)
	if !cached {
		s.fetched("httpsrc.neighbors", start)
	}
	return adj, err
}

func (s *tracedSource) Degree(u graph.Node) (int, error) {
	s.tr.sourceCalls.Add(1)
	_, cached := s.c.Cache().Neighbors(u)
	start := s.tr.now()
	d, err := s.c.Degree(u)
	if !cached {
		s.fetched("httpsrc.degree", start)
	}
	return d, err
}

func (s *tracedSource) Labels(u graph.Node) []graph.Label { return s.c.Labels(u) }

func (s *tracedSource) HasLabel(u graph.Node, l graph.Label) bool { return s.c.HasLabel(u, l) }

func (s *tracedSource) PrimeSession(sess *osn.Session) { s.c.PrimeSession(sess) }
