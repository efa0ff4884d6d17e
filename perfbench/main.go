// Command perfbench is the repository's end-to-end benchmark of the serving
// path. One process starts a faultsim upstream, two serve replicas with
// their own .osnt stores and a gateway in front, drives a closed loop of
// clients through the gateway's HTTP API, checks every answer against a
// direct in-process replica, and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 160, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones of an untraced run;
// with -trace 1 they are the per-layer ones of a traced run, which also
// repeats the phase untraced to report the tracing overhead. Run it from
// the repository root through run.sh, which builds it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
)

const (
	// setupRepeats is how many times an untraced run sets the system up;
	// setup_s is their median.
	setupRepeats = 3
	// warmupSeconds of untimed traffic precede every timed phase, so the
	// phase starts past the heap growth and cache fills that follow set-up.
	warmupSeconds = 2 * time.Second
	// maxPatches deltas are generated for a churn run; a phase sends about
	// five per second, so a run never runs out.
	maxPatches = 400
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: warm_hit, reload_evict, cold_record or churn_topup")
	seed := flag.Int64("seed", 1, "workload seed: the same seed sends the same requests")
	seconds := flag.Int("seconds", 15, "length of a timed phase in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics from an untraced one")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -seconds >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runner carries one invocation's settings and report lines.
type runner struct {
	w      workload
	seed   int64
	d      time.Duration
	dir    string
	gen    *generator
	deltas []graph.Delta
	out    []string
}

func (r *runner) printf(format string, args ...any) {
	r.out = append(r.out, fmt.Sprintf(format, args...))
}

func run(w workload, seed int64, d time.Duration, traced bool) (*result, error) {
	r := &runner{w: w, seed: seed, d: d,
		dir: filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-%d", w.name, os.Getpid()))}
	defer os.RemoveAll(r.dir)
	r.gen = newGenerator(w, seed, nil)

	var res *result
	var err error
	if traced {
		res, err = r.traced()
	} else {
		res, err = r.untraced()
	}
	if err != nil {
		return nil, err
	}
	for _, l := range r.out {
		fmt.Println(l)
	}
	return res, nil
}

// prepare derives the inputs that need the graph: the popular labels the
// batches draw pairs from and, for churn, the delta sequence.
func (r *runner) prepare(t *topology) error {
	if r.gen.popular != nil {
		return nil
	}
	r.gen.popular = popularLabels(t.graph, 12)
	if r.w.patchEvery > 0 {
		deltas, err := churnDeltas(t.graph, r.seed, maxPatches, churnFrac)
		if err != nil {
			return err
		}
		r.deltas = deltas
	}
	return nil
}

func (r *runner) provenance(g *graph.Graph, traced bool) {
	r.printf("# perfbench workload=%s seed=%d trace=%v seconds=%.0f clients=%d", r.w.name, r.seed, traced, r.d.Seconds(), r.w.clients)
	r.printf("# gomaxprocs=%d numcpu=%d go=%s commit=%s graph=pokec scale=%d nodes=%d edges=%d",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit(), graphScale, g.NumNodes(), g.NumEdges())
}

func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = "+dirty"
			}
		}
	}
	return rev + modified
}

// untraced sets the system up setupRepeats times, keeps the last one, runs
// one timed phase and reports the end-to-end metrics.
func (r *runner) untraced() (*result, error) {
	var setups []float64
	var t *topology
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		t, err = setupSystem(r.w, filepath.Join(r.dir, fmt.Sprint(i)), nil, r.gen)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			t.close()
		}
	}
	defer t.close()
	if err := r.prepare(t); err != nil {
		return nil, err
	}
	r.provenance(t.graph, false)
	if err := r.warmUp(t); err != nil {
		return nil, err
	}
	p := r.timed(t)
	t.close() // before the check, which holds a replica of its own
	rep, err := referenceCheck(r.w, t.graph, r.deltas, r.gen, p.outcomes)
	if err != nil {
		return nil, err
	}
	e := endToEnd(p)
	e["setup_s"] = metric{median(setups), "s"}
	fewest := math.MaxInt
	for _, w := range p.windows(windows) {
		fewest = min(fewest, len(w.latencies))
	}
	r.printf("# latency samples=%d, fewest in one of %d windows=%d", len(p.latencies()), windows, fewest)
	for _, c := range r.costs(p) {
		r.printf("metric %s %.6g %s", c.name, c.m.Value, c.m.Unit)
	}
	return r.finish([]*phaseResult{p}, rep, e, endToEndNames), nil
}

// traced runs the phase untraced on one fresh system and traced on
// another, probes the layers of the traced one, and reports the per-layer
// metrics with the tracing overhead.
func (r *runner) traced() (*result, error) {
	plain, err := setupSystem(r.w, filepath.Join(r.dir, "plain"), nil, r.gen)
	if err != nil {
		return nil, err
	}
	if err := r.prepare(plain); err != nil {
		plain.close()
		return nil, err
	}
	r.provenance(plain.graph, true)
	if err := r.warmUp(plain); err != nil {
		plain.close()
		return nil, err
	}
	p0 := r.timed(plain)
	plain.close()

	tr := newTracer()
	t, err := setupSystem(r.w, filepath.Join(r.dir, "traced"), tr, r.gen)
	if err != nil {
		return nil, err
	}
	defer t.close()
	if err := r.warmUp(t); err != nil {
		return nil, err
	}
	tr.reset()
	p := r.timed(t)
	spans := tr.snapshot()
	owner := keyOwners(t, r.gen, spans)
	pr, err := runProbes(t, r.w, r.gen, owner, p.nextIndex)
	if err != nil {
		return nil, err
	}
	t.close()
	rep, err := referenceCheck(r.w, t.graph, r.deltas, r.gen, append(p0.outcomes, p.outcomes...))
	if err != nil {
		return nil, err
	}
	for _, s := range p.clientSpan {
		tr.add(s)
	}
	if err := os.MkdirAll(filepath.Join(".bench_build", "traces"), 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", r.w.name, r.seed))
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	r.printf("# spans written to %s", tracePath)

	m := r.perLayer(p, p0, spans, pr, rep)
	return r.finish([]*phaseResult{p0, p}, rep, m, perLayerNames), nil
}

// warmUp sends the untimed warm-up traffic (no PATCHes) and then collects
// set-up garbage, so the phase's resident-set peak measures the phase.
func (r *runner) warmUp(t *topology) error {
	p := runPhase(t, r.w, r.gen.warmupGenerator(), nil, warmupSeconds, r.w.warmup, time.Minute)
	if f := p.failed(); f > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", f, len(p.outcomes))
	}
	r.printf("# warm-up: %d requests in %.3f s", len(p.outcomes), p.elapsed.Seconds())
	runtime.GC()
	debug.FreeOSMemory()
	return nil
}

// timed runs one timed phase.
func (r *runner) timed(t *topology) *phaseResult {
	return runPhase(t, r.w, r.gen, r.deltas, r.d, minSamples, 3*r.d)
}

// keyOwners maps each trajectory seed the traced phase sent to the replica
// whose handler served it.
func keyOwners(t *topology, gen *generator, spans []span) map[int64]*replica {
	byName := make(map[string]*replica)
	for _, rep := range t.replicas {
		byName[rep.name] = rep
	}
	owner := make(map[int64]*replica)
	for _, s := range spans {
		if s.Layer != "replica.estimate" || s.ID == "" {
			continue
		}
		if i, err := strconv.Atoi(s.ID); err == nil {
			owner[gen.request(i).Seed] = byName[s.Replica]
		}
	}
	return owner
}

var endToEndNames = []string{"latency_p50_ms", "latency_p90_ms", "throughput_qps", "cpu_ms_per_query", "rss_peak_mb", "setup_s"}

// endToEnd computes the end-to-end metrics of a phase but setup_s.
// Latency percentiles, throughput and CPU per query are medians over the
// phase's time windows, so a burst of hypervisor steal time in one window
// moves them less. Pooled over the phase, reload_evict's p90 ranged
// 8.9-19.0 ms over ten seeds on a 2-vCPU VM, following steal time, while
// its CPU per query stayed within 14%.
func endToEnd(p *phaseResult) map[string]metric {
	var p50, p90, qps, cpu []float64
	for _, w := range p.windows(windows) {
		p50 = append(p50, percentile(w.latencies, 50))
		p90 = append(p90, percentile(w.latencies, 90))
		qps = append(qps, float64(len(w.latencies))/w.seconds)
		cpu = append(cpu, perQuery(float64(w.cpu)/1e6, len(w.latencies)))
	}
	return map[string]metric{
		"latency_p50_ms":   {median(p50), "ms"},
		"latency_p90_ms":   {median(p90), "ms"},
		"throughput_qps":   {median(qps), "1/s"},
		"cpu_ms_per_query": {median(cpu), "ms"},
		"rss_peak_mb":      {p.rssPeakMB(), "MiB"},
	}
}

type named struct {
	name string
	m    metric
}

// costs are the per-query costs, the failure share and the PATCH latency.
// They are zero on some workloads, so they carry no bound and an untraced
// run only prints them.
func (r *runner) costs(p *phaseResult) []named {
	n := p.completed()
	var charged float64
	for _, o := range p.outcomes {
		for _, a := range answersOf(o) {
			c, _ := a["charged"].(float64)
			charged += c
		}
	}
	upstream := float64(p.after.ledger.Calls - p.before.ledger.Calls)
	if !r.w.httpsrc {
		upstream = float64(p.after.replicas.UpstreamCalls - p.before.replicas.UpstreamCalls)
	}
	var patch []float64
	for _, pt := range p.patches {
		patch = append(patch, float64(pt.latency)/1e6)
	}
	return []named{
		{"api_calls_per_query", metric{perQuery(charged, n), "calls"}},
		{"upstream_requests_per_query", metric{perQuery(upstream, n), "requests"}},
		{"failed_ratio", metric{float64(p.failed()) / float64(max(1, len(p.outcomes)+len(p.patches))), "ratio"}},
		{"patch_p50_ms", metric{percentile(patch, 50), "ms"}},
	}
}

// answersOf decodes a successful batch answer (nil otherwise).
func answersOf(o outcome) []map[string]any {
	if o.err != nil || o.status != http.StatusOK {
		return nil
	}
	var b batchAnswer
	if json.Unmarshal(o.body, &b) != nil {
		return nil
	}
	return b.Answers
}

// failed counts non-2xx answers, transport errors, per-answer errors and
// failed PATCHes.
func (p *phaseResult) failed() int {
	n := 0
	for _, o := range p.outcomes {
		if o.err != nil || o.status != http.StatusOK {
			n++
			continue
		}
		for _, a := range answersOf(o) {
			if _, bad := a["error"]; bad {
				n++
				break
			}
		}
	}
	for _, pt := range p.patches {
		if pt.err != nil || pt.status != http.StatusOK {
			n++
		}
	}
	return n
}

func (p *phaseResult) latencies() []float64 {
	var lat []float64
	for _, o := range p.outcomes {
		if o.err == nil && o.status == http.StatusOK {
			lat = append(lat, float64(o.latency)/1e6)
		}
	}
	return lat
}

var perLayerNames = []string{
	"gateway.overhead_ms_p50", "gateway.replica_share_max", "gateway.parked", "gateway.pulls", "gateway.flights",
	"serve.handler_ms_p50", "serve.handler_ms_p90", "serve.engine_ms_p50", "serve.codec_ms_p50",
	"serve.kind_ms.pairs", "serve.kind_ms.size", "serve.kind_ms.census", "serve.kind_ms.motif", "serve.kind_ms.assortativity",
	"serve.response_bytes", "serve.cache_hit_ratio", "serve.recordings", "serve.store_loads", "serve.topups",
	"store.decode_ms_p50", "store.file_bytes", "store.save_ms_p50",
	"record.cpu_ms_p50", "record.prime_ms_p50",
	"httpsrc.fetch_ms_p50", "httpsrc.fetch_ms_p90", "httpsrc.label_reads_per_query", "httpsrc.cache_hit_ratio", "httpsrc.retries",
	"upstream.neighbors_per_query", "upstream.labels_per_query", "upstream.degree_per_query", "upstream.bytes_per_request",
	"delta.patch_handler_ms_p50", "topup.saved_ratio", "topup.stale_steps_ratio",
	"runtime.alloc_mb_per_query", "runtime.gc_cycles",
	"cost.api_calls_per_query", "cost.upstream_requests_per_query", "cost.failed_ratio", "cost.patch_p50_ms",
	"trace.overhead_latency_p50_ms", "trace.overhead_cpu_ms_per_query", "trace.overhead_throughput_ratio",
	"check.inexact_label_assortativity",
}

// perLayer computes the per-layer metrics of traced phase p; p0 is the
// untraced phase of the same invocation, for the tracing overhead.
func (r *runner) perLayer(p, p0 *phaseResult, spans []span, pr *probes, rep *checkReport) map[string]metric {
	n := p.completed()
	m := make(map[string]metric)
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	handler := make(map[string]span)
	perReplica := make(map[string]int)
	var handlerMS, patchMS, fetchMS []float64
	for _, s := range spans {
		switch {
		case s.Layer == "replica.estimate":
			handler[s.ID] = s
			handlerMS = append(handlerMS, s.ms())
			perReplica[s.Replica]++
		case s.Layer == "replica.patch":
			patchMS = append(patchMS, s.ms())
		case strings.HasPrefix(s.Layer, "httpsrc."):
			fetchMS = append(fetchMS, s.ms())
		}
	}
	var overhead []float64
	for id, c := range p.clientSpan {
		if h, ok := handler[id]; ok {
			overhead = append(overhead, c.ms()-h.ms())
		}
	}
	share := 0.0
	for _, c := range perReplica {
		share = math.Max(share, float64(c)/float64(max(1, len(handlerMS))))
	}
	set("gateway.overhead_ms_p50", percentile(overhead, 50), "ms")
	set("gateway.replica_share_max", share, "ratio")
	ga, gb := p.after.gateway, p.before.gateway
	set("gateway.parked", float64(ga.Parked-gb.Parked), "count")
	set("gateway.pulls", float64(ga.Pulls-gb.Pulls), "count")
	// Flights is a size, not a counter: the flight table at the phase end.
	set("gateway.flights", float64(ga.Flights), "count")

	set("serve.handler_ms_p50", percentile(handlerMS, 50), "ms")
	set("serve.handler_ms_p90", percentile(handlerMS, 90), "ms")
	set("serve.engine_ms_p50", pr.engineMS, "ms")
	set("serve.codec_ms_p50", percentile(handlerMS, 50)-pr.engineMS, "ms")
	for _, k := range []string{"pairs", "size", "census", "motif", "assortativity"} {
		set("serve.kind_ms."+k, pr.kindMS[k], "ms")
	}
	var bytes float64
	var stale, samples float64
	for _, o := range p.outcomes {
		if o.err == nil && o.status == http.StatusOK {
			bytes += float64(len(o.body))
		}
		if as := answersOf(o); len(as) > 0 {
			if hit, _ := as[0]["cache_hit"].(bool); !hit {
				s, _ := as[0]["stale_steps"].(float64)
				k, _ := as[0]["samples"].(float64)
				stale, samples = stale+s, samples+k
			}
		}
	}
	set("serve.response_bytes", perQuery(bytes, n), "bytes")
	rs := diffServe(p)
	set("serve.cache_hit_ratio", ratio(float64(rs.CacheHits), float64(rs.Queries)), "ratio")
	set("serve.recordings", float64(rs.Recordings), "count")
	set("serve.store_loads", float64(rs.StoreLoads), "count")
	set("serve.topups", float64(rs.TopUps), "count")

	set("store.decode_ms_p50", pr.decodeMS, "ms")
	set("store.file_bytes", pr.fileBytes, "bytes")
	set("store.save_ms_p50", pr.saveMS, "ms")
	set("record.cpu_ms_p50", pr.recordMS, "ms")
	set("record.prime_ms_p50", pr.primeMS, "ms")

	hs := p.after.httpsrc
	hb := p.before.httpsrc
	set("httpsrc.fetch_ms_p50", percentile(fetchMS, 50), "ms")
	set("httpsrc.fetch_ms_p90", percentile(fetchMS, 90), "ms")
	reads := hs.CacheHits - hb.CacheHits + hs.Fetches - hb.Fetches
	calls := p.after.sourceCalls - p.before.sourceCalls
	set("httpsrc.label_reads_per_query", perQuery(float64(reads-calls), n), "reads")
	set("httpsrc.cache_hit_ratio", ratio(float64(hs.CacheHits-hb.CacheHits), float64(hs.CacheHits-hb.CacheHits+hs.Fetches-hb.Fetches)), "ratio")
	set("httpsrc.retries", float64(hs.Retries-hb.Retries), "count")
	la, lb := p.after.ledger, p.before.ledger
	set("upstream.neighbors_per_query", perQuery(float64(la.Neighbors-lb.Neighbors), n), "requests")
	set("upstream.labels_per_query", perQuery(float64(la.Labels-lb.Labels), n), "requests")
	set("upstream.degree_per_query", perQuery(float64(la.Degree-lb.Degree), n), "requests")
	set("upstream.bytes_per_request", ratio(float64(la.Bytes-lb.Bytes), float64(la.Calls-lb.Calls)), "bytes")

	set("delta.patch_handler_ms_p50", percentile(patchMS, 50), "ms")
	set("topup.saved_ratio", ratio(float64(rs.TopUpSavedCalls), float64(rs.TopUpSavedCalls+rs.UpstreamCalls)), "ratio")
	set("topup.stale_steps_ratio", ratio(stale, samples), "ratio")

	set("runtime.alloc_mb_per_query", perQuery(float64(p.after.alloc-p.before.alloc)/(1<<20), n), "MiB")
	set("runtime.gc_cycles", float64(p.after.gcs-p.before.gcs), "count")

	for _, c := range r.costs(p) {
		m["cost."+c.name] = c.m
	}

	e, e0 := endToEnd(p), endToEnd(p0)
	set("trace.overhead_latency_p50_ms", e["latency_p50_ms"].Value-e0["latency_p50_ms"].Value, "ms")
	set("trace.overhead_cpu_ms_per_query", e["cpu_ms_per_query"].Value-e0["cpu_ms_per_query"].Value, "ms")
	set("trace.overhead_throughput_ratio", ratio(e["throughput_qps"].Value, e0["throughput_qps"].Value), "ratio")
	set("check.inexact_label_assortativity", float64(rep.inexact), "count")
	return m
}

// diffServe is the serve counters' growth over the phase.
func diffServe(p *phaseResult) serve.Stats {
	a, b := p.after.replicas, p.before.replicas
	return serve.Stats{
		Queries:         a.Queries - b.Queries,
		CacheHits:       a.CacheHits - b.CacheHits,
		Recordings:      a.Recordings - b.Recordings,
		StoreLoads:      a.StoreLoads - b.StoreLoads,
		UpstreamCalls:   a.UpstreamCalls - b.UpstreamCalls,
		TopUps:          a.TopUps - b.TopUps,
		TopUpSavedCalls: a.TopUpSavedCalls - b.TopUpSavedCalls,
	}
}

// finish prints the check outcome and every metric, and assembles the
// result line with the metrics named in names. phases are the timed phases
// whose answers rep checked; the last one is the reported one.
func (r *runner) finish(phases []*phaseResult, rep *checkReport, m map[string]metric, names []string) *result {
	p := phases[len(phases)-1]
	failed, completed := 0, 0
	for _, ph := range phases {
		failed += ph.failed()
		completed += ph.completed()
	}
	r.printf("# reference check: %d answers against %d distinct reference answers, %d inexact label assortativity (known defect, internal/core/assortativity.go:191), %d failures",
		rep.compared, rep.distinct, rep.inexact, len(rep.failures))
	for _, f := range rep.failures {
		r.printf("# CHECK FAILED: %s", f)
	}
	r.printf("# requests attempted=%d completed=%d failed=%d patches=%d repeat_share=%.3f",
		len(p.outcomes), p.completed(), failed, len(p.patches), r.gen.repeatShare(p.nextIndex))
	out := make(map[string]metric, len(names))
	names = append([]string(nil), names...)
	sort.Strings(names)
	for _, k := range names {
		out[k] = m[k]
		r.printf("metric %s %.6g %s", k, m[k].Value, m[k].Unit)
	}
	return &result{
		Correct:   rep.ok() && failed == 0 && rep.compared == completed && p.completed() > 0,
		Attempted: len(p.outcomes) + len(p.patches),
		Failed:    failed,
		Metrics:   out,
	}
}
