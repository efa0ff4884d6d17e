package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/osn/httpsrc"
	"repro/internal/osn/httpsrc/faultsim"
	"repro/internal/serve"
)

const (
	// minSamples estimate answers per timed phase, so p90 has at least ten
	// samples beyond it; a phase runs past its duration until it has them.
	minSamples = 100
	// churnFrac is the share of edges one PATCH rewires.
	churnFrac = 0.001
	// windows is how many equal time windows a phase is cut into; a
	// per-window metric is reported as the median over the windows, so a
	// burst of load from outside the benchmark moves it less.
	windows = 5
)

// outcome is one estimate request as the client saw it.
type outcome struct {
	idx     int
	status  int
	body    []byte
	latency time.Duration
	end     time.Duration // completion, from the phase start
	err     error
}

// patchOutcome is one PATCH as the client saw it.
type patchOutcome struct {
	latency time.Duration
	status  int
	version uint64
	err     error
}

// counters are the process and system counters a phase reports as deltas.
type counters struct {
	cpu      time.Duration
	alloc    uint64
	gcs      uint32
	replicas serve.Stats
	httpsrc  httpsrc.Stats
	ledger   faultsim.Ledger
	gateway  gateway.Stats
	// sourceCalls is the tracer's count of Neighbors and Degree calls into
	// the httpsrc clients (0 untraced).
	sourceCalls int64
}

func readCounters(t *topology) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{cpu: processCPU(), alloc: ms.TotalAlloc, gcs: ms.NumGC,
		replicas: t.replicaStats(), httpsrc: t.httpsrcStats(), ledger: t.ledger(), gateway: t.gw.Stats()}
	if t.tr != nil {
		c.sourceCalls = t.tr.sourceCalls.Load()
	}
	return c
}

// phaseResult is everything one timed phase measured.
type phaseResult struct {
	outcomes   []outcome
	patches    []patchOutcome
	elapsed    time.Duration
	before     counters
	after      counters
	samples    []procSample
	nextIndex  int // first request index the phase did not send
	clientSpan map[string]span
}

// completed counts the estimate requests answered 2xx.
func (p *phaseResult) completed() int {
	n := 0
	for _, o := range p.outcomes {
		if o.err == nil && o.status == http.StatusOK {
			n++
		}
	}
	return n
}

// runPhase drives the closed loop through the gateway for d, and on until
// least answers arrived, but never past limit. On a churn workload client
// 0 sends deltas[j] as a PATCH after every patchEvery of its estimates.
func runPhase(t *topology, w workload, g *generator, deltas []graph.Delta, d time.Duration, least int, limit time.Duration) *phaseResult {
	res := &phaseResult{before: readCounters(t), clientSpan: make(map[string]span)}
	start := time.Now()
	stopSampling := make(chan struct{})
	sampled := make(chan []procSample)
	go sampleProcess(start, stopSampling, sampled)

	var next, done atomic.Int64
	var mu sync.Mutex
	stop := func() bool {
		el := time.Since(start)
		return el >= limit || (el >= d && done.Load() >= int64(least))
	}
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sent, patched := 0, 0
			for !stop() {
				i := int(next.Add(1) - 1)
				id := ""
				if t.tr != nil {
					id = strconv.Itoa(i)
				}
				req, err := json.Marshal(g.request(i))
				if err != nil {
					panic(err) // a wireRequest always encodes
				}
				t0 := time.Now()
				var s0 int64
				if t.tr != nil {
					s0 = t.tr.now()
				}
				status, body, err := t.do(http.MethodPost, "/estimate", req, id)
				o := outcome{idx: i, status: status, body: body, latency: time.Since(t0), end: time.Since(start), err: err}
				if err == nil && status == http.StatusOK {
					done.Add(1)
				}
				mu.Lock()
				res.outcomes = append(res.outcomes, o)
				if t.tr != nil {
					res.clientSpan[id] = span{Layer: "client.estimate", ID: id, StartNS: s0, EndNS: t.tr.now()}
				}
				mu.Unlock()
				sent++
				if c == 0 && w.patchEvery > 0 && sent%w.patchEvery == 0 && patched < len(deltas) {
					p := sendPatch(t, deltas[patched])
					patched++
					mu.Lock()
					res.patches = append(res.patches, p)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	close(stopSampling)
	res.samples = <-sampled
	res.after = readCounters(t)
	res.nextIndex = int(next.Load())
	return res
}

func sendPatch(t *topology, d graph.Delta) patchOutcome {
	req, err := json.Marshal(toPatch(d))
	if err != nil {
		return patchOutcome{err: err}
	}
	t0 := time.Now()
	status, body, err := t.do(http.MethodPatch, "/graphs/"+graphName, req, "")
	p := patchOutcome{latency: time.Since(t0), status: status, err: err}
	if err == nil && status == http.StatusOK {
		var resp struct {
			Version uint64 `json:"graph_version"`
		}
		if jerr := json.Unmarshal(body, &resp); jerr != nil {
			p.err = jerr
		}
		p.version = resp.Version
	}
	return p
}

// setupSystem starts a topology and makes the workload's pre-recordings
// through the gateway.
func setupSystem(w workload, dir string, tr *tracer, g *generator) (*topology, error) {
	t, err := startTopology(w, dir, tr)
	if err != nil {
		return nil, err
	}
	if err := sendAll(t, w.clients, g.setupRequests()); err != nil {
		t.close()
		return nil, fmt.Errorf("pre-recording: %w", err)
	}
	return t, nil
}

// sendAll sends reqs through the gateway from the given number of clients
// and fails on the first unsuccessful answer.
func sendAll(t *topology, clients int, reqs []wireRequest) error {
	errs := make([]error, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				req, err := json.Marshal(reqs[i])
				if err != nil {
					errs[i] = err
					continue
				}
				status, body, err := t.do(http.MethodPost, "/estimate", req, "")
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, body)
				}
				if err != nil {
					errs[i] = fmt.Errorf("seed %d: %w", reqs[i].Seed, err)
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB reads the process's current resident set from /proc.
func rssMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), true
}

// procSample is the process's CPU time and resident set at one moment.
type procSample struct {
	at    time.Duration // from the phase start
	cpu   time.Duration
	rssMB float64
}

// sampleProcess samples the process every 20ms from start until stop
// closes, and sends the samples on out.
func sampleProcess(start time.Time, stop <-chan struct{}, out chan<- []procSample) {
	var ss []procSample
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		mb, _ := rssMB()
		ss = append(ss, procSample{at: time.Since(start), cpu: processCPU(), rssMB: mb})
		select {
		case <-stop:
			out <- ss
			return
		case <-tick.C:
		}
	}
}

// rssPeakMB is the largest resident set sampled in the phase; without
// /proc it falls back to the process's lifetime peak.
func (p *phaseResult) rssPeakMB() float64 {
	peak := 0.0
	for _, s := range p.samples {
		peak = math.Max(peak, s.rssMB)
	}
	if peak == 0 {
		var ru syscall.Rusage
		if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
			peak = float64(ru.Maxrss) / 1024
		}
	}
	return peak
}

// cpuAt is the process CPU time at the last sample taken by at.
func (p *phaseResult) cpuAt(at time.Duration) time.Duration {
	c := p.samples[0].cpu
	for _, s := range p.samples {
		if s.at > at {
			break
		}
		c = s.cpu
	}
	return c
}

// window is one of the equal time slices of a phase.
type window struct {
	latencies []float64 // ms, of the estimates that completed in it
	seconds   float64
	cpu       time.Duration
}

// windows cuts the phase into equal time windows by completion time.
func (p *phaseResult) windows(n int) []window {
	ws := make([]window, n)
	width := p.elapsed / time.Duration(n)
	for i := range ws {
		ws[i].seconds = width.Seconds()
		ws[i].cpu = p.cpuAt(time.Duration(i+1)*width) - p.cpuAt(time.Duration(i)*width)
	}
	for _, o := range p.outcomes {
		if o.err == nil && o.status == http.StatusOK {
			i := min(int(o.end/width), n-1)
			ws[i].latencies = append(ws[i].latencies, float64(o.latency)/1e6)
		}
	}
	return ws
}
