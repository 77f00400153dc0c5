package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"tetrisched/internal/bitset"
	"tetrisched/internal/httpapi"
	"tetrisched/internal/sim"
	"tetrisched/internal/workload"
)

// tenants are the daemon workload's submitters; job i belongs to tenant
// i mod 3. The weighted-fair drain then admits jobs that arrive in the same
// second in ID order, as the in-process run does; a random split reorders
// them and changes outcomes.
var tenants = [...]string{"analytics", "batch", "web"}

// daemon is the scheduler served by httpapi.Server on a loopback listener,
// and the one client connection that drives it.
type daemon struct {
	srv    *http.Server
	served chan error
	hm     *handlerMeter
	px     *proxy
}

// startDaemon serves in's scheduler over loopback and makes one status
// round trip, so the daemon is known to answer before the run starts.
func startDaemon(in *instance, rec *recorder) (*daemon, error) {
	api := httpapi.NewServer(in.meter, in.cluster.N()).SetTracer(in.tracer)
	hm := &handlerMeter{next: api.Handler(), rec: rec}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv:    &http.Server{Handler: hm, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		hm:     hm,
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	d.px = newProxy("http://"+ln.Addr().String(), in.meter, rec)
	if _, err := d.px.status(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close shuts the server down and waits until Serve has returned.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	d.px.hc.CloseIdleConnections()
	if serr := <-d.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// handlerMeter wraps Server.Handler() and times every request inside the
// server. The client checks every status.
type handlerMeter struct {
	next http.Handler
	rec  *recorder

	mu           sync.Mutex
	busy         time.Duration
	submitServer []time.Duration
}

func (h *handlerMeter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	h.rec.add("http.server", r.URL.Path, d)
	h.mu.Lock()
	h.busy += d
	if r.URL.Path == "/v1/submit" {
		h.submitServer = append(h.submitServer, d)
	}
	h.mu.Unlock()
}

// proxy plays the resource-manager proxy of the paper's §3.3 as one
// closed-loop client: it is the simulator's sim.Scheduler and forwards each
// interval's arrivals (POST /v1/submit), each cycle (POST /v1/cycle) and each
// completion (POST /v1/completions) to the daemon, waiting for every reply.
type proxy struct {
	base string
	hc   *http.Client
	core *meter // the server-side core meter, for the per-cycle overhead
	rec  *recorder

	jobs     map[int]*workload.Job
	arrivals []*workload.Job
	pending  int

	cycleRT      []time.Duration // /v1/cycle round trips made with pending work
	overhead     []time.Duration // those round trips minus the in-server Cycle
	submitRT     []time.Duration
	completionRT []time.Duration
	busy         time.Duration // time inside requests, reply read and decoded
	requests     int
	failed       int
	firstErr     error
	body         bytes.Buffer
}

var _ sim.Scheduler = (*proxy)(nil)

func newProxy(base string, core *meter, rec *recorder) *proxy {
	return &proxy{
		base: base,
		// One connection, kept alive: the client never has two requests
		// in flight.
		hc: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   2 * solverLimit,
		},
		core: core,
		rec:  rec,
		jobs: make(map[int]*workload.Job),
	}
}

// do sends one request and decodes a reply into out when out is non-nil.
// Any transport error or status other than want counts as a failed request.
func (p *proxy) do(method, path string, in interface{}, want int, out interface{}) (time.Duration, error) {
	t0 := time.Now()
	p.body.Reset()
	if in != nil {
		if err := json.NewEncoder(&p.body).Encode(in); err != nil {
			return 0, p.fail(fmt.Errorf("encode %s: %w", path, err))
		}
	}
	req, err := http.NewRequest(method, p.base+path, &p.body)
	if err != nil {
		return 0, p.fail(err)
	}
	req.Header.Set("Content-Type", "application/json")
	p.requests++
	resp, err := p.hc.Do(req)
	if err != nil {
		return 0, p.fail(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, p.fail(fmt.Errorf("%s: read reply: %w", path, err))
	}
	if resp.StatusCode != want {
		return 0, p.fail(fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(data)))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return 0, p.fail(fmt.Errorf("%s: decode reply: %w", path, err))
		}
	}
	d := time.Since(t0)
	p.busy += d
	p.rec.add("http.client", path, d)
	return d, nil
}

func (p *proxy) fail(err error) error {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
	return err
}

// status reads GET /v1/status.
func (p *proxy) status() (*httpapi.StatusResponse, error) {
	var st httpapi.StatusResponse
	if _, err := p.do(http.MethodGet, "/v1/status", nil, http.StatusOK, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

func (p *proxy) Name() string { return "proxy" }

// Submit implements sim.Scheduler: arrivals wait for the interval's batch.
func (p *proxy) Submit(now int64, j *workload.Job) {
	p.jobs[j.ID] = j
	p.arrivals = append(p.arrivals, j)
	p.pending++
}

// JobFinished implements sim.Scheduler.
func (p *proxy) JobFinished(now int64, j *workload.Job) {
	d, err := p.do(http.MethodPost, "/v1/completions", &httpapi.CompletionMsg{JobID: j.ID, Now: now}, http.StatusNoContent, nil)
	if err == nil {
		p.completionRT = append(p.completionRT, d)
	}
	delete(p.jobs, j.ID)
}

// Cycle implements sim.Scheduler: submit the interval's arrivals, then run
// the daemon's cycle.
func (p *proxy) Cycle(now int64, free *bitset.Set) sim.CycleResult {
	var out sim.CycleResult
	if len(p.arrivals) > 0 {
		batch := make([]httpapi.JobMsg, len(p.arrivals))
		for i, j := range p.arrivals {
			batch[i] = httpapi.FromJob(j)
			batch[i].Tenant = tenants[j.ID%len(tenants)]
		}
		p.arrivals = p.arrivals[:0]
		d, err := p.do(http.MethodPost, "/v1/submit", batch, http.StatusAccepted, nil)
		if err != nil {
			return out
		}
		p.submitRT = append(p.submitRT, d)
	}
	var resp httpapi.CycleResponse
	d, err := p.do(http.MethodPost, "/v1/cycle", &httpapi.CycleRequest{Now: now, Free: free.Indices()}, http.StatusOK, &resp)
	if err != nil {
		return out
	}
	if p.pending > 0 {
		p.cycleRT = append(p.cycleRT, d)
		p.overhead = append(p.overhead, d-p.core.lastCycle())
	}
	for _, id := range resp.Preempted {
		if j, ok := p.jobs[id]; ok {
			out.Preempted = append(out.Preempted, j)
		}
	}
	for _, dm := range resp.Decisions {
		if j, ok := p.jobs[dm.JobID]; ok {
			out.Decisions = append(out.Decisions, sim.Decision{Job: j, Nodes: dm.Nodes})
		}
	}
	for _, id := range resp.Dropped {
		if j, ok := p.jobs[id]; ok {
			out.Dropped = append(out.Dropped, j)
			delete(p.jobs, id)
		}
	}
	p.pending += len(out.Preempted) - len(out.Decisions) - len(out.Dropped)
	out.SolverLatency = time.Duration(resp.SolverMillis * float64(time.Millisecond))
	return out
}
