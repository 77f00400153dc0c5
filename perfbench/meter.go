package main

import (
	"sort"
	"sync"
	"time"

	"tetrisched/internal/bitset"
	"tetrisched/internal/core"
	"tetrisched/internal/sim"
	"tetrisched/internal/trace"
	"tetrisched/internal/workload"
)

// meter wraps the core scheduler and times every call into it from outside:
// the benchmark's view of the core layer. In the daemon workload the server
// calls it from its handler goroutines, so its fields sit behind mu.
type meter struct {
	inner *core.Scheduler
	rec   *recorder
	limit time.Duration

	mu         sync.Mutex
	pending    int             // jobs submitted and neither launched nor dropped
	cycles     []time.Duration // Cycle calls made with pending work
	submits    []time.Duration
	cycleBusy  time.Duration
	submitBusy time.Duration
	finishBusy time.Duration
	calls      int           // every Cycle call
	last       time.Duration // the most recent Cycle call
	limitHits  int           // cycles whose solver time reached the limit
}

var _ sim.Scheduler = (*meter)(nil)

func newMeter(s *core.Scheduler, rec *recorder, limit time.Duration) *meter {
	return &meter{inner: s, rec: rec, limit: limit}
}

func (m *meter) Name() string { return m.inner.Name() }

func (m *meter) Submit(now int64, j *workload.Job) {
	t0 := time.Now()
	m.inner.Submit(now, j)
	d := time.Since(t0)
	m.rec.add("core", "submit", d)
	m.mu.Lock()
	m.pending++
	m.submits = append(m.submits, d)
	m.submitBusy += d
	m.mu.Unlock()
}

func (m *meter) JobFinished(now int64, j *workload.Job) {
	t0 := time.Now()
	m.inner.JobFinished(now, j)
	d := time.Since(t0)
	m.rec.add("core", "finish", d)
	m.mu.Lock()
	m.finishBusy += d
	m.mu.Unlock()
}

func (m *meter) Cycle(now int64, free *bitset.Set) sim.CycleResult {
	m.mu.Lock()
	busy := m.pending > 0
	m.mu.Unlock()
	t0 := time.Now()
	cr := m.inner.Cycle(now, free)
	d := time.Since(t0)
	m.rec.add("core", "cycle", d)
	m.mu.Lock()
	m.calls++
	m.last = d
	m.cycleBusy += d
	if busy {
		m.cycles = append(m.cycles, d)
	}
	m.pending += len(cr.Preempted) - len(cr.Decisions) - len(cr.Dropped)
	if cr.SolverLatency >= m.limit {
		m.limitHits++
	}
	m.mu.Unlock()
	return cr
}

// lastCycle returns the duration of the most recent Cycle call.
func (m *meter) lastCycle() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.last
}

// SolveStatsSnapshot and ShardStatsSnapshot let httpapi.Server find the
// scheduler's meters through the wrapper, so /v1/status reports them.
func (m *meter) SolveStatsSnapshot() core.SolveStats { return m.inner.SolveStatsSnapshot() }
func (m *meter) ShardStatsSnapshot() core.ShardStats { return m.inner.ShardStatsSnapshot() }

// span is one recorded duration: from the benchmark's own wrappers or from
// the program's trace.Tracer.
type span struct {
	cat, name string
	dur       time.Duration
}

// recorder keeps a traced run's spans in memory until the run ends. It is
// also the trace.Sink of the program's tracer. A nil recorder records
// nothing, so untraced runs pay one branch per call.
type recorder struct {
	mu     sync.Mutex
	spans  []span
	events int // program tracer events of every kind
}

var _ trace.Sink = (*recorder)(nil)

func (r *recorder) add(cat, name string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{cat: cat, name: name, dur: d})
	r.mu.Unlock()
}

// Emit implements trace.Sink.
func (r *recorder) Emit(e *trace.Event) error {
	r.mu.Lock()
	r.events++
	if e.Kind == trace.KindSpan {
		r.spans = append(r.spans, span{cat: e.Cat, name: e.Name, dur: time.Duration(e.Dur)})
	}
	r.mu.Unlock()
	return nil
}

// Close implements trace.Sink.
func (r *recorder) Close() error { return nil }

// sum totals the spans of one category; name "" matches every name.
func (r *recorder) sum(cat, name string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t time.Duration
	for _, s := range r.spans {
		if s.cat == cat && (name == "" || s.name == name) {
			t += s.dur
		}
	}
	return t
}

// counts returns how many spans the recorder holds and how many events the
// program's tracer sent it.
func (r *recorder) counts() (spans, events int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans), r.events
}

// percentile returns the nearest-rank p-th percentile of ds, in ms.
func percentile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(p/100*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return ms(s[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (the mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
