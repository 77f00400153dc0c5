package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"time"

	"tetrisched/internal/core"
	"tetrisched/internal/httpapi"
	tsmetrics "tetrisched/internal/metrics"
	"tetrisched/internal/sim"
)

// counters are the program's own meters, read once after a run: from
// SolveStatsSnapshot/ShardStatsSnapshot in-process, from /v1/status through
// the daemon.
type counters struct {
	solves, bbNodes, lpIters, factorizations, etaUpdates, denseFallbacks int64
	cutRounds, pseudocostBranches, reuseHits, reuseMisses                int64
	exprHits, exprMisses, compileSkips, compileJobs, components          int64
	shardCycles, conflicts, requeued, spanning, arbDeferred              int64

	// Timers; they vary from run to run and stay out of the digest.
	solveS, maxSolveMS, presolveS, generateS, compileS float64
}

// counts lists the counters that must repeat exactly on one commit.
func (c *counters) counts() []int64 {
	return []int64{c.solves, c.bbNodes, c.lpIters, c.factorizations, c.etaUpdates,
		c.denseFallbacks, c.cutRounds, c.pseudocostBranches, c.reuseHits, c.reuseMisses,
		c.exprHits, c.exprMisses, c.compileSkips, c.compileJobs, c.components,
		c.shardCycles, c.conflicts, c.requeued, c.spanning, c.arbDeferred}
}

func fromCore(st core.SolveStats, sh core.ShardStats) counters {
	return counters{
		solves: int64(st.Solves), bbNodes: int64(st.Nodes), lpIters: st.LPIters,
		factorizations: st.Factorizations, etaUpdates: st.EtaUpdates,
		denseFallbacks: int64(st.DenseFallbacks), cutRounds: int64(st.CutRounds),
		pseudocostBranches: st.PseudocostBranches,
		reuseHits:          int64(st.ReuseHits), reuseMisses: int64(st.ReuseMisses),
		exprHits: int64(st.ExprHits), exprMisses: int64(st.ExprMisses),
		compileSkips: int64(st.CompileSkips), compileJobs: int64(st.CompileJobs),
		components:  int64(st.Components),
		shardCycles: sh.Cycles, conflicts: sh.Conflicts, requeued: sh.Requeued,
		spanning: sh.Spanning, arbDeferred: sh.ArbDeferred,
		solveS: st.Runtime.Seconds(), maxSolveMS: ms(st.MaxSolve),
		presolveS: st.PresolveTime.Seconds(),
		generateS: float64(st.GenerateNS) / 1e9, compileS: float64(st.CompileNS) / 1e9,
	}
}

func fromStatus(st *httpapi.StatusResponse) counters {
	var c counters
	if s := st.Solver; s != nil {
		c = counters{
			solves: int64(s.Solves), bbNodes: int64(s.Nodes), lpIters: s.LPIters,
			factorizations: s.Factorizations, etaUpdates: s.EtaUpdates,
			denseFallbacks: int64(s.DenseFallbacks), cutRounds: int64(s.CutRounds),
			pseudocostBranches: s.PCBranches,
			reuseHits:          int64(s.ReuseHits), reuseMisses: int64(s.ReuseMisses),
			exprHits: int64(s.ExprHits), exprMisses: int64(s.ExprMisses),
			compileSkips: int64(s.CompileSkips), compileJobs: int64(s.CompileJobs),
			components: int64(s.Components),
			solveS:     s.MeanSolveMillis * float64(s.Solves) / 1e3, maxSolveMS: s.MaxSolveMillis,
			presolveS: s.PresolveMillis / 1e3,
			generateS: s.GenerateMillis / 1e3, compileS: s.CompileMillis / 1e3,
		}
	}
	if s := st.Shard; s != nil {
		c.shardCycles, c.conflicts, c.requeued = s.Cycles, s.Conflicts, s.Requeued
		c.spanning, c.arbDeferred = s.Spanning, s.ArbDeferred
	}
	return c
}

// outcome is what one run of an instance produced.
type outcome struct {
	setup, wall time.Duration
	cycles      []time.Duration // Cycle calls (or /v1/cycle round trips) with pending work
	submits     []time.Duration // Submit calls (or /v1/submit round trips)

	slo, beLatency, util float64
	jobs, incomplete     int
	jobDigest            uint64 // per-job outcomes
	countDigest          uint64 // per-job outcomes plus every counter that must repeat
	c                    counters

	attempted, failed int
	limitHits         int
	errs              []string

	coreCycle, coreSubmit, coreFinish time.Duration
	coreCalls                         int
	client                            time.Duration // daemon: time inside client requests

	// Daemon only.
	requests, requestsFailed           int
	serverBusy                         time.Duration
	overhead, submitServer, completion []time.Duration

	gcCycles   uint32
	allocBytes uint64
	gcCPU      float64 // seconds of CPU the garbage collector used
}

func (o *outcome) fail(format string, args ...interface{}) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

func (o *outcome) ok() bool { return len(o.errs) == 0 && o.failed == 0 }

// run plays the instance's trace through the simulator once and checks the
// result.
func (in *instance) run(rec *recorder) *outcome {
	o := &outcome{}
	var sched sim.Scheduler = in.meter
	var clientBefore time.Duration
	var reqBefore int
	if in.d != nil {
		sched = in.d.px
		clientBefore, reqBefore = in.d.px.busy, in.d.px.requests
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()

	t0 := time.Now()
	res, err := sim.Run(sim.Config{
		Cluster: in.cluster, Jobs: in.jobs, Scheduler: sched, Plan: in.plan,
		CyclePeriod: cyclePeriod, Tracer: in.tracer,
	})
	o.wall = time.Since(t0)
	rec.add("sim", "run", o.wall)

	o.gcCPU = gcCPUSeconds() - gc0
	runtime.ReadMemStats(&m1)
	o.gcCycles = m1.NumGC - m0.NumGC
	o.allocBytes = m1.TotalAlloc - m0.TotalAlloc

	m := in.meter
	m.mu.Lock()
	o.coreCycle, o.coreSubmit, o.coreFinish = m.cycleBusy, m.submitBusy, m.finishBusy
	o.coreCalls, o.limitHits = m.calls, m.limitHits
	o.cycles, o.submits = m.cycles, m.submits
	m.mu.Unlock()

	o.jobs = len(in.jobs)
	o.attempted = o.jobs
	if in.d != nil {
		px := in.d.px
		o.client = px.busy - clientBefore
		o.requests = px.requests - reqBefore
		o.requestsFailed = px.failed
		o.attempted += o.requests
		o.cycles, o.submits = px.cycleRT, px.submitRT
		o.overhead, o.completion = px.overhead, px.completionRT
		hm := in.d.hm
		hm.mu.Lock()
		o.serverBusy, o.submitServer = hm.busy, hm.submitServer
		hm.mu.Unlock()
		if px.firstErr != nil {
			o.fail("daemon: %d failed requests, first: %v", px.failed, px.firstErr)
		}
	}

	if err != nil {
		o.fail("simulation: %v", err)
		o.failed += o.jobs
		return o
	}
	if res.Stalled {
		o.fail("simulation stalled")
	}
	// Every job must end completed or dropped by policy.
	h := fnv.New64a()
	for i := range res.Stats {
		st := &res.Stats[i]
		if !st.Completed && !st.Dropped {
			o.incomplete++
		}
		fmt.Fprintf(h, "%d %t %t %d %d %d %v;", st.Job.ID, st.Completed, st.Dropped,
			st.Start, st.Finish, st.Preemptions, st.Nodes)
	}
	o.jobDigest = h.Sum64()
	if o.incomplete > 0 {
		o.fail("%d of %d jobs neither completed nor dropped", o.incomplete, o.jobs)
	}
	if o.limitHits > 0 {
		o.fail("%d cycles reached the %v solver limit: outcomes depend on host speed", o.limitHits, in.limit)
	}
	o.failed += o.incomplete + o.requestsFailed + o.limitHits

	sum := tsmetrics.Summarize(in.meter.Name(), res, in.cluster.N())
	o.slo, o.beLatency, o.util = sum.SLOAll, sum.MeanBELatency, 100*sum.Utilization

	if in.d != nil {
		st, err := in.d.px.status()
		if err != nil {
			o.fail("read /v1/status: %v", err)
			return o
		}
		o.c = fromStatus(st)
	} else {
		o.c = fromCore(m.inner.SolveStatsSnapshot(), m.inner.ShardStatsSnapshot())
	}
	if o.c.maxSolveMS >= ms(in.limit) {
		o.fail("a solve took %.0f ms, at the %v solver limit", o.c.maxSolveMS, in.limit)
	}
	fmt.Fprintf(h, "%v %d", o.c.counts(), o.requests)
	o.countDigest = h.Sum64()
	return o
}

// gcCPUSeconds reads the garbage collector's cumulative CPU time.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// once sets a workload up and runs it once, timing the set-up.
func once(sp *spec, o options) (*outcome, error) {
	runtime.GC()
	t0 := time.Now()
	in, err := setup(sp, o)
	if err != nil {
		return nil, err
	}
	setupTime := time.Since(t0)
	out := in.run(o.rec)
	out.setup = setupTime
	if err := in.close(); err != nil {
		out.fail("shut the daemon down: %v", err)
	}
	return out, nil
}

// setupOnly times one set-up and tears it down again.
func setupOnly(sp *spec, o options) (time.Duration, error) {
	t0 := time.Now()
	in, err := setup(sp, o)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	return d, in.close()
}
