package main

import (
	"fmt"
	"time"
)

// measure runs a workload reps times untraced and reports the end-to-end
// metrics: medians over the repetitions.
func measure(sp *spec, o options, seed int64, reps int) (*result, error) {
	r := newResult()
	r.say("workload %s (trace seed %d, run seed %d): %s", sp.name, traceSeedOf(sp, o), seed, sp.why)
	var outs []*outcome
	var setups []float64
	for i := 0; i < reps; i++ {
		out, err := once(sp, o)
		if err != nil {
			return nil, err
		}
		r.check(fmt.Sprintf("repetition %d", i+1), out)
		if i > 0 {
			r.same(fmt.Sprintf("repetitions 1 and %d", i+1), outs[0], out)
		}
		outs = append(outs, out)
		setups = append(setups, seconds(out.setup))
	}
	for len(setups) < setupSamples {
		d, err := setupOnly(sp, o)
		if err != nil {
			return nil, err
		}
		setups = append(setups, seconds(d))
	}
	r.say("end-to-end metrics over %d repetitions of the trace:", reps)
	for _, m := range endToEnd(sp, outs, setups) {
		r.add(m.name, m.unit, m.value, m.note)
	}
	r.say(metricFormat, "failed_ops_pct", failedPct(r), "%", fmt.Sprintf("%d failed of %d attempted (jobs plus HTTP requests)", r.Failed, r.Attempted))
	return r, nil
}

type metricLine struct {
	name, unit string
	value      float64
	note       string
}

// endToEnd computes the end-to-end metrics: medians over the repetitions,
// percentiles over the samples of all of them.
func endToEnd(sp *spec, outs []*outcome, setups []float64) []metricLine {
	var walls []float64
	var cycles, submits []time.Duration
	for _, o := range outs {
		walls = append(walls, seconds(o.wall))
		cycles = append(cycles, o.cycles...)
		submits = append(submits, o.submits...)
	}
	first := outs[0]
	cycleWhat, submitWhat := "Scheduler.Cycle calls", "Scheduler.Submit calls (one per job)"
	if sp.daemon {
		cycleWhat, submitWhat = "/v1/cycle round trips", "/v1/submit round trips (one per interval with arrivals)"
	}
	return []metricLine{
		{"setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups))},
		{"wall_s", "s", median(walls), "median; one repetition runs the whole trace"},
		{"cycle_p50_ms", "ms", percentile(cycles, 50), fmt.Sprintf("%s with pending work; n=%d (%d per repetition)", cycleWhat, len(cycles), len(first.cycles))},
		{"cycle_p90_ms", "ms", percentile(cycles, 90), fmt.Sprintf("%d samples above it", len(cycles)/10)},
		{"submit_p50_ms", "ms", percentile(submits, 50), fmt.Sprintf("%s; n=%d (%d per repetition)", submitWhat, len(submits), len(first.submits))},
		{"submit_p95_ms", "ms", percentile(submits, 95), fmt.Sprintf("%d samples above it", len(submits)/20)},
		{"slo_attainment_pct", "%", first.slo, "SLO jobs that met their deadline"},
		{"be_latency_mean_s", "sim_s", first.beLatency, "mean best-effort completion latency, simulated seconds"},
		{"utilization_pct", "%", first.util, "busy node-seconds over capacity x makespan"},
		{"mem_peak_mb", "MB", peakRSSMB(), "peak resident set of the process"},
	}
}

// traceRun runs a workload once untraced and once traced and reports the
// per-layer metrics: the program's meters, the benchmark's timers around
// each layer, the traced run's self time per layer and the tracing overhead.
func traceRun(sp *spec, o options, seed int64) (*result, error) {
	r := newResult()
	r.say("workload %s (trace seed %d, run seed %d), traced: %s", sp.name, traceSeedOf(sp, o), seed, sp.why)
	plain, err := once(sp, o)
	if err != nil {
		return nil, err
	}
	r.check("untraced run", plain)
	rec := &recorder{}
	o.rec = rec
	tr, err := once(sp, o)
	if err != nil {
		return nil, err
	}
	r.check("traced run", tr)
	r.same("untraced and traced runs", plain, tr)

	p, c := plain, &plain.c
	r.say("end-to-end metrics of the untraced run (the result line carries them with --trace 0):")
	for _, m := range endToEnd(sp, []*outcome{p}, []float64{seconds(p.setup)}) {
		r.say(metricFormat, m.name, m.value, m.unit, m.note)
	}
	r.say(metricFormat, "failed_ops_pct", failedPct(r), "%", fmt.Sprintf("%d failed of %d attempted", r.Failed, r.Attempted))

	r.say("core (timed around every call into core.Scheduler):")
	r.add("core.cycle_busy_s", "s", seconds(p.coreCycle), "")
	r.add("core.submit_busy_s", "s", seconds(p.coreSubmit), "")
	r.add("core.finish_busy_s", "s", seconds(p.coreFinish), "")
	r.add("core.cycles", "count", float64(p.coreCalls), fmt.Sprintf("%d with pending work", len(p.cycles)))

	r.say("strlgen:")
	lookups := c.exprHits + c.exprMisses
	r.add("strlgen.generate_s", "s", c.generateS, "")
	r.add("strlgen.expr_lookups", "count", float64(lookups), "")
	r.add("strlgen.expr_hit_rate", "ratio", ratio(c.exprHits, lookups), fmt.Sprintf("%d hits, base %d lookups", c.exprHits, lookups))

	r.say("compiler:")
	batched := c.compileSkips + c.compileJobs
	r.add("compiler.compile_s", "s", c.compileS, "includes decomposition and shard routing")
	r.add("compiler.batched_jobs", "count", float64(batched), "")
	r.add("compiler.compile_skip_rate", "ratio", ratio(c.compileSkips, batched), fmt.Sprintf("%d skipped, base %d batched jobs", c.compileSkips, batched))
	r.add("compiler.components", "count", float64(c.components), "sub-MILPs of decomposed solves")

	r.say("milp:")
	reuse := c.reuseHits + c.reuseMisses
	r.add("milp.solve_s", "s", c.solveS, "")
	r.add("milp.solves", "count", float64(c.solves), "")
	r.add("milp.solve_max_ms", "ms", c.maxSolveMS, fmt.Sprintf("headroom to the %.0f ms limit", ms(solverLimit)))
	r.add("milp.limit_hits", "count", float64(p.limitHits), "cycles whose solver time reached the limit")
	r.add("milp.presolve_s", "s", c.presolveS, "")
	r.add("milp.bb_nodes", "count", float64(c.bbNodes), "")
	r.add("milp.lp_iters", "count", float64(c.lpIters), "")
	r.add("milp.lp_factorizations", "count", float64(c.factorizations), "")
	r.add("milp.factorizations_per_node", "ratio", ratio(c.factorizations, c.bbNodes), fmt.Sprintf("base %d nodes", c.bbNodes))
	r.add("milp.eta_updates", "count", float64(c.etaUpdates), "")
	r.add("milp.reuse_lookups", "count", float64(reuse), "")
	r.add("milp.reuse_hit_rate", "ratio", ratio(c.reuseHits, reuse), fmt.Sprintf("%d hits, base %d lookups", c.reuseHits, reuse))
	r.add("milp.cut_rounds", "count", float64(c.cutRounds), "")
	r.add("milp.pseudocost_branches", "count", float64(c.pseudocostBranches), "")
	r.add("milp.dense_fallbacks", "count", float64(c.denseFallbacks), "")

	r.say("shard:")
	r.add("shard.cycles", "count", float64(c.shardCycles), "sharded cycles")
	r.add("shard.conflicts", "count", float64(c.conflicts), "")
	r.add("shard.requeued", "count", float64(c.requeued), "")
	r.add("shard.conflicts_per_cycle", "ratio", ratio(c.conflicts, c.shardCycles), fmt.Sprintf("base %d sharded cycles", c.shardCycles))
	r.add("shard.spanning", "count", float64(c.spanning), "")
	r.add("shard.arb_deferred", "count", float64(c.arbDeferred), "")

	r.say("httpapi (daemon only; 0 in-process):")
	r.add("httpapi.requests", "count", float64(p.requests), "client requests during the run")
	r.add("httpapi.requests_failed", "count", float64(p.requestsFailed), "non-2xx or transport errors")
	r.add("httpapi.busy_s", "s", seconds(p.serverBusy), "inside Server.Handler()")
	r.add("httpapi.cycle_overhead_ms_p50", "ms", percentile(p.overhead, 50), fmt.Sprintf("round trip minus in-server Cycle; n=%d", len(p.overhead)))
	r.add("httpapi.submit_server_ms_p50", "ms", percentile(p.submitServer, 50), fmt.Sprintf("n=%d", len(p.submitServer)))
	r.add("httpapi.completion_ms_p50", "ms", percentile(p.completion, 50), fmt.Sprintf("round trip; n=%d", len(p.completion)))

	r.say("sim:")
	simSelf := p.wall - p.coreCycle - p.coreSubmit - p.coreFinish
	if sp.daemon {
		simSelf = p.wall - p.client
	}
	r.add("sim.self_s", "s", seconds(simSelf), "wall minus core (or client request) time")

	r.say("go runtime:")
	r.add("go.gc_cycles", "count", float64(p.gcCycles), "")
	r.add("go.alloc_mb", "MB", float64(p.allocBytes)/1e6, "")
	r.add("go.alloc_per_cycle_kb", "kB", ratio(int64(p.allocBytes), int64(p.coreCalls))/1e3, fmt.Sprintf("base %d cycles", p.coreCalls))

	r.say("traced run: self time per layer (span time minus the child layers' spans):")
	// The run's requests; the status round trips of set-up and read-out
	// fall outside sim.Run.
	during := func(cat string) time.Duration {
		return rec.sum(cat, "/v1/submit") + rec.sum(cat, "/v1/cycle") + rec.sum(cat, "/v1/completions")
	}
	client := during("http.client")
	coreT, strl, comp := rec.sum("core", ""), rec.sum("strl", ""), rec.sum("compile", "")
	shardT, milpT := rec.sum("shard", ""), rec.sum("solve", "solve")
	selfSim, selfHTTP := rec.sum("sim", "run")-coreT, time.Duration(0)
	if sp.daemon {
		selfSim, selfHTTP = rec.sum("sim", "run")-client, client-coreT
	}
	r.add("self.sim_s", "s", seconds(selfSim), "sim.Run minus calls into the scheduler or the client")
	r.add("self.httpapi_s", "s", seconds(selfHTTP), "client requests minus core calls inside the handlers")
	if sp.daemon {
		handlers := during("http.server")
		r.say("    of which %.3f s in the handlers and %.3f s in the client and loopback transport",
			seconds(handlers-coreT), seconds(client-handlers))
	}
	r.add("self.core_s", "s", seconds(coreT-strl-comp-milpT), "core calls minus generate, compile and solve spans")
	r.add("self.strlgen_s", "s", seconds(strl), "")
	r.add("self.compiler_s", "s", seconds(comp-shardT), "compile spans minus shard spans")
	r.add("self.shard_s", "s", seconds(shardT), "")
	r.add("self.milp_s", "s", seconds(milpT), "")
	r.add("self.go_s", "s", tr.gcCPU, "garbage-collector CPU time; overlaps the layers above")
	r.add("trace.overhead_s", "s", seconds(tr.wall-p.wall), fmt.Sprintf("traced wall %.3f s minus untraced wall %.3f s", seconds(tr.wall), seconds(p.wall)))
	spans, events := rec.counts()
	r.add("trace.spans", "count", float64(spans), fmt.Sprintf("the benchmark's and the program tracer's; the tracer sent %d events", events))
	return r, nil
}

func traceSeedOf(sp *spec, o options) int64 {
	if o.traceSeed != 0 {
		return o.traceSeed
	}
	return sp.traceSeed
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func failedPct(r *result) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return 100 * float64(r.Failed) / float64(r.Attempted)
}
