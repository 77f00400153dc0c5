package main

import (
	"fmt"
	"time"

	"tetrisched/internal/cluster"
	"tetrisched/internal/core"
	"tetrisched/internal/rayon"
	"tetrisched/internal/trace"
	"tetrisched/internal/workload"
)

const (
	// cyclePeriod is the scheduling cycle in seconds (the paper's 4 s).
	cyclePeriod = 4
	// solverLimit is the MILP wall-clock limit. It is set far above the
	// longest solve of every workload so that it never decides an outcome;
	// a cycle that reaches it fails the run (the host-speed guard).
	solverLimit = 30 * time.Second
	// setupSamples is how many times a measuring run sets a workload up;
	// setup_s is their median.
	setupSamples = 25
)

// spec is one benchmark workload: a fixed trace and scheduler configuration,
// so the work a run does is the same on every host.
type spec struct {
	name      string
	why       string
	rc256     bool // RC256 heterogeneous cluster; RC80 heterogeneous otherwise
	jobs      int
	util      float64
	planAhead int64
	shards    int
	workers   int // solver workers; 0 keeps the scheduler default
	// traceSeed is the canonical trace seed: the seed that gives the
	// workload the shape its why describes. README.md lists holdout seeds
	// that keep the shape (--trace-seed).
	traceSeed int64
	// daemon drives the scheduler through httpapi.Server over loopback.
	daemon bool
	// repSeconds is the nominal length of one repetition on the reference
	// host; --seconds / repSeconds fixes the repetition count.
	repSeconds float64
}

var specs = []*spec{
	{
		name: "branch-rc80",
		why:  "solver-bound: RC80 het, 90 GS_HET jobs at 1.2x load; branch-and-bound and the LU basis are ~96% of the wall",
		jobs: 90, util: 1.2, planAhead: 144,
		traceSeed:  5,
		repSeconds: 8,
	},
	{
		name:  "shard4-rc256",
		why:   "front-end and shard-bound: RC256 het, 1,200 jobs, 4 shards; compile and presolve dominate and shards conflict on commit",
		rc256: true, jobs: 1200, util: 1.0, planAhead: 96, shards: 4, workers: 2,
		traceSeed:  1,
		repSeconds: 11,
	},
	{
		name:  "daemon-rc256",
		why:   "front-door-bound: 4,800 jobs through httpapi over loopback by one closed-loop client; HTTP, JSON and admission are a fifth of the wall",
		rc256: true, jobs: 4800, util: 0.7, planAhead: 96,
		traceSeed:  1,
		daemon:     true,
		repSeconds: 7.5,
	},
}

func lookup(name string) (*spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// reps is the fixed number of repetitions a measuring run makes: a function
// of --seconds alone, never of elapsed time.
func (sp *spec) reps(seconds int) int {
	n := int(float64(seconds)/sp.repSeconds + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// instance is one set-up workload, ready to run once.
type instance struct {
	cluster *cluster.Cluster
	jobs    []*workload.Job
	plan    *rayon.Plan
	meter   *meter // times every call into the core scheduler
	tracer  *trace.Tracer
	d       *daemon // nil when the simulator calls the scheduler in-process
	limit   time.Duration
}

// options vary a set-up away from the measured configuration.
type options struct {
	traceSeed int64 // 0 = the workload's canonical seed
	inProcess bool  // run a daemon workload's trace in-process (reference)
	limit     time.Duration
	rec       *recorder // non-nil: traced run
}

// setup builds the cluster, the trace and the scheduler and, for the
// daemon workload, starts the listener and makes one status round trip.
func setup(sp *spec, o options) (*instance, error) {
	seed := o.traceSeed
	if seed == 0 {
		seed = sp.traceSeed
	}
	limit := o.limit
	if limit == 0 {
		limit = solverLimit
	}
	var c *cluster.Cluster
	if sp.rc256 {
		c = cluster.RC256(true)
	} else {
		c = cluster.RC80(true)
	}
	mix := workload.GSHET(sp.jobs)
	mix.TargetUtil = sp.util
	jobs, err := workload.Generate(mix, c, seed)
	if err != nil {
		return nil, fmt.Errorf("generate trace: %w", err)
	}
	in := &instance{cluster: c, jobs: jobs, plan: rayon.NewPlan(c.N(), cyclePeriod), limit: limit}
	if o.rec != nil {
		in.tracer = trace.New(1).SetSink(o.rec)
	}
	sched := core.New(c, core.Config{
		CyclePeriod:     cyclePeriod,
		PlanAhead:       sp.planAhead,
		SolverTimeLimit: limit,
		SolverWorkers:   sp.workers,
		Shards:          sp.shards,
		Tracer:          in.tracer,
	})
	in.meter = newMeter(sched, o.rec, limit)
	if sp.daemon && !o.inProcess {
		in.d, err = startDaemon(in, o.rec)
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// close stops everything setup started and waits for it to end.
func (in *instance) close() error {
	if in.d == nil {
		return nil
	}
	return in.d.close()
}
