package tetrisched

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tetrisched/internal/cluster"
	"tetrisched/internal/core"
	"tetrisched/internal/sim"
	"tetrisched/internal/workload"
)

// parityInstance is one randomized multi-cycle scenario for the sharding
// parity property. Jobs are rebuilt per run from the same sub-seed because the
// simulation driver mutates them (Reserved is stamped at submit time).
type parityInstance struct {
	c        *cluster.Cluster
	mkJobs   func() []*workload.Job
	failures []sim.NodeFailure
	cfg      core.Config
}

// randomParityInstance draws a cluster, workload, and configuration: mixed job
// classes and placement types, occasional estimate error (negative values
// create natural overruns), occasional node failures, preemption, and small
// MaxBatch (exercising truncation). Every 4th instance is the crafted
// steady-state scenario instead, so deferral in place is exercised on every
// fourth seed.
func randomParityInstance(idx int, seed int64) parityInstance {
	if idx%4 == 0 {
		return steadyParityInstance(seed)
	}
	r := rand.New(rand.NewSource(seed))
	gk, gv := cluster.GPUAttr()
	b := cluster.NewBuilder()
	nodes := 0
	for i, racks := 0, 2+r.Intn(3); i < racks; i++ {
		n := 4 + r.Intn(5)
		var attrs map[string]string
		if r.Intn(3) == 0 {
			attrs = map[string]string{gk: gv}
		}
		b.AddRack(fmt.Sprintf("r%d", i), n, attrs)
		nodes += n
	}
	c := b.Build()

	nJobs := 8 + r.Intn(13)
	jobSeed := r.Int63()
	mkJobs := func() []*workload.Job {
		jr := rand.New(rand.NewSource(jobSeed))
		jobs := make([]*workload.Job, nJobs)
		for id := range jobs {
			j := &workload.Job{
				ID: id, Class: workload.BestEffort, Type: workload.Unconstrained,
				K: 1 + jr.Intn(4), BaseRuntime: int64(4 * (1 + jr.Intn(10))),
				Slowdown: float64(1 + jr.Intn(3)), Submit: int64(4 * jr.Intn(15)),
			}
			switch jr.Intn(5) {
			case 1:
				j.Type = workload.GPU
			case 2:
				j.Type = workload.MPI
			case 3:
				j.Type = workload.Elastic
				j.MinK = 1
			case 4:
				j.Type = workload.DataLocal
				lo := jr.Intn(nodes - j.K)
				for n := lo; n < lo+j.K+1 && n < nodes; n++ {
					j.DataNodes = append(j.DataNodes, n)
				}
			}
			if jr.Intn(10) < 6 {
				j.Class = workload.SLO
				j.Deadline = j.Submit + int64(float64(j.BaseRuntime)*j.Slowdown) + int64(4*(2+jr.Intn(20)))
				j.Reserved = jr.Intn(2) == 0
			}
			if jr.Intn(4) == 0 {
				j.EstErr = []float64{-0.5, -0.25, 0.5}[jr.Intn(3)]
			}
			jobs[id] = j
		}
		return jobs
	}

	inst := parityInstance{
		c:      c,
		mkJobs: mkJobs,
		cfg: core.Config{
			CyclePeriod:      4,
			PlanAhead:        int64(16 + 8*r.Intn(3)),
			EnablePreemption: idx%3 == 0,
		},
	}
	if r.Intn(4) == 0 {
		inst.cfg.MaxBatch = 4
	}
	if idx%5 == 2 {
		at := int64(8 + 4*r.Intn(10))
		inst.failures = []sim.NodeFailure{{Node: r.Intn(nodes), At: at, RecoverAt: at + int64(4*(1+r.Intn(5)))}}
	}
	return inst
}

// steadyParityInstance crafts a steady state: a whole-cluster best-effort
// blocker whose 90% runtime under-estimate makes it overrun (pinning every
// believed release slice at one), while two data-local SLO jobs with far
// deadlines and value-culled remote fallbacks defer in place until the
// blocker's true completion frees the cluster.
func steadyParityInstance(seed int64) parityInstance {
	c := cluster.NewBuilder().AddRack("r0", 8, nil).Build()
	mkJobs := func() []*workload.Job {
		jobs := []*workload.Job{{
			ID: 0, Class: workload.BestEffort, Type: workload.Unconstrained,
			K: 8, BaseRuntime: 60, Slowdown: 1, Submit: 0, EstErr: -0.9,
		}}
		for i, lo := range []int{0, 4} {
			jobs = append(jobs, &workload.Job{
				ID: i + 1, Class: workload.SLO, Reserved: true, Type: workload.DataLocal, Submit: 8,
				K: 2, BaseRuntime: 40, Slowdown: 10, Deadline: 400, DataNodes: []int{lo, lo + 1, lo + 2, lo + 3},
			})
		}
		return jobs
	}
	return parityInstance{
		c: c, mkJobs: mkJobs,
		cfg: core.Config{CyclePeriod: 4, PlanAhead: 16},
	}
}

// TestShardParityProperty is the policy-invariance property of the sharding
// control plane: a single shard covers the whole cluster, so every forced
// component is byte-identical to the natural decomposition and a Shards=1 run
// must produce exactly the same per-job outcomes as the monolithic (Shards=0)
// scheduler across seeded multi-cycle simulations — arrivals, completions,
// drops, overruns, node failures, preemptions. The stats assertions keep both
// sides honest: the monolithic run must never touch the shard machinery, and
// the sharded run must actually route every cycle through it.
func TestShardParityProperty(t *testing.T) {
	const instances = 220
	var shardCycles int64
	for i := 0; i < instances; i++ {
		seed := int64(17000 + i)
		inst := randomParityInstance(i, seed)
		run := func(shards int) (*sim.Result, *core.Scheduler) {
			cfg := inst.cfg
			cfg.Shards = shards
			sched := core.New(inst.c, cfg)
			res, err := sim.Run(sim.Config{
				Cluster: inst.c, Jobs: inst.mkJobs(), Scheduler: sched, Failures: inst.failures,
			})
			if err != nil {
				t.Fatalf("seed %d (shards=%d): %v", seed, shards, err)
			}
			return res, sched
		}
		mono, monoSched := run(0)
		sharded, shSched := run(1)

		if !reflect.DeepEqual(mono.Stats, sharded.Stats) {
			for j := range mono.Stats {
				if !reflect.DeepEqual(mono.Stats[j], sharded.Stats[j]) {
					t.Errorf("seed %d: job %d diverged:\n  monolithic: %+v\n  1-shard:    %+v",
						seed, j, mono.Stats[j], sharded.Stats[j])
				}
			}
		}
		if mono.Makespan != sharded.Makespan || mono.BusyNodeSeconds != sharded.BusyNodeSeconds || mono.Stalled != sharded.Stalled {
			t.Errorf("seed %d: run shape diverged: makespan %d vs %d, busy %d vs %d, stalled %v vs %v",
				seed, mono.Makespan, sharded.Makespan, mono.BusyNodeSeconds, sharded.BusyNodeSeconds,
				mono.Stalled, sharded.Stalled)
		}
		monoStats := monoSched.ShardStatsSnapshot()
		if monoStats.Shards != 0 || monoStats.Cycles != 0 {
			t.Errorf("seed %d: monolithic run touched the shard machinery (shards=%d cycles=%d)",
				seed, monoStats.Shards, monoStats.Cycles)
		}
		shStats := shSched.ShardStatsSnapshot()
		if shStats.Shards != 1 {
			t.Errorf("seed %d: sharded run reports %d shards, want 1", seed, shStats.Shards)
		}
		shardCycles += shStats.Cycles
	}
	if shardCycles == 0 {
		t.Error("no sharded cycles across any instance; the parity property never exercised the shard path")
	}
	t.Logf("aggregate sharded cycles across %d instances: %d", instances, shardCycles)
}
