package main

import (
	"fmt"
	"os"
	"time"
)

// runSelftest checks what the measuring runs rely on:
//   - two runs of each workload give identical outcomes and counts;
//   - the daemon's per-job outcomes equal an in-process sim.Run of the same
//     trace;
//   - the host-speed guard fails a run whose solver reaches its limit.
func runSelftest() bool {
	ok := true
	report := func(pass bool, format string, args ...interface{}) {
		verdict := "ok  "
		if !pass {
			verdict, ok = "FAIL", false
		}
		fmt.Printf("%s %s\n", verdict, fmt.Sprintf(format, args...))
	}
	run := func(sp *spec, o options) *outcome {
		out, err := once(sp, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		for _, e := range out.errs {
			fmt.Printf("     %s: %s\n", sp.name, e)
		}
		return out
	}
	for _, sp := range specs {
		a := run(sp, options{})
		b := run(sp, options{})
		report(a.ok() && b.ok(), "%s: both runs correct (%d jobs, %d cycles, no limit hits)", sp.name, a.jobs, a.coreCalls)
		report(agree(a, b),
			"%s: identical outcomes and counts (SLO %.1f%%, BE %.2f s, %d B&B nodes, %d factorizations, %d LP iterations, %d conflicts, %d expression-cache hits, %d requests)",
			sp.name, a.slo, a.beLatency, a.c.bbNodes, a.c.factorizations, a.c.lpIters, a.c.conflicts, a.c.exprHits, a.requests)
		if sp.daemon {
			ref := run(sp, options{inProcess: true})
			report(ref.ok() && ref.jobDigest == a.jobDigest,
				"%s: per-job outcomes equal an in-process sim.Run of the same trace (wall %.2f s through the daemon, %.2f s in-process)",
				sp.name, seconds(a.wall), seconds(ref.wall))
		}
	}
	g := run(specs[0], options{limit: time.Second})
	report(!g.ok() && g.limitHits > 0,
		"%s: a 1 s solver limit is reached (%d cycles) and fails the run", specs[0].name, g.limitHits)
	return ok
}
