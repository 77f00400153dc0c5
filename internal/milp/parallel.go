package milp

import (
	"container/heap"
	"math"
	"sync"
	"time"
)

// Parallel branch-and-bound driver.
//
// runBatch shares the serial search's node/incumbent logic and runs
// synchronous rounds. Each round pops up to Workers nodes in best-bound order
// (ties broken by node creation sequence), evaluates their LPs concurrently,
// then applies the results in pop order. The explored tree and all tie-breaks
// are independent of goroutine scheduling, so repeated solves return
// byte-identical Values (absent wall-clock limits). Gap, time and node limits
// are checked between rounds.

// nodeResult is the outcome of evaluating one branch-and-bound node.
type nodeResult struct {
	node     *bbNode
	dead     bool        // infeasible, numerical trouble, or obj-pruned at solve time
	obj      float64     // LP objective of the node relaxation
	integral bool        // relaxation solved integral
	vals     []float64   // integral point (when integral)
	cand     []float64   // heuristic candidate to consider (may be nil)
	fracs    []fracVar   // fractional candidates (when !integral); branch selection
	snap     *basisState // node's optimal basis, shared by both children
}

// evalNode solves one node's LP relaxation on the worker's scratch and
// derives everything the shared-state apply step needs. It only reads search
// state that is fixed for the duration of the solve (model, p, opts,
// deadline) plus the caller's scratch, so a round's evaluations run
// concurrently.
// idx is the node's 1-based processing index, used for the heuristic cadence.
func (s *search) evalNode(node *bbNode, sc *simplexState, lbBuf, ubBuf []float64, idx int) nodeResult {
	copy(lbBuf, s.p.lb)
	copy(ubBuf, s.p.ub)
	for _, o := range node.overrides {
		if o.isUB {
			ubBuf[o.col] = math.Min(ubBuf[o.col], o.value)
		} else {
			lbBuf[o.col] = math.Max(lbBuf[o.col], o.value)
		}
	}
	st, x, err := s.solveNodeLP(sc, node, lbBuf, ubBuf)
	if err != nil || st != lpOptimal {
		// Infeasible, unbounded (impossible below a bounded root), iteration
		// limit, or numerical trouble: prune, as the serial loop does.
		return nodeResult{node: node, dead: true}
	}
	r := nodeResult{node: node, obj: s.model.ObjectiveValue(x[:len(s.model.Vars)])}
	if fr := firstFractional(s.model, x); fr < 0 {
		r.integral = true
		r.vals = roundIntegral(s.model, x[:len(s.model.Vars)])
		return r
	}
	// Snapshot before the heuristic dive: the dive solves on its own scratch,
	// but taking the basis now keeps the capture adjacent to the solve it
	// belongs to.
	r.snap = s.nodeSnapshot(sc)
	if s.opts.Heuristic != nil && idx%16 == 0 {
		if cand := s.opts.Heuristic(x[:len(s.model.Vars)]); cand != nil && s.model.IsFeasible(cand, 1e-6) {
			r.cand = cand
		}
	} else if s.opts.Heuristic == nil && idx%64 == 0 {
		if cand := diveFrom(s.model, s.p, lbBuf, ubBuf, x, s.deadline, !s.opts.DisableWarmStart, &sc.stats); cand != nil {
			r.cand = cand
		}
	}
	// Branch selection consults the shared pseudocost table, so it happens in
	// the in-order apply step; only the fractional candidates are captured
	// here, copied because x aliases the worker scratch.
	r.fracs = gatherFractional(s.model, x, nil)
	return r
}

// applyResult publishes one evaluated node into the shared search state:
// incumbent updates and child creation. runBatch applies results in pop
// order between rounds.
func (s *search) applyResult(r nodeResult) {
	if r.dead {
		return
	}
	s.noteBranchOutcome(r.node, r.obj)
	// Re-check against the possibly-improved incumbent: a result applied
	// earlier in this round may have published a better one.
	if s.incumbent != nil && !s.better(r.obj, s.incObj) {
		return
	}
	if r.integral {
		o := s.model.ObjectiveValue(r.vals)
		if s.incumbent == nil || s.better(o, s.incObj) {
			s.incumbent, s.incObj = r.vals, o
		}
		return
	}
	if r.cand != nil {
		if o := s.model.ObjectiveValue(r.cand); s.incumbent == nil || s.better(o, s.incObj) {
			s.incumbent, s.incObj = r.cand, o
		}
		if s.incumbent != nil && !s.better(r.obj, s.incObj) {
			return // the candidate itself closed this subtree
		}
	}
	bv, v := s.selectBranch(r.fracs)
	s.pushChildren(r.node, bv, v, r.obj, r.snap)
}

// runBatch is the deterministic driver: synchronous rounds of up to Workers
// nodes, popped in best-bound order with sequence tie-breaks, evaluated
// concurrently, applied in pop order.
func (s *search) runBatch() {
	lbBufs := make([][]float64, s.workers)
	ubBufs := make([][]float64, s.workers)
	scratches := make([]*simplexState, s.workers)
	for i := range lbBufs {
		lbBufs[i] = make([]float64, len(s.p.lb))
		ubBufs[i] = make([]float64, len(s.p.ub))
		scratches[i] = newScratch(s.p)
	}
	defer func() {
		for _, sc := range scratches {
			s.lp.add(&sc.stats)
		}
	}()
	batch := make([]*bbNode, 0, s.workers)
	idxs := make([]int, 0, s.workers)
	results := make([]nodeResult, s.workers)
	for s.h.Len() > 0 {
		if s.opts.MaxNodes > 0 && s.nodes >= s.opts.MaxNodes {
			break
		}
		if s.opts.TimeLimit > 0 && time.Since(s.start) > s.opts.TimeLimit {
			s.deadlineHit = true
			break
		}
		// Build this round's batch in deterministic best-bound order. The
		// gap test only applies to the first pop: it carries the global
		// bound, and stopping there matches the serial search.
		batch, idxs = batch[:0], idxs[:0]
		for len(batch) < s.workers && s.h.Len() > 0 {
			node := heap.Pop(s.h).(*bbNode)
			if len(batch) == 0 {
				s.bestBound = node.bound
			}
			if s.incumbent != nil && !s.better(node.bound, s.incObj) {
				continue // pruned by bound
			}
			if len(batch) == 0 && s.gapMet(node.bound) {
				s.gapBreak = true
				break
			}
			s.nodes++
			batch = append(batch, node)
			idxs = append(idxs, s.nodes)
		}
		if s.gapBreak {
			break
		}
		if len(batch) == 0 {
			continue
		}
		var wg sync.WaitGroup
		for i := range batch {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = s.evalNode(batch[i], scratches[i], lbBufs[i], ubBufs[i], idxs[i])
			}(i)
		}
		wg.Wait()
		for i := range batch {
			s.applyResult(results[i])
		}
	}
}
