package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"repro/api"
	"repro/internal/cnfenc"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/resilience"
	"repro/internal/witset"
)

// mirror is the pipeline depth of the traced replay: the engine's request
// path (engine.go, portfolio.go, weighted.go and api.MutateDB) rebuilt
// from public functions, one span per call into a layer. It mirrors the
// engine's caches — classifications by query, witness IRs by (database,
// version, query), component results by content fingerprint, IRs carried
// across a PATCH by delta maintenance — so each call it makes is one the
// server makes for the same op. Components are solved on a pool of the
// engine's size, min(GOMAXPROCS, 4), so spans of one op may overlap; a
// race's span is named after its winner and lasts until the winner
// returns.
//
// The mirror is a copy of engine logic kept in the benchmark, not the
// engine itself: a change to the engine's request path (its racer, kernel
// use, component pool or caches) must be copied here, or the witset,
// resilience and cnfenc times stop describing the program. Spans inside
// the program would replace it.
type mirror struct {
	dbs     map[string]*db.Database
	irs     map[string]*witset.Instance
	classes map[string]*core.Classification
	workers int

	mu    sync.Mutex // guards comps, which the component pool shares
	comps map[string]compResult
}

type compResult struct {
	size   int
	tuples []db.Tuple
}

func newMirror() *mirror {
	w := runtime.GOMAXPROCS(0)
	if w > 4 {
		w = 4
	}
	return &mirror{
		dbs: map[string]*db.Database{}, irs: map[string]*witset.Instance{},
		comps: map[string]compResult{}, classes: map[string]*core.Classification{}, workers: w,
	}
}

func irKey(name string, d *db.Database, q *cq.Query) string {
	return name + "@" + strconv.FormatUint(d.Version(), 10) + "/" + q.String()
}

// forget drops the cached IRs of a database name.
func (m *mirror) forget(name string) {
	for k := range m.irs {
		if len(k) > len(name) && k[:len(name)+1] == name+"@" {
			delete(m.irs, k)
		}
	}
}

func (m *mirror) register(c tctx, name string, facts []string) error {
	d, err := timed(c, "db.build", func() (*db.Database, error) { return buildDB(facts) })
	if err != nil {
		return err
	}
	m.forget(name)
	m.dbs[name] = d
	return nil
}

// do runs one op through the mirrored pipeline.
func (m *mirror) do(ctx context.Context, c tctx, in *Inputs, op *Op) error {
	switch op.Kind {
	case opPut:
		return m.register(c, op.DB, in.Pool[op.Ref].Facts)
	case opPatch:
		return m.mutate(ctx, c, op)
	}
	q, err := timed(c, "cq.parse", func() (*cq.Query, error) { return cq.Parse(op.Query) })
	if err != nil {
		return err
	}
	if op.Kind == opClassify {
		// The classify task calls the classifier directly, uncached.
		_, err := timed(c, "core.classify", func() (*core.Classification, error) { return core.Classify(q), nil })
		return err
	}
	d := m.dbs[op.DB]
	if d == nil {
		return fmt.Errorf("no database %q", op.DB)
	}
	switch op.Kind {
	case opSolve:
		cl := m.classes[op.Query]
		if cl == nil {
			cl, _ = timed(c, "core.classify", func() (*core.Classification, error) { return core.Classify(q), nil })
			m.classes[op.Query] = cl
		}
		_, err = resilience.SolveClassifiedWith(ctx, cl, d, func(ctx context.Context, cl *core.Classification, d *db.Database) (*resilience.Result, error) {
			return m.component(ctx, c, op.DB, cl, d)
		})
		if errors.Is(err, resilience.ErrUnbreakable) {
			err = nil
		}
		return err
	case opWSolve:
		return m.weighted(ctx, c, op, q, d)
	case opResp:
		inst, err := m.ir(ctx, c, op.DB, q, d)
		if err != nil {
			return err
		}
		t, aerr := api.LookupTuple(d, op.Tuple)
		if aerr != nil {
			return aerr
		}
		_, err = timed(c, "resilience.responsibility", func() (int, error) {
			k, _, err := resilience.ResponsibilityOnInstance(ctx, inst, d, t)
			if errors.Is(err, resilience.ErrNotCounterfactual) {
				err = nil
			}
			return k, err
		})
		return err
	case opTopK:
		inst, err := m.ir(ctx, c, op.DB, q, d)
		if err != nil {
			return err
		}
		_, err = timed(c, "resilience.topk", func() ([]resilience.RankedTuple, error) {
			return resilience.TopKResponsibilityOnInstance(ctx, inst, d, op.K)
		})
		return err
	}
	return fmt.Errorf("unknown op kind %q", op.Kind)
}

// ir returns the witness IR of (q, d), building it on a miss.
func (m *mirror) ir(ctx context.Context, c tctx, name string, q *cq.Query, d *db.Database) (*witset.Instance, error) {
	key := irKey(name, d, q)
	if inst := m.irs[key]; inst != nil {
		return inst, nil
	}
	inst, err := timed(c, "witset.build", func() (*witset.Instance, error) {
		inst, _, err := witset.BuildWith(ctx, q, d, witset.BuildOptions{Workers: m.workers})
		return inst, err
	})
	if err != nil {
		return nil, err
	}
	m.irs[key] = inst
	return inst, nil
}

// component mirrors engine.solveComponent: PTIME components go to their
// routed solver (on a private clone for perm3-flow, which deletes tuples
// while it runs), exact ones through the IR, decompose, kernelize and race.
func (m *mirror) component(ctx context.Context, c tctx, name string, cl *core.Classification, d *db.Database) (*resilience.Result, error) {
	if cl.Algorithm != core.AlgExact {
		if cl.Algorithm == core.AlgPerm3Flow {
			d, _ = timed(c, "db.clone", func() (*db.Database, error) { return d.Clone(), nil })
		}
		// Probe: the witnesses the PTIME solver works over, enumerated on
		// their own so eval's share shows (left out of the self-time sums).
		timed(c, "eval.enumerate", func() (int, error) { return eval.CountWitnesses(cl.Normalized, d), nil }) //nolint:errcheck // never fails
		return timed(c, "resilience.ptime."+cl.Algorithm.String(), func() (*resilience.Result, error) {
			return resilience.SolveClassifiedCtx(ctx, cl, d)
		})
	}
	inst, err := m.ir(ctx, c, name, cl.Normalized, d)
	if err != nil {
		return nil, err
	}
	if inst.Unbreakable() {
		return nil, resilience.ErrUnbreakable
	}
	if inst.NumWitnesses() == 0 {
		return &resilience.Result{}, nil
	}
	comps, _ := timed(c, "witset.decompose", func() ([]*witset.Component, error) { return inst.Components(), nil })
	sizes := make([]int, len(comps))
	err = m.pool(ctx, len(comps), func(ctx context.Context, i int) error {
		comp := comps[i]
		key, _ := timed(c, "witset.fingerprint", func() (string, error) { return inst.ComponentKey(comp), nil })
		m.mu.Lock()
		hit, ok := m.comps[key]
		m.mu.Unlock()
		if ok {
			sizes[i] = hit.size
			return nil
		}
		kern, err := timed(c, "witset.kernelize", func() (*witset.Kernel, error) { return witset.KernelizeCtx(ctx, comp.Fam) })
		if err != nil {
			return err
		}
		out := compResult{size: len(kern.Forced), tuples: inst.TupleSet(comp.ToGlobal(kern.Forced))}
		subs, _ := timed(c, "witset.decompose", func() ([]*witset.Component, error) { return kern.Components(), nil })
		for _, sub := range subs {
			size, local, err := race(ctx, c, "resilience.bnb",
				func(ctx context.Context) (int64, []int32, error) {
					n, ids, err := resilience.SolveFamily(ctx, sub.Fam, -1)
					return int64(n), ids, err
				},
				func(ctx context.Context) (int64, []int32, error) {
					n, ids, err := satSearch(ctx, sub.Fam)
					return int64(n), ids, err
				})
			if err != nil {
				return err
			}
			out.size += int(size)
			out.tuples = append(out.tuples, inst.TupleSet(comp.ToGlobal(sub.ToGlobal(local)))...)
		}
		m.mu.Lock()
		m.comps[key] = out
		m.mu.Unlock()
		sizes[i] = out.size
		return nil
	})
	if err != nil {
		return nil, err
	}
	rho := 0
	for _, n := range sizes {
		rho += n
	}
	return &resilience.Result{Rho: rho}, nil
}

// pool runs fn(0..n-1) on min(n, m.workers) goroutines, as the engine's
// component pool does, cancelling the rest after the first error.
func (m *mirror) pool(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	workers := min(n, m.workers)
	idx := make(chan int)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := fn(ctx, i); err != nil {
					errs <- err
					cancel()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	close(errs)
	return <-errs
}

// weighted mirrors api's weighted solve: the cached IR re-weighted, then
// engine.SolveWeightedInstance (decompose, then kernelize and race each
// component on the pool; no component cache).
func (m *mirror) weighted(ctx context.Context, c tctx, op *Op, q *cq.Query, d *db.Database) error {
	base, err := m.ir(ctx, c, op.DB, q, d)
	if err != nil {
		return err
	}
	inst, err := timed(c, "witset.weights", func() (*witset.Instance, error) { return weightedInstance(base, d, op.Weights) })
	if err != nil {
		return err
	}
	if inst.Unbreakable() || inst.NumWitnesses() == 0 {
		return nil
	}
	comps, _ := timed(c, "witset.decompose", func() ([]*witset.Component, error) { return inst.Components(), nil })
	return m.pool(ctx, len(comps), func(ctx context.Context, i int) error {
		kern, err := timed(c, "witset.kernelize", func() (*witset.Kernel, error) { return witset.KernelizeCtx(ctx, comps[i].Fam) })
		if err != nil {
			return err
		}
		subs, _ := timed(c, "witset.decompose", func() ([]*witset.Component, error) { return kern.Components(), nil })
		for _, sub := range subs {
			if _, _, err := race(ctx, c, "resilience.bnb_weighted",
				func(ctx context.Context) (int64, []int32, error) {
					return resilience.SolveFamilyWeighted(ctx, sub.Fam, -1)
				},
				func(ctx context.Context) (int64, []int32, error) { return weightedSATSearch(ctx, sub.Fam) },
			); err != nil {
				return err
			}
		}
		return nil
	})
}

// race runs the branch-and-bound and SAT searches concurrently and keeps
// the first to succeed, as the engine's portfolio does. The span is named
// after the winner; a SAT search that declines (weighted counter too
// wide) leaves the race to branch-and-bound.
func race(ctx context.Context, c tctx, bnbName string, bnb, sat func(context.Context) (int64, []int32, error)) (int64, []int32, error) {
	begin := c.t.now()
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type out struct {
		v   int64
		ids []int32
		sat bool
		err error
	}
	ch := make(chan out, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); v, ids, err := bnb(rctx); ch <- out{v, ids, false, err} }()
	go func() { defer wg.Done(); v, ids, err := sat(rctx); ch <- out{v, ids, true, err} }()
	var win *out
	var firstErr error
	for i := 0; i < 2 && win == nil; i++ {
		o := <-ch
		switch {
		case o.err == nil:
			win = &o
		case errors.Is(o.err, cnfenc.ErrWidthTooLarge):
		case firstErr == nil:
			firstErr = o.err
		}
	}
	end := c.t.now()
	cancel()
	wg.Wait()
	if win == nil {
		return 0, nil, firstErr
	}
	name := bnbName
	if win.sat {
		name = "cnfenc.sat_search"
	}
	c.t.record(span{Op: c.op, ID: c.t.ids.Add(1), Parent: c.parent, Name: name, Start: begin, End: end})
	return win.v, win.ids, nil
}

// satSearch is the engine's SAT racer: binary search on the budget over
// one incremental CNF encoding, seeded by a greedy cover.
func satSearch(ctx context.Context, fam *witset.Family) (int, []int32, error) {
	ids := witset.GreedyHittingSet(fam)
	best := len(ids)
	lo, hi := 1, best-1
	if lo > hi {
		return best, ids, nil
	}
	inc := cnfenc.NewIncrementalSolver(fam, hi)
	for lo <= hi {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		mid := lo + (hi-lo)/2
		assign, ok, err := inc.SolveBudget(ctx, mid)
		if err != nil {
			return 0, nil, err
		}
		if ok {
			best, ids = mid, inc.Chosen(assign)
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	return best, ids, nil
}

// weightedSATSearch is the engine's weighted SAT racer: costs divided by
// their gcd, then binary search on the total-cost budget.
func weightedSATSearch(ctx context.Context, fam *witset.Family) (int64, []int32, error) {
	if fam.W == nil {
		n, ids, err := satSearch(ctx, fam)
		return int64(n), ids, err
	}
	g := int64(0)
	for e, occ := range fam.Occ {
		if len(occ) > 0 {
			g = gcd(g, fam.W[e])
		}
	}
	if g == 0 {
		g = 1
	}
	nf := *fam
	nf.W = make([]int64, fam.N)
	for e := range nf.W {
		nf.W[e] = 1
		if len(fam.Occ[e]) > 0 {
			nf.W[e] = fam.W[e] / g
		}
	}
	ids := witset.GreedyHittingSetWeighted(&nf)
	best := int64(0)
	for _, e := range ids {
		best += nf.W[e]
	}
	lo, hi := int64(1), best-1
	if lo > hi {
		return best * g, ids, nil
	}
	inc, err := cnfenc.NewWeightedIncrementalSolver(&nf, hi)
	if err != nil {
		return 0, nil, err
	}
	for lo <= hi {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		mid := lo + (hi-lo)/2
		assign, ok, err := inc.SolveBudget(ctx, mid)
		if err != nil {
			return 0, nil, err
		}
		if ok {
			best, ids = inc.Cost(assign), inc.Chosen(assign)
			hi = best - 1
		} else {
			lo = mid + 1
		}
	}
	return best * g, ids, nil
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// mutate mirrors api.MutateDB and engine.MigrateIRs: clone, apply, freeze,
// then carry each cached IR across the batch by delta maintenance.
func (m *mirror) mutate(ctx context.Context, c tctx, op *Op) error {
	old := m.dbs[op.DB]
	if old == nil {
		return fmt.Errorf("no database %q", op.DB)
	}
	next, _ := timed(c, "db.clone", func() (*db.Database, error) { return old.Clone(), nil })
	resolved := make([]witset.Mutation, 0, len(op.Muts))
	for _, mu := range op.Muts {
		rel, args, err := api.ParseFact(mu.Fact)
		if err != nil {
			return err
		}
		t := db.Tuple{Rel: rel, Arity: uint8(len(args))}
		for j, a := range args {
			t.Args[j] = next.Const(a)
		}
		if mu.Op == api.MutationInsert {
			next.AddTuple(t)
		} else {
			next.Remove(t)
		}
		resolved = append(resolved, witset.Mutation{Insert: mu.Op == api.MutationInsert, Tuple: t})
	}
	next.Freeze()
	prefix := op.DB + "@" + strconv.FormatUint(old.Version(), 10) + "/"
	for k, inst := range m.irs {
		if len(k) < len(prefix) || k[:len(prefix)] != prefix {
			continue
		}
		work, _ := timed(c, "db.clone", func() (*db.Database, error) { return old.Clone(), nil })
		for v := work.NumConsts(); v < next.NumConsts(); v++ {
			work.Const(next.ConstName(db.Value(v)))
		}
		migrated, err := timed(c, "witset.apply_delta", func() (*witset.Instance, error) {
			inst, _, err := witset.ApplyDelta(ctx, inst, work, resolved)
			return inst, err
		})
		if err == nil {
			m.irs[irKey(op.DB, next, inst.Query())] = migrated
		}
	}
	m.forgetVersion(prefix)
	m.dbs[op.DB] = next
	return nil
}

func (m *mirror) forgetVersion(prefix string) {
	for k := range m.irs {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			delete(m.irs, k)
		}
	}
}
