package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/api"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/resilience"
	"repro/internal/witset"
)

// checker verifies answers after the timed loop, against references
// computed here rather than by the server:
//
//   - ptime_scale: ρ equals the PTIME library solver run directly, which is
//     itself checked against exact branch-and-bound on shrunk instances of
//     every family;
//   - np_cold: ρ, ρ_w and responsibilities equal resilience.ExactOnInstance,
//     SolveWeightedOnInstance and ResponsibilityOnInstance on the uploaded
//     database;
//   - live_mixed: the mutation log the PATCH replies acknowledged is replayed
//     into a model, and each answer must match the model at a version the
//     read could have seen.
//
// Every contingency set must be valid (resilience.VerifyContingency) with
// |Γ| = ρ (or its cost = ρ_w). A wrong answer marks its record.
type checker struct {
	w   *Workload
	in  *Inputs
	st  *stack
	err error // a reference could not be computed, or failed its own check
}

func newChecker(w *Workload, in *Inputs, st *stack) *checker {
	return &checker{w: w, in: in, st: st}
}

// check marks wrong records and returns how many there are.
func (c *checker) check(recs []record) int {
	switch c.w.Name {
	case "ptime_scale":
		c.checkPTime(recs)
	case "np_cold":
		c.checkNPCold(recs)
	case "live_mixed":
		c.checkLive(recs)
	}
	wrong := 0
	for i := range recs {
		if recs[i].wrong != "" {
			wrong++
		}
	}
	return wrong
}

// buildDB parses facts the way the server does, and freezes the result.
func buildDB(facts []string) (*db.Database, error) {
	d := db.New()
	for _, f := range facts {
		rel, args, err := api.ParseFact(f)
		if err != nil {
			return nil, err
		}
		d.AddNames(rel, args...)
	}
	d.Freeze()
	return d, nil
}

func lookupAll(d *db.Database, facts []string) ([]db.Tuple, error) {
	out := make([]db.Tuple, 0, len(facts))
	for _, f := range facts {
		t, aerr := api.LookupTuple(d, f)
		if aerr != nil {
			return nil, aerr
		}
		out = append(out, t)
	}
	return out, nil
}

// verifyGamma checks that gamma (fact strings) is a contingency set on d,
// whose witness IR is inst, and returns its size and total cost under
// weights.
func verifyGamma(inst *witset.Instance, d *db.Database, gamma []string, weights map[string]int64) (int, int64, error) {
	ts, err := lookupAll(d, gamma)
	if err != nil {
		return 0, 0, err
	}
	if err := resilience.VerifyContingencyOnInstance(inst, d, ts); err != nil {
		return 0, 0, err
	}
	cost := int64(0)
	for _, f := range gamma {
		if w, ok := weights[f]; ok {
			cost += w
		} else {
			cost++
		}
	}
	return len(ts), cost, nil
}

// checkResponsibility checks a responsibility answer (k, gamma) for tuple
// t: gamma ∪ {t} falsifies the query, gamma alone does not, and
// |gamma| = k.
func checkResponsibility(inst *witset.Instance, d *db.Database, t string, k int, gamma []string) error {
	if len(gamma) != k {
		return fmt.Errorf("|Γ| = %d, want K = %d", len(gamma), k)
	}
	if _, _, err := verifyGamma(inst, d, append(append([]string(nil), gamma...), t), nil); err != nil {
		return fmt.Errorf("Γ ∪ {t}: %v", err)
	}
	if _, _, err := verifyGamma(inst, d, gamma, nil); err == nil {
		return errors.New("Γ alone falsifies the query")
	}
	return nil
}

// ---- ptime_scale ----

func (c *checker) checkPTime(recs []record) {
	ctx := context.Background()
	// Shrunk instances: the routed PTIME solver must agree with exact
	// branch-and-bound on small members of every family.
	rng := rand.New(rand.NewSource(7))
	for _, f := range ptimeFamilies {
		q := cq.MustParse(f.query)
		for i := 0; i < 3; i++ {
			small := f.gen(rng, 0)
			small.Freeze()
			routed, cl, err := resilience.SolveCtx(ctx, q, small.Clone())
			exact, eerr := resilience.ExactCtx(ctx, q, small.Clone(), -1)
			switch {
			case cl.Algorithm == core.AlgExact:
				c.err = fmt.Errorf("%s: classified exact, not PTIME", f.name)
			case errors.Is(err, resilience.ErrUnbreakable) != errors.Is(eerr, resilience.ErrUnbreakable):
				c.err = fmt.Errorf("%s shrunk: routed/exact unbreakable disagree (%v / %v)", f.name, err, eerr)
			case err != nil && !errors.Is(err, resilience.ErrUnbreakable):
				c.err = fmt.Errorf("%s shrunk: %v", f.name, err)
			case eerr != nil && !errors.Is(eerr, resilience.ErrUnbreakable):
				c.err = fmt.Errorf("%s shrunk exact: %v", f.name, eerr)
			case err == nil && routed.Rho != exact.Rho:
				c.err = fmt.Errorf("%s shrunk: routed ρ=%d, exact ρ=%d", f.name, routed.Rho, exact.Rho)
			}
		}
	}
	type ref struct {
		inst *witset.Instance
		d    *db.Database
		rho  int
		ok   map[string]bool // contingency sets already verified
	}
	refs := make([]*ref, len(c.in.DBs))
	for i, spec := range c.in.DBs {
		d, err := buildDB(spec.Facts)
		if err != nil {
			c.err = err
			return
		}
		q := cq.MustParse(spec.Query)
		res, _, err := resilience.SolveCtx(ctx, q, d.Clone())
		if err != nil {
			c.err = fmt.Errorf("reference solve of %s: %v", spec.Name, err)
			return
		}
		inst, err := witset.Build(ctx, q, d, nil)
		if err != nil {
			c.err = err
			return
		}
		refs[i] = &ref{inst: inst, d: d, rho: res.Rho, ok: map[string]bool{}}
	}
	for i := range recs {
		r := &recs[i]
		if r.err != nil {
			continue
		}
		rf := refs[r.op.Ref]
		if r.ans.Rho != rf.rho || r.ans.Unbreakable {
			r.wrong = fmt.Sprintf("ρ=%d, reference %d", r.ans.Rho, rf.rho)
			continue
		}
		key := r.ans.Contingency
		if rf.ok[key] {
			continue
		}
		n, _, err := verifyGamma(rf.inst, rf.d, facts(r.ans.Contingency), nil)
		switch {
		case err != nil:
			r.wrong = err.Error()
		case n != rf.rho:
			r.wrong = fmt.Sprintf("|Γ|=%d, ρ=%d", n, rf.rho)
		default:
			rf.ok[key] = true
		}
	}
}

// ---- np_cold ----

func (c *checker) checkNPCold(recs []record) {
	var tasks []*record
	for i := range recs {
		r := &recs[i]
		if r.err != nil {
			continue
		}
		if r.op.Kind == opPut {
			if want := len(c.in.Pool[r.op.Ref].Facts); r.ans.Tuples != want {
				r.wrong = fmt.Sprintf("PUT: %d tuples, want %d", r.ans.Tuples, want)
			}
			continue
		}
		tasks = append(tasks, r)
	}
	// Top-k completeness (no unlisted tuple is more responsible) needs
	// every tuple's responsibility; it is checked on the first answers.
	const completeTopK = 16
	full := map[*record]bool{}
	for _, r := range tasks {
		if r.op.Kind == opTopK && len(full) < completeTopK {
			full[r] = true
		}
	}
	var wg sync.WaitGroup
	next := make(chan *record)
	for g := 0; g < gomaxprocs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				if err := c.checkColdTask(r, full[r]); err != nil {
					r.wrong = err.Error()
				}
			}
		}()
	}
	for _, r := range tasks {
		next <- r
	}
	close(next)
	wg.Wait()
}

func (c *checker) checkColdTask(r *record, full bool) error {
	ctx := context.Background()
	spec := c.in.Pool[r.op.Ref]
	d, err := buildDB(spec.Facts)
	if err != nil {
		return err
	}
	q := cq.MustParse(spec.Query)
	inst, err := witset.Build(ctx, q, d, nil)
	if err != nil {
		return err
	}
	res := &r.ans
	switch r.op.Kind {
	case opSolve:
		ref, err := resilience.ExactOnInstance(ctx, inst, -1)
		if err != nil {
			return err
		}
		if res.Rho != ref.Rho {
			return fmt.Errorf("ρ=%d, exact %d", res.Rho, ref.Rho)
		}
		n, _, err := verifyGamma(inst, d, facts(res.Contingency), nil)
		if err != nil {
			return err
		}
		if n != ref.Rho {
			return fmt.Errorf("|Γ|=%d, ρ=%d", n, ref.Rho)
		}
	case opWSolve:
		winst, err := weightedInstance(inst, d, spec.Weights)
		if err != nil {
			return err
		}
		ref, err := resilience.SolveWeightedOnInstance(ctx, winst, -1)
		if err != nil {
			return err
		}
		if res.Cost != ref.Cost {
			return fmt.Errorf("ρ_w=%d, exact %d", res.Cost, ref.Cost)
		}
		_, cost, err := verifyGamma(inst, d, facts(res.Contingency), spec.Weights)
		if err != nil {
			return err
		}
		if cost != ref.Cost {
			return fmt.Errorf("cost(Γ)=%d, ρ_w=%d", cost, ref.Cost)
		}
	case opResp:
		return checkRespAnswer(ctx, d, inst, r.op.Tuple, res.K, res.NotCounterfactual, facts(res.Contingency))
	case opTopK:
		return checkTopK(ctx, d, inst, res.Ranked, r.op.K, full)
	}
	return nil
}

func weightedInstance(inst *witset.Instance, d *db.Database, weights map[string]int64) (*witset.Instance, error) {
	wv := make([]int64, inst.NumTuples())
	for i := range wv {
		wv[i] = 1
	}
	for f, w := range weights {
		t, aerr := api.LookupTuple(d, f)
		if aerr != nil {
			return nil, aerr
		}
		if id, ok := inst.ID(t); ok {
			wv[id] = w
		}
	}
	return inst.WithWeights(wv)
}

func checkRespAnswer(ctx context.Context, d *db.Database, inst *witset.Instance, tuple string, k int, notCF bool, gamma []string) error {
	t, aerr := api.LookupTuple(d, tuple)
	if aerr != nil {
		return aerr
	}
	ref, _, err := resilience.ResponsibilityOnInstance(ctx, inst, d, t)
	if errors.Is(err, resilience.ErrNotCounterfactual) {
		if !notCF {
			return errors.New("answered a responsibility; reference: not counterfactual")
		}
		return nil
	}
	if err != nil {
		return err
	}
	if notCF || k != ref {
		return fmt.Errorf("K=%d (not counterfactual: %v), reference %d", k, notCF, ref)
	}
	return checkResponsibility(inst, d, tuple, k, gamma)
}

// checkTopK checks each ranked entry against the reference
// responsibility, the ranking order, and with full also that the k
// smallest responsibilities of all tuples are exactly the listed ones.
func checkTopK(ctx context.Context, d *db.Database, inst *witset.Instance, ranked []rankedAnswer, k int, full bool) error {
	var prev int64 = -1
	for _, e := range ranked {
		if err := checkRespAnswer(ctx, d, inst, e.Tuple, int(e.K), false, facts(e.Contingency)); err != nil {
			return fmt.Errorf("rank %d %s: %v", e.Rank, e.Tuple, err)
		}
		if e.K < prev {
			return fmt.Errorf("rank %d: K=%d after K=%d", e.Rank, e.K, prev)
		}
		prev = e.K
	}
	if !full {
		return nil
	}
	var all []int64
	for _, t := range inst.Tuples() {
		ref, _, err := resilience.ResponsibilityOnInstance(ctx, inst, d, t)
		if errors.Is(err, resilience.ErrNotCounterfactual) {
			continue
		}
		if err != nil {
			return err
		}
		all = append(all, int64(ref))
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) > k {
		all = all[:k]
	}
	if len(all) != len(ranked) {
		return fmt.Errorf("%d ranked, want %d", len(ranked), len(all))
	}
	for i, e := range ranked {
		if e.K != all[i] {
			return fmt.Errorf("rank %d: K=%d, the %d-th smallest responsibility is %d", e.Rank, e.K, i+1, all[i])
		}
	}
	return nil
}

// ---- live_mixed ----

// clusterOf returns the live_mixed cluster of a fact: its first constant
// cI lies in cluster I/size (clusters use disjoint constant pools).
func clusterOf(fact string, size int) (int, error) {
	open := strings.IndexByte(fact, '(')
	end := strings.IndexAny(fact[open+1:], ",)")
	if open < 0 || end < 0 || fact[open+1] != 'c' {
		return 0, fmt.Errorf("unexpected fact %q", fact)
	}
	n, err := strconv.Atoi(fact[open+2 : open+1+end])
	if err != nil {
		return 0, fmt.Errorf("unexpected fact %q", fact)
	}
	return n / size, nil
}

// clusterRef holds the reference answers of one cluster's contents.
type clusterRef struct {
	d     *db.Database
	inst  *witset.Instance
	rho   int
	wcost int64
	// local responsibilities, by fact; -1 = not counterfactual.
	resp map[string]int
}

// liveModel replays acknowledged PATCHes into per-version models.
type liveModel struct {
	q        *cq.Query
	size     int
	weights  map[string]int64
	refs     map[string]*clusterRef // by cluster content key
	versions map[uint64][]string    // cluster content keys at each version
	facts    map[uint64][]string    // full contents, at versions a check needs
	states   map[uint64]versionState
	maxV     uint64
}

// versionState is the model database at one version and its witness IR.
type versionState struct {
	d    *db.Database
	inst *witset.Instance
}

func clusterKey(facts []string) string { return strings.Join(facts, " ") }

func (c *checker) checkLive(recs []record) {
	spec := c.in.DBs[0]
	m := &liveModel{
		q: cq.MustParse(spec.Query), size: c.in.ClusterSize, weights: spec.Weights,
		refs: map[string]*clusterRef{}, versions: map[uint64][]string{},
		facts: map[uint64][]string{}, states: map[uint64]versionState{},
	}
	base := c.st.base[spec.Name]
	// The acknowledged log: version → mutation, which must be gapless.
	log := map[uint64]api.Mutation{}
	for i := range recs {
		r := &recs[i]
		if r.op.Kind != opPatch || r.err != nil {
			continue
		}
		if _, dup := log[r.ans.Version]; dup {
			r.wrong = fmt.Sprintf("version %d acknowledged twice", r.ans.Version)
		}
		log[r.ans.Version] = r.op.Muts[0]
	}
	present := map[string]bool{}
	for _, f := range spec.Facts {
		present[f] = true
	}
	clusters := make([][]string, 0)
	rebuild := func(ci int) {
		var fs []string
		for f := range present {
			if k, _ := clusterOf(f, m.size); k == ci {
				fs = append(fs, f)
			}
		}
		sort.Strings(fs)
		for len(clusters) <= ci {
			clusters = append(clusters, nil)
		}
		clusters[ci] = fs
	}
	for ci := 0; ci < liveClusters; ci++ {
		rebuild(ci)
	}
	keys := func() []string {
		out := make([]string, len(clusters))
		for i, fs := range clusters {
			out[i] = clusterKey(fs)
		}
		return out
	}
	// Which versions do reads need the full contents of?
	need := map[uint64]bool{}
	for i := range recs {
		r := &recs[i]
		if r.err == nil && !isWrite(r.op.Kind) && r.op.DB != "" {
			for v := r.lo; v <= r.hi && v <= base+uint64(len(log)); v++ {
				need[v] = true
			}
		}
	}
	snap := func(v uint64) {
		m.versions[v] = keys()
		if need[v] {
			var all []string
			for _, fs := range clusters {
				all = append(all, fs...)
			}
			m.facts[v] = all
		}
	}
	snap(base)
	m.maxV = base
	for v := base + 1; ; v++ {
		mut, ok := log[v]
		if !ok {
			break
		}
		if mut.Op == api.MutationDelete {
			delete(present, mut.Fact)
		} else {
			present[mut.Fact] = true
		}
		ci, err := clusterOf(mut.Fact, m.size)
		if err != nil {
			c.err = err
			return
		}
		rebuild(ci)
		snap(v)
		m.maxV = v
	}
	if want := base + uint64(len(log)); m.maxV != want {
		c.err = fmt.Errorf("acknowledged versions have a gap: reached %d of %d", m.maxV, want)
		return
	}
	// Reads in version order, so model states of versions no later read
	// can see are dropped as the check moves on.
	var reads []*record
	for i := range recs {
		if r := &recs[i]; r.err == nil && !isWrite(r.op.Kind) {
			reads = append(reads, r)
		}
	}
	sort.SliceStable(reads, func(i, j int) bool { return reads[i].lo < reads[j].lo })
	refClass := map[string]*core.Classification{}
	low := base
	for _, r := range reads {
		for ; low < r.lo; low++ {
			delete(m.states, low)
			delete(m.facts, low)
		}
		if r.op.Kind == opClassify {
			cl := refClass[r.op.Query]
			if cl == nil {
				cl = core.Classify(cq.MustParse(r.op.Query))
				refClass[r.op.Query] = cl
			}
			if r.ans.Verdict != cl.Verdict.String() || r.ans.Algorithm != cl.Algorithm.String() || r.ans.Normalized != cl.Normalized.String() {
				r.wrong = fmt.Sprintf("classified %s/%s, reference %s/%s", r.ans.Verdict, r.ans.Algorithm, cl.Verdict, cl.Algorithm)
			}
			continue
		}
		hi := r.hi
		if hi > m.maxV {
			hi = m.maxV
		}
		var why []string
		for v := r.lo; v <= hi; v++ {
			err := m.checkAt(r, v)
			if err == nil {
				why = nil
				break
			}
			why = append(why, fmt.Sprintf("v%d: %v", v, err))
		}
		if len(why) > 0 {
			r.wrong = strings.Join(why, "; ")
		}
	}
}

func (m *liveModel) cluster(key string) (*clusterRef, error) {
	if cr := m.refs[key]; cr != nil {
		return cr, nil
	}
	ctx := context.Background()
	var facts []string
	if key != "" {
		facts = strings.Split(key, " ")
	}
	d, err := buildDB(facts)
	if err != nil {
		return nil, err
	}
	inst, err := witset.Build(ctx, m.q, d, nil)
	if err != nil {
		return nil, err
	}
	res, err := resilience.ExactOnInstance(ctx, inst, -1)
	if err != nil {
		return nil, err
	}
	w := map[string]int64{}
	for _, f := range facts {
		if x, ok := m.weights[f]; ok {
			w[f] = x
		}
	}
	winst, err := weightedInstance(inst, d, w)
	if err != nil {
		return nil, err
	}
	wres, err := resilience.SolveWeightedOnInstance(ctx, winst, -1)
	if err != nil {
		return nil, err
	}
	cr := &clusterRef{d: d, inst: inst, rho: res.Rho, wcost: wres.Cost, resp: map[string]int{}}
	m.refs[key] = cr
	return cr, nil
}

// localResp is fact's responsibility within its own cluster (-1: not
// counterfactual). With disjoint clusters the global responsibility is
// this plus ρ of every other cluster.
func (m *liveModel) localResp(cr *clusterRef, fact string) (int, error) {
	if k, ok := cr.resp[fact]; ok {
		return k, nil
	}
	t, aerr := api.LookupTuple(cr.d, fact)
	if aerr != nil {
		return 0, aerr
	}
	k, _, err := resilience.ResponsibilityOnInstance(context.Background(), cr.inst, cr.d, t)
	if errors.Is(err, resilience.ErrNotCounterfactual) {
		k, err = -1, nil
	}
	if err != nil {
		return 0, err
	}
	cr.resp[fact] = k
	return k, nil
}

func (m *liveModel) at(v uint64) (versionState, error) {
	if st, ok := m.states[v]; ok {
		return st, nil
	}
	d, err := buildDB(m.facts[v])
	if err != nil {
		return versionState{}, err
	}
	inst, err := witset.Build(context.Background(), m.q, d, nil)
	if err != nil {
		return versionState{}, err
	}
	st := versionState{d: d, inst: inst}
	m.states[v] = st
	return st, nil
}

// globalResp is fact's responsibility at version v (-1: not
// counterfactual).
func (m *liveModel) globalResp(v uint64, fact string) (int, error) {
	ci, err := clusterOf(fact, m.size)
	if err != nil {
		return 0, err
	}
	keys := m.versions[v]
	total := 0
	local := 0
	for i, key := range keys {
		cr, err := m.cluster(key)
		if err != nil {
			return 0, err
		}
		if i == ci {
			if local, err = m.localResp(cr, fact); err != nil {
				return 0, err
			}
			continue
		}
		total += cr.rho
	}
	if local < 0 {
		return -1, nil
	}
	return total + local, nil
}

// checkAt checks a read answer against the model at version v.
func (m *liveModel) checkAt(r *record, v uint64) error {
	keys := m.versions[v]
	rho, wcost := 0, int64(0)
	for _, key := range keys {
		cr, err := m.cluster(key)
		if err != nil {
			return err
		}
		rho += cr.rho
		wcost += cr.wcost
	}
	st, err := m.at(v)
	if err != nil {
		return err
	}
	res := &r.ans
	switch r.op.Kind {
	case opSolve:
		if res.Rho != rho {
			return fmt.Errorf("ρ=%d, model %d", res.Rho, rho)
		}
		n, _, err := verifyGamma(st.inst, st.d, facts(res.Contingency), nil)
		if err != nil {
			return err
		}
		if n != rho {
			return fmt.Errorf("|Γ|=%d, ρ=%d", n, rho)
		}
	case opWSolve:
		if res.Cost != wcost {
			return fmt.Errorf("ρ_w=%d, model %d", res.Cost, wcost)
		}
		_, cost, err := verifyGamma(st.inst, st.d, facts(res.Contingency), m.weights)
		if err != nil {
			return err
		}
		if cost != wcost {
			return fmt.Errorf("cost(Γ)=%d, ρ_w=%d", cost, wcost)
		}
	case opResp:
		k, err := m.globalResp(v, r.op.Tuple)
		if err != nil {
			return err
		}
		if (k < 0) != res.NotCounterfactual || (k >= 0 && k != res.K) {
			return fmt.Errorf("K=%d (not counterfactual: %v), model %d", res.K, res.NotCounterfactual, k)
		}
		if k >= 0 {
			return checkResponsibility(st.inst, st.d, r.op.Tuple, k, facts(res.Contingency))
		}
	case opTopK:
		return m.checkTopKAt(v, st, res.Ranked, r.op.K)
	}
	return nil
}

func (m *liveModel) checkTopKAt(v uint64, st versionState, ranked []rankedAnswer, k int) error {
	var all []int
	var prev int64 = -1
	for _, e := range ranked {
		want, err := m.globalResp(v, e.Tuple)
		if err != nil {
			return err
		}
		if want < 0 || int64(want) != e.K {
			return fmt.Errorf("rank %d %s: K=%d, model %d", e.Rank, e.Tuple, e.K, want)
		}
		if e.K < prev {
			return fmt.Errorf("rank %d: K=%d after K=%d", e.Rank, e.K, prev)
		}
		prev = e.K
		if err := checkResponsibility(st.inst, st.d, e.Tuple, want, facts(e.Contingency)); err != nil {
			return fmt.Errorf("rank %d: %v", e.Rank, err)
		}
	}
	for _, f := range m.facts[v] {
		k, err := m.globalResp(v, f)
		if err != nil {
			return err
		}
		if k >= 0 {
			all = append(all, k)
		}
	}
	sort.Ints(all)
	if len(all) > k {
		all = all[:k]
	}
	if len(all) != len(ranked) {
		return fmt.Errorf("%d ranked, want %d", len(ranked), len(all))
	}
	for i, e := range ranked {
		if int(e.K) != all[i] {
			return fmt.Errorf("rank %d: K=%d, the %d-th smallest responsibility is %d", e.Rank, e.K, i+1, all[i])
		}
	}
	return nil
}
