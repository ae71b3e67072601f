package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/store"
)

// The traced replay. The program has no spans of its own yet, so the
// benchmark times calls into each layer from its own files. One call
// cannot be timed from outside at every depth at once, so each op of the
// untraced loop is replayed at three depths, each against its own copy of
// the service state that has seen exactly the same ops (so caches hold the
// same entries at every depth):
//
//   - transport: the client SDK against a real server, whose ServeHTTP is
//     wrapped — spans "client" ⊃ "server.handle";
//   - api: an api.Session with the server's engine configuration, whose
//     store is the DiskStore wrapped in a timing api.Store — spans
//     "api.do.<kind>" | "api.mutate" | "api.register" ⊃ "store.append";
//   - pipeline: the engine's request path rebuilt from the public
//     functions of cq, core, db, eval, witset, resilience and cnfenc, with
//     the engine's caches mirrored (see pipeline.go) — one span per call.
//
// Self times come from spans of one execution each: client = client span
// − server.handle (transport depth), store = store appends (api depth),
// and each pipeline layer's share of the pipeline depth's wall time, where
// spans that overlap (the component pool) split the time they share. The
// rest of the traced op time — server, api and the engine's own dispatch
// and caches — is not timed on its own: that needs spans inside the
// program, and subtracting one depth's spans from another's does not give
// it, because the depths are separate runs. trace.coverage is the share of
// the traced op time (the transport depth's client span) the timed layers
// hold. trace.overhead is the traced op time over the untraced time of the
// same ops.

// span is one timed call. Times are nanoseconds since the tracer's epoch.
type span struct {
	Op     string `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// tctx places the spans of one call: the op they belong to and the span
// that caused them.
type tctx struct {
	t      *tracer
	op     string
	parent int64
}

// start opens a span; the returned function closes and records it.
func (c tctx) start(name string) (tctx, func()) {
	id := c.t.ids.Add(1)
	begin := c.t.now()
	return tctx{t: c.t, op: c.op, parent: id}, func() {
		c.t.record(span{Op: c.op, ID: id, Parent: c.parent, Name: name, Start: begin, End: c.t.now()})
	}
}

// timed runs fn inside a span named name.
func timed[T any](c tctx, name string, fn func() (T, error)) (T, error) {
	_, end := c.start(name)
	defer end()
	return fn()
}

// Headers carry the op and its client span across the transport depth.
const (
	hdrOp   = "Perfbench-Op"
	hdrSpan = "Perfbench-Span"
)

type ctxKey struct{}

type spanTransport struct{ next http.RoundTripper }

func (s spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if c, ok := r.Context().Value(ctxKey{}).(tctx); ok {
		r = r.Clone(r.Context())
		r.Header.Set(hdrOp, c.op)
		r.Header.Set(hdrSpan, strconv.FormatInt(c.parent, 10))
	}
	return s.next.RoundTrip(r)
}

func handleSpans(t *tracer) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, err := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
			if err != nil {
				next.ServeHTTP(w, r)
				return
			}
			_, end := tctx{t: t, op: r.Header.Get(hdrOp), parent: parent}.start("server.handle")
			next.ServeHTTP(w, r)
			end()
		})
	}
}

// timingStore times every append of the wrapped store. Calls arrive on the
// api depth's goroutine while it holds replay.apiMu, which also guards cur.
type timingStore struct {
	inner api.Store
	cur   *tctx
}

func (s timingStore) time(fn func() error) error {
	_, end := s.cur.start("store.append")
	defer end()
	return fn()
}

func (s timingStore) PutDB(n string, f []string, v uint64) error {
	return s.time(func() error { return s.inner.PutDB(n, f, v) })
}
func (s timingStore) DropDB(n string) error { return s.time(func() error { return s.inner.DropDB(n) }) }
func (s timingStore) MutateDB(n string, m []api.Mutation, v uint64) error {
	return s.time(func() error { return s.inner.MutateDB(n, m, v) })
}
func (s timingStore) SubmitJob(j *api.Job) error {
	return s.time(func() error { return s.inner.SubmitJob(j) })
}
func (s timingStore) StartJob(id string, at time.Time) error {
	return s.time(func() error { return s.inner.StartJob(id, at) })
}
func (s timingStore) FinishJob(j *api.Job) error {
	return s.time(func() error { return s.inner.FinishJob(j) })
}
func (s timingStore) RemoveJob(id string) error {
	return s.time(func() error { return s.inner.RemoveJob(id) })
}

// replay holds the three depths of the traced run.
type replay struct {
	t   *tracer
	a   *stack
	b   *api.Session
	bst *store.DiskStore
	dir string
	c   *mirror
	// apiMu serializes the api and pipeline depths across clients, so
	// each store append belongs to the one api call in flight.
	apiMu  sync.Mutex
	curAPI tctx
	// ops maps an op id to its untraced latency.
	untraced map[string]time.Duration
	replayed []string
}

func openReplay(w *Workload, in *Inputs) (*replay, error) {
	rp := &replay{t: newTracer(), untraced: map[string]time.Duration{}}
	// Set-up appends land on a scratch tracer; traced ops repoint curAPI.
	rp.curAPI = tctx{t: newTracer()}
	a, err := openStack(w, in, workDir, handleSpans(rp.t), func(next http.RoundTripper) http.RoundTripper {
		return spanTransport{next: next}
	})
	if err != nil {
		return nil, err
	}
	rp.a = a
	var st api.Store
	if w.Durable {
		if rp.dir, err = os.MkdirTemp(workDir, "data-"); err != nil {
			rp.close()
			return nil, err
		}
		if rp.bst, _, err = store.Open(rp.dir, store.Options{Fsync: store.FsyncBatch}); err != nil {
			rp.close()
			return nil, err
		}
		st = timingStore{inner: rp.bst, cur: &rp.curAPI}
	}
	rp.b = api.NewSession(api.Config{Engine: serverConfig("").Engine, Store: st})
	rp.c = newMirror()
	for _, spec := range in.DBs {
		if _, err := rp.b.RegisterFacts(spec.Name, spec.Facts); err != nil {
			rp.close()
			return nil, err
		}
		if err := rp.c.register(tctx{t: newTracer()}, spec.Name, spec.Facts); err != nil {
			rp.close()
			return nil, err
		}
	}
	// Warm-up at every depth, untraced.
	ctx := context.Background()
	for i := range in.Warmup {
		op := &in.Warmup[i]
		var rec record
		a.exec(ctx, in, op, &rec)
		if rec.err != nil {
			rp.close()
			return nil, fmt.Errorf("traced warm-up: %w", rec.err)
		}
		scratch := tctx{t: newTracer()}
		if err := rp.apiDepth(ctx, scratch, in, op); err != nil {
			rp.close()
			return nil, err
		}
		if err := rp.c.do(ctx, scratch, in, op); err != nil {
			rp.close()
			return nil, err
		}
	}
	return rp, nil
}

func (rp *replay) close() {
	if rp.a != nil {
		rp.a.close()
	}
	if rp.bst != nil {
		rp.bst.Close() //nolint:errcheck // scratch store, deleted next
	}
	if rp.dir != "" {
		os.RemoveAll(rp.dir) //nolint:errcheck // scratch data
	}
}

// apiDepth runs op on the api depth's Session inside one span.
func (rp *replay) apiDepth(ctx context.Context, c tctx, in *Inputs, op *Op) error {
	var name string
	var fn func() error
	switch op.Kind {
	case opPut:
		name = "api.register"
		fn = func() error { _, err := rp.b.RegisterFacts(op.DB, in.Pool[op.Ref].Facts); return err }
	case opPatch:
		name = "api.mutate"
		fn = func() error { _, err := rp.b.MutateDB(ctx, op.DB, op.Muts); return err }
	default:
		name = "api.do." + op.Kind
		fn = func() error { _, err := rp.b.Do(ctx, op.task()); return err }
	}
	inner, end := c.start(name)
	rp.curAPI = inner
	err := fn()
	end()
	return err
}

// tracedReplay replays, per client, the ops the untraced loop ran, for at
// most half the run's duration.
func tracedReplay(w *Workload, in *Inputs, lr *loopResult) (*replay, error) {
	rp, err := openReplay(w, in)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	counts := make([]int, w.Clients)
	for i := range lr.recs {
		r := &lr.recs[i]
		rp.untraced[opID(r.client, r.idx)] = r.lat
		if r.idx+1 > counts[r.client] {
			counts[r.client] = r.idx + 1
		}
	}
	deadline := time.Now().Add(lr.elapsed)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var done []string
			for i := 0; i < counts[c] && time.Now().Before(deadline); i++ {
				op := &in.Streams[c][i]
				id := opID(c, i)
				if err := rp.one(in, op, id); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("traced op %s (%s): %w", id, op.Kind, err)
					}
					mu.Unlock()
					return
				}
				done = append(done, id)
			}
			mu.Lock()
			rp.replayed = append(rp.replayed, done...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return rp, nil
}

// one replays op at the three depths.
func (rp *replay) one(in *Inputs, op *Op, id string) error {
	ctx := context.Background()
	root, endRoot := tctx{t: rp.t, op: id}.start("op")
	defer endRoot()

	cc, endClient := root.start("client")
	var rec record
	rp.a.exec(context.WithValue(ctx, ctxKey{}, cc), in, op, &rec)
	endClient()
	if rec.err != nil {
		return rec.err
	}

	rp.apiMu.Lock()
	defer rp.apiMu.Unlock()
	if err := rp.apiDepth(ctx, root, in, op); err != nil {
		return fmt.Errorf("api depth: %w", err)
	}
	pc, endPipe := root.start("pipeline")
	err := rp.c.do(ctx, pc, in, op)
	endPipe()
	if err != nil {
		return fmt.Errorf("pipeline depth: %w", err)
	}
	return nil
}

// layerOf maps a span name to its layer ("" for glue spans).
func layerOf(name string) string {
	switch {
	case name == "op" || name == "pipeline":
		return ""
	case name == "client":
		return "client"
	}
	return name[:strings.IndexByte(name+".", '.')]
}

// probeSpans re-run work another span already contains; they are
// reported on their own and left out of the self-time sums.
func isProbe(name string) bool { return name == "eval.enumerate" }

// traceLayers are the layers of the per-layer table, in request order.
// eval has no row: the PTIME solvers enumerate inside their own calls, so
// its time is the probe eval.enumerate_ms, outside the sums.
var traceLayers = []string{"client", "store", "cq", "core", "db", "witset", "resilience", "cnfenc"}

// analysis is what the replay's spans say.
type analysis struct {
	ops      int
	opTime   time.Duration // Σ client spans: the traced op time
	untraced time.Duration // Σ untraced latency of the same ops
	self     map[string]time.Duration
	byName   map[string][]time.Duration
	measured time.Duration // Σ self time of the timed layers
}

func (rp *replay) analyze() *analysis {
	an := &analysis{self: map[string]time.Duration{}, byName: map[string][]time.Duration{}}
	byOp := map[string][]*span{}
	for i := range rp.t.spans {
		s := &rp.t.spans[i]
		byOp[s.Op] = append(byOp[s.Op], s)
		an.byName[s.Name] = append(an.byName[s.Name], s.dur())
	}
	for _, id := range rp.replayed {
		var client, handle, storeT time.Duration
		var leaves []*span
		for _, s := range byOp[id] {
			switch l := layerOf(s.Name); {
			case s.Name == "client":
				client += s.dur()
			case s.Name == "server.handle":
				handle += s.dur()
			case l == "store":
				storeT += s.dur()
			case l == "" || l == "api" || isProbe(s.Name):
			default:
				leaves = append(leaves, s)
			}
		}
		an.ops++
		an.opTime += client
		an.untraced += rp.untraced[id]
		an.self["client"] += client - handle
		an.self["store"] += storeT
		an.measured += client - handle + storeT
		for l, d := range wallShares(leaves) {
			an.self[l] += d
			an.measured += d
		}
	}
	return an
}

// wallShares splits the wall time the spans cover among their layers: a
// stretch where k spans are open gives each of them 1/k of it, so spans
// that run in parallel never count the same time twice.
func wallShares(spans []*span) map[string]time.Duration {
	type edge struct {
		at    int64
		delta int
		layer string
	}
	edges := make([]edge, 0, 2*len(spans))
	for _, s := range spans {
		l := layerOf(s.Name)
		edges = append(edges, edge{s.Start, 1, l}, edge{s.End, -1, l})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	open := map[string]int{}
	total := 0
	shares := map[string]float64{}
	for i, e := range edges {
		if i > 0 && total > 0 {
			dt := float64(e.at - edges[i-1].at)
			for l, n := range open {
				shares[l] += dt * float64(n) / float64(total)
			}
		}
		open[e.layer] += e.delta
		total += e.delta
	}
	out := map[string]time.Duration{}
	for l, v := range shares {
		out[l] = time.Duration(v)
	}
	return out
}

func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / float64(time.Millisecond)
}

// perLayerMetric describes one per-layer metric: its unit and, for a
// time, the span name(s) whose mean duration it is.
type perLayerMetric struct {
	name, unit string
	spans      []string
}

// timeMetrics are the per-layer times. Each is the mean duration of its
// spans in the traced replay; 0 where the workload never makes the call.
var timeMetrics = func() []perLayerMetric {
	m := []perLayerMetric{
		{"server.handle_ms", "ms", []string{"server.handle"}},
		{"api.mutate_ms", "ms", []string{"api.mutate"}},
		{"api.register_ms", "ms", []string{"api.register"}},
		{"cq.parse_us", "us", []string{"cq.parse"}},
		{"core.classify_us", "us", []string{"core.classify"}},
		{"db.clone_ms", "ms", []string{"db.clone"}},
		{"eval.enumerate_ms", "ms", []string{"eval.enumerate"}},
		{"witset.build_ms", "ms", []string{"witset.build"}},
		{"witset.decompose_ms", "ms", []string{"witset.decompose"}},
		{"witset.kernelize_ms", "ms", []string{"witset.kernelize"}},
		{"witset.apply_delta_ms", "ms", []string{"witset.apply_delta"}},
		{"resilience.bnb_ms", "ms", []string{"resilience.bnb"}},
		{"resilience.bnb_weighted_ms", "ms", []string{"resilience.bnb_weighted"}},
		{"resilience.responsibility_ms", "ms", []string{"resilience.responsibility"}},
		{"resilience.topk_ms", "ms", []string{"resilience.topk"}},
		{"cnfenc.sat_search_ms", "ms", []string{"cnfenc.sat_search"}},
		{"store.append_us", "us", []string{"store.append"}},
	}
	for _, k := range []string{opClassify, opSolve, opWSolve, opResp, opTopK} {
		m = append(m, perLayerMetric{"api.do_ms." + k, "ms", []string{"api.do." + k}})
	}
	for _, alg := range ptimeAlgorithms {
		m = append(m, perLayerMetric{"resilience.ptime_ms." + alg, "ms", []string{"resilience.ptime." + alg}})
	}
	return m
}()

// ptimeAlgorithms are the routed PTIME solvers (core.Algorithm names).
var ptimeAlgorithms = []string{
	"linear-network-flow", "permutation-witness-count", "permutation-bipartite-vc",
	"perm3-modified-flow", "rep-bipartite-flow", "ts3conf-forced-flow",
}

// perLayerUnits are the per-layer metrics and their units.
func perLayerUnits() map[string]string {
	u := map[string]string{"client.overhead_ms": "ms", "trace.coverage": "ratio", "trace.overhead": "ratio"}
	for _, m := range timeMetrics {
		u[m.name] = m.unit
	}
	for _, l := range traceLayers {
		u[l+".self_ms_per_op"] = "ms"
	}
	for k, m := range countMetrics(&loopResult{}) {
		u[k] = m.Unit
	}
	return u
}

// perLayer fills the per-layer metrics: counts from the untraced loop,
// times from the traced replay. It prints the per-layer table to standard
// error and writes the spans to a file under workDir.
func perLayer(res *result, w *Workload, seed int64, lr *loopResult, rp *replay) error {
	for k, v := range countMetrics(lr) {
		res.Metrics[k] = v
	}
	an := rp.analyze()
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	for _, m := range timeMetrics {
		var ds []time.Duration
		for _, s := range m.spans {
			ds = append(ds, an.byName[s]...)
		}
		v := meanMS(ds)
		if m.unit == "us" {
			v *= 1000
		}
		set(m.name, v, m.unit)
	}
	ops := float64(an.ops)
	if ops == 0 {
		return fmt.Errorf("traced replay ran no ops")
	}
	set("client.overhead_ms", float64(an.self["client"])/ops/float64(time.Millisecond), "ms")
	for _, l := range traceLayers {
		set(l+".self_ms_per_op", float64(an.self[l])/ops/float64(time.Millisecond), "ms")
	}
	set("trace.coverage", float64(an.measured)/float64(an.opTime), "ratio")
	set("trace.overhead", float64(an.opTime)/float64(an.untraced), "ratio")

	fmt.Fprintf(os.Stderr, "traced replay: %d ops, op time %.3f ms/op (untraced %.3f)\n",
		an.ops, float64(an.opTime)/ops/1e6, float64(an.untraced)/ops/1e6)
	fmt.Fprintf(os.Stderr, "  %-11s %12s %7s\n", "layer", "self ms/op", "share")
	for _, l := range traceLayers {
		fmt.Fprintf(os.Stderr, "  %-11s %12.4f %6.1f%%\n", l, float64(an.self[l])/ops/1e6, 100*float64(an.self[l])/float64(an.opTime))
	}
	rest := an.opTime - an.measured
	fmt.Fprintf(os.Stderr, "  %-11s %12.4f %6.1f%%  (server, api, engine dispatch: not timed on their own)\n", "rest", float64(rest)/ops/1e6, 100*float64(rest)/float64(an.opTime))
	fmt.Fprintf(os.Stderr, "  (eval probe, outside the sums: %.4f ms/op)\n", float64(sum(an.byName["eval.enumerate"]))/ops/1e6)
	fmt.Fprintf(os.Stderr, "  trace.coverage=%.3f trace.overhead=%.3f\n", res.Metrics["trace.coverage"].Value, res.Metrics["trace.overhead"].Value)
	return writeSpans(filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.Name, seed)), rp.t.spans)
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func writeSpans(path string, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	return f.Close()
}
