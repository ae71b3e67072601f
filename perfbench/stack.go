package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/engine"
	"repro/internal/server"
)

// serverConfig is resilserverd's default configuration: portfolio on,
// default caches and worker pools, a 30 s request budget, and for a
// durable workload a data directory with the daemon's fsync=batch.
func serverConfig(dataDir string) server.Config {
	cfg := server.Config{
		Engine:         engine.Config{Portfolio: true},
		RequestTimeout: 30 * time.Second,
	}
	if dataDir != "" {
		cfg.DataDir = dataDir
		cfg.Fsync = "batch"
	}
	return cfg
}

// stack is one in-process service: the real server behind httptest,
// reached through the client SDK.
type stack struct {
	srv     *server.Server
	hs      *httptest.Server
	cl      *client.Client
	dataDir string
	// base is the version each registered database reached at set-up.
	base map[string]uint64
	// regLat holds the latency of each registration PUT, in ms.
	regLat []float64
	// patchSends counts PATCH requests sent, so a read can bound the
	// versions it may have been answered at (see record.hi).
	patchSends atomic.Int64
	// acked is the highest version any PATCH response reported.
	acked atomic.Uint64
}

// openStack starts a server (with a fresh data directory under workDir
// when durable) and registers the workload's databases. wrap, when
// non-nil, wraps the server's handler (the traced run times ServeHTTP),
// and rt wraps the client's transport.
func openStack(w *Workload, in *Inputs, workDir string, wrap func(http.Handler) http.Handler, rt func(http.RoundTripper) http.RoundTripper) (*stack, error) {
	st := &stack{base: map[string]uint64{}}
	if w.Durable {
		dir, err := os.MkdirTemp(workDir, "data-")
		if err != nil {
			return nil, fmt.Errorf("creating data directory: %w", err)
		}
		st.dataDir = dir
	}
	srv, err := server.Open(serverConfig(st.dataDir))
	if err != nil {
		st.close()
		return nil, fmt.Errorf("opening server: %w", err)
	}
	st.srv = srv
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(h)
	}
	st.hs = httptest.NewServer(h)
	var transport http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 8}
	if rt != nil {
		transport = rt(transport)
	}
	// No retries: a refused or failed request is a failed op, not a
	// hidden wait.
	st.cl = client.New(st.hs.URL, client.WithRetries(0), client.WithHTTPClient(&http.Client{Transport: transport}))
	ctx := context.Background()
	for _, spec := range in.DBs {
		start := time.Now()
		info, err := st.cl.PutDB(ctx, spec.Name, spec.Facts)
		st.regLat = append(st.regLat, float64(time.Since(start))/float64(time.Millisecond))
		if err != nil {
			st.close()
			return nil, fmt.Errorf("registering %s: %w", spec.Name, err)
		}
		st.base[spec.Name] = info.Version
	}
	return st, nil
}

func (st *stack) close() {
	if st.hs != nil {
		st.hs.Close()
	}
	if st.srv != nil {
		st.srv.Close()
	}
	if st.dataDir != "" {
		os.RemoveAll(st.dataDir) //nolint:errcheck // scratch data; a leftover is harmless
	}
}

// record is the outcome of one op of the timed loop.
type record struct {
	client, idx int
	op          *Op
	ans         answer
	lat         time.Duration
	err         error
	// lo and hi bound the database version a read was answered at: lo is
	// the highest version acknowledged before it was sent, hi the base
	// version plus the PATCHes sent before its reply arrived.
	lo, hi uint64
	// wrong is set by the answer check.
	wrong string
}

// answer is the part of a reply the check needs, with each contingency
// set packed into one string (facts joined by ";").
type answer struct {
	Rho, K, Witnesses              int
	Cost                           int64
	NotCounterfactual, Unbreakable bool
	Contingency                    string
	Ranked                         []rankedAnswer
	Verdict, Algorithm, Normalized string
	// Version and Tuples describe the database after a PUT or PATCH.
	Version uint64
	Tuples  int
}

type rankedAnswer struct {
	Rank        int
	Tuple       string
	K           int64
	Contingency string
}

func pack(res *api.Result, info *api.DBInfo) answer {
	if info != nil {
		return answer{Version: info.Version, Tuples: info.Tuples}
	}
	a := answer{
		Rho: res.Rho, K: res.K, Witnesses: res.Witnesses, Cost: res.Cost,
		NotCounterfactual: res.NotCounterfactual, Unbreakable: res.Unbreakable,
		Contingency: strings.Join(res.Contingency, ";"),
		Verdict:     res.Verdict, Algorithm: res.Algorithm, Normalized: res.Normalized,
	}
	for _, e := range res.Ranked {
		a.Ranked = append(a.Ranked, rankedAnswer{Rank: e.Rank, Tuple: e.Tuple, K: e.K, Contingency: strings.Join(e.Contingency, ";")})
	}
	return a
}

// facts unpacks a packed contingency set.
func facts(packed string) []string {
	if packed == "" {
		return nil
	}
	return strings.Split(packed, ";")
}

// task renders a read op as a v1 task.
func (op *Op) task() api.Task {
	t := api.Task{Query: op.Query, DB: op.DB, Tuple: op.Tuple, K: op.K, Weights: op.Weights}
	switch op.Kind {
	case opClassify:
		t.Kind = api.KindClassify
	case opSolve, opWSolve:
		t.Kind = api.KindSolve
	case opResp:
		t.Kind = api.KindResponsibility
	case opTopK:
		t.Kind = api.KindTopKResponsibility
	}
	return t
}

// exec sends one op through the client SDK and records its latency.
func (st *stack) exec(ctx context.Context, in *Inputs, op *Op, rec *record) {
	rec.op = op
	base := st.base[op.DB]
	if !isWrite(op.Kind) {
		rec.lo = st.acked.Load()
		if rec.lo < base {
			rec.lo = base
		}
	}
	var (
		res  *api.Result
		info *api.DBInfo
	)
	start := time.Now()
	switch op.Kind {
	case opPut:
		info, rec.err = st.cl.PutDB(ctx, op.DB, in.Pool[op.Ref].Facts)
	case opPatch:
		st.patchSends.Add(1)
		info, rec.err = st.cl.MutateDB(ctx, op.DB, op.Muts)
	default:
		res, rec.err = st.cl.Do(ctx, op.task())
	}
	rec.lat = time.Since(start)
	if rec.err != nil {
		return
	}
	rec.ans = pack(res, info)
	switch {
	case op.Kind == opPatch:
		for v := st.acked.Load(); info.Version > v && !st.acked.CompareAndSwap(v, info.Version); v = st.acked.Load() {
		}
	case !isWrite(op.Kind):
		// live_mixed, the one workload whose answers depend on the
		// version, sends one mutation per PATCH.
		rec.hi = base + uint64(st.patchSends.Load())
	}
}

// opID renders a (client, index) pair for trace files.
func opID(client, idx int) string { return strconv.Itoa(client) + ":" + strconv.Itoa(idx) }
