package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/api"
	"repro/internal/cq"
	"repro/internal/datagen"
	"repro/internal/db"
)

// Op kinds. Reads are the solver tasks whose latency feeds p50/p90/p99;
// writes are registry changes (PUT, PATCH) whose latency feeds write_p50.
const (
	opClassify = "classify"
	opSolve    = "solve"
	opWSolve   = "solve_weighted"
	opResp     = "responsibility"
	opTopK     = "top_k"
	opPut      = "put"
	opPatch    = "patch"
)

func isWrite(kind string) bool { return kind == opPut || kind == opPatch }

const qChain = "qchain :- R(x,y), R(y,z)"

// DBSpec is one database a workload uploads, with the query it is asked.
type DBSpec struct {
	Name    string
	Query   string
	Facts   []string
	Weights map[string]int64 `json:",omitempty"`
}

// Op is one request of a client's stream. Ref indexes the database the op
// concerns: Inputs.DBs for ptime_scale and live_mixed, Inputs.Pool for
// np_cold.
type Op struct {
	Kind    string
	DB      string
	Query   string
	Ref     int
	Tuple   string           `json:",omitempty"`
	K       int              `json:",omitempty"`
	Weights map[string]int64 `json:",omitempty"`
	Muts    []api.Mutation   `json:",omitempty"`
}

// Inputs is everything a workload sends, generated from the seed alone.
type Inputs struct {
	// DBs are registered during set-up; Pool (np_cold) is uploaded by the
	// ops themselves, one fresh database per PUT.
	DBs  []DBSpec
	Pool []DBSpec
	// Streams holds one op stream per client, longer than any run can
	// consume; Warmup runs untimed at the end of set-up.
	Streams [][]Op
	Warmup  []Op
	// ClusterSize is the node count of one live_mixed cluster: constant
	// cI belongs to cluster I/ClusterSize.
	ClusterSize int `json:",omitempty"`
}

// Workload describes one traffic mix.
type Workload struct {
	Name    string
	Clients int
	// Durable runs the server with a data directory (fsync=batch).
	Durable bool
	// RawWrites reports write latencies as measured, without the run
	// share's scaling (host.go). One client's sub-millisecond PUT runs
	// on one thread at a time, mostly between the hypervisor's steal
	// slices: steal lands whole on the few writes it hits and moves them
	// into the tail instead of stretching the median, so scaling the
	// median by the run share only adds the share's own variance. Where
	// two clients keep both vCPUs busy (live_mixed), or a write lasts
	// milliseconds (ptime_scale's registration PUTs), steal does stretch
	// the median and the scaling stays.
	RawWrites bool
	Gen       func(seed int64) *Inputs
}

var workloads = map[string]*Workload{
	"ptime_scale": {Name: "ptime_scale", Clients: 1, Gen: genPTimeScale},
	"np_cold":     {Name: "np_cold", Clients: 1, RawWrites: true, Gen: genNPCold},
	"live_mixed":  {Name: "live_mixed", Clients: 2, Durable: true, Gen: genLiveMixed},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func renderFacts(d *db.Database) []string {
	ts := d.AllTuples()
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = d.TupleString(t)
	}
	sort.Strings(out)
	return out
}

// streamLen bounds every generated stream; a client that exhausts its
// stream stops early, which the run reports on standard error.
const streamLen = 1 << 15

// ptimeFamily is one PTIME routing of ptime_scale: a query the classifier
// sends to a dedicated polynomial solver and a generator sized so that
// every family's solve costs about the same.
type ptimeFamily struct {
	name, query string
	gen         func(rng *rand.Rand, scale int) *db.Database
}

// ptimeFamilies: one database per PTIME routing, two for linear flow (the
// sj-free path and the confluence). scale 1 is the benchmark size, 2.5k to
// 9.5k facts each rather than 10^4 or more: solves over larger databases
// are memory-bound enough that the host's phases of memory contention
// moved whole runs by a third. The answer check also solves scale-0
// shrunk copies with exact branch-and-bound.
var ptimeFamilies = []ptimeFamily{
	{"linear-flow/qlin", "qlin :- A(x), R1(x,y), R2(y,z), C(z)", func(rng *rand.Rand, s int) *db.Database {
		return datagen.LinearSJFreeDB(rng, pick(s, 12, 1200), pick(s, 14, 1100))
	}},
	{"linear-flow/qACconf", "qACconf :- A(x), R(x,y), R(z,y), C(z)", func(rng *rand.Rand, s int) *db.Database {
		return datagen.ConfluenceDB(rng, pick(s, 8, 1200), pick(s, 8, 1200), 1)
	}},
	{"perm-count", "qperm :- R(x,y), R(y,x)", func(rng *rand.Rand, s int) *db.Database {
		return datagen.PermDB(rng, pick(s, 14, 4500), pick(s, 3, 500), pick(s, 12, 3500))
	}},
	{"perm-bipartite-vc", "qAperm :- A(x), R(x,y), R(y,x)", func(rng *rand.Rand, s int) *db.Database {
		return datagen.PermDB(rng, pick(s, 14, 1800), pick(s, 3, 200), pick(s, 12, 1500), "A")
	}},
	{"perm3-flow", "qA3permR :- A(x), R(x,y), R(y,z), R(z,y)", func(rng *rand.Rand, s int) *db.Database {
		return datagen.PermDB(rng, pick(s, 10, 700), pick(s, 3, 70), pick(s, 10, 1000), "A")
	}},
	{"rep-flow", "z3 :- R(x,x), R(x,y), A(y)", func(rng *rand.Rand, s int) *db.Database {
		return datagen.RandomWithLoops(rng, cq.MustParse("z3 :- R(x,x), R(x,y), A(y)"), pick(s, 10, 2000), pick(s, 14, 3000), 0.3)
	}},
	{"ts3conf-flow", "qTS3conf :- T(x,y)^x, R(x,y), R(z,y), R(z,w), S(z,w)^x", func(rng *rand.Rand, s int) *db.Database {
		q := cq.MustParse("qTS3conf :- T(x,y)^x, R(x,y), R(z,y), R(z,w), S(z,w)^x")
		return datagen.Random(rng, q, pick(s, 5, 300), pick(s, 12, 2000), 0)
	}},
}

func pick(scale, small, big int) int {
	if scale == 0 {
		return small
	}
	return big
}

// shapeSeed fixes the shapes of the databases a run registers at set-up
// (ptime_scale's seven, live_mixed's one). A run's seed relabels their
// constants and draws everything else: the op streams, toggled facts,
// probes and weights. Random databases of these families differ so
// much in solver effort from draw to draw (one TS3conf draw solved 4x
// slower than another) that runs with different seeds would otherwise
// measure different work rather than the same code.
const shapeSeed = 1

// relabel renames d's constants by a seeded permutation of its own
// constant names: an isomorphic copy, so every solver does the same work.
func relabel(rng *rand.Rand, d *db.Database) []string {
	names := make([]string, d.NumConsts())
	for v := range names {
		names[v] = d.ConstName(db.Value(v))
	}
	perm := rng.Perm(len(names))
	facts := make([]string, 0, d.Len())
	for _, t := range d.AllTuples() {
		args := make([]string, t.Arity)
		for j, v := range t.Values() {
			args[j] = names[perm[v]]
		}
		facts = append(facts, t.Rel+"("+strings.Join(args, ",")+")")
	}
	sort.Strings(facts)
	return facts
}

func genPTimeScale(seed int64) *Inputs {
	rng := rand.New(rand.NewSource(seed))
	shapes := rand.New(rand.NewSource(shapeSeed))
	in := &Inputs{}
	for i, f := range ptimeFamilies {
		in.DBs = append(in.DBs, DBSpec{
			Name: fmt.Sprintf("ptime-%d", i), Query: f.query, Facts: relabel(rng, f.gen(shapes, 1)),
		})
	}
	for i, spec := range in.DBs {
		in.Warmup = append(in.Warmup, Op{Kind: opSolve, DB: spec.Name, Query: spec.Query, Ref: i})
	}
	// Solves visit the families round-robin, each round in a seeded
	// order, so every run spends the same share of solves on each family.
	ops := make([]Op, 0, streamLen)
	var round []int
	for len(ops) < streamLen {
		if len(round) == 0 {
			round = rng.Perm(len(in.DBs))
		}
		i := round[0]
		round = round[1:]
		ops = append(ops, Op{Kind: opSolve, DB: in.DBs[i].Name, Query: in.DBs[i].Query, Ref: i})
	}
	in.Streams = [][]Op{ops}
	return in
}

// np_cold sizes: the pool holds more fresh databases than any run uploads,
// spread over more registry names than the engine's 256-entry IR cache.
const (
	npColdPool  = 8192
	npColdSlots = 512
	npColdTopK  = 3
)

var npColdTasks = []string{opSolve, opWSolve, opSolve, opTopK, opResp}

func genNPCold(seed int64) *Inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &Inputs{}
	gen := func(i int) (DBSpec, Op) {
		var d *db.Database
		kind := npColdTasks[i%len(npColdTasks)]
		// Top-k ranks every tuple by an exact search each; on a chain's
		// single large component that cost is heavy-tailed enough to make
		// p99 a draw of the few hardest chains, so top-k ranks dense
		// databases only.
		if i%2 == 0 || kind == opTopK {
			d = datagen.ManyComponentDenseDB(rng, 4+rng.Intn(4), 9, 14)
		} else {
			d = datagen.ChainDB(rng, 30+rng.Intn(10), 12)
		}
		spec := DBSpec{Name: fmt.Sprintf("cold-%d", i%npColdSlots), Query: qChain, Facts: renderFacts(d)}
		task := Op{Kind: kind, DB: spec.Name, Query: qChain, Ref: i}
		switch task.Kind {
		case opWSolve:
			spec.Weights = datagen.SkewedWeights(rng, d, 0.3, 9)
			task.Weights = spec.Weights
		case opTopK:
			task.K = npColdTopK
		case opResp:
			task.Tuple = spec.Facts[rng.Intn(len(spec.Facts))]
		}
		return spec, task
	}
	for i := 0; i < 4; i++ {
		spec, task := gen(i)
		spec.Name = fmt.Sprintf("warm-%d", i)
		task.DB, task.Ref = spec.Name, -1
		in.DBs = append(in.DBs, spec)
		in.Warmup = append(in.Warmup, task)
	}
	ops := make([]Op, 0, 2*npColdPool)
	for i := 0; i < npColdPool; i++ {
		spec, task := gen(i)
		in.Pool = append(in.Pool, spec)
		ops = append(ops, Op{Kind: opPut, DB: spec.Name, Ref: i}, task)
	}
	in.Streams = [][]Op{ops}
	return in
}

// live_mixed sizes and mix. Each client owns liveToggles facts that only
// it toggles, so its mutation sequence is fixed by the seed whatever the
// interleaving; probes and weights avoid toggled facts so every read stays
// valid at every version.
const (
	liveClusters    = 16
	liveClusterSize = 12
	liveExtra       = 14
	liveToggles     = 12
	liveTopK        = 3
)

// liveFacts is ManyComponentDenseDB(16 clusters × 12 nodes) of the fixed
// shape (see shapeSeed) under a seeded relabeling that keeps each cluster
// in its own constant pool (constant cI lies in cluster I/liveClusterSize),
// which the answer check relies on.
func liveFacts(rng *rand.Rand) []string {
	shape := datagen.ManyComponentDenseDB(rand.New(rand.NewSource(shapeSeed)), liveClusters, liveClusterSize, liveExtra)
	clusterPerm := rng.Perm(liveClusters)
	nodePerm := make([][]int, liveClusters)
	for c := range nodePerm {
		nodePerm[c] = rng.Perm(liveClusterSize)
	}
	rename := func(v db.Value) string {
		i, err := strconv.Atoi(strings.TrimPrefix(shape.ConstName(v), "c"))
		if err != nil {
			panic(err) // datagen names constants cI
		}
		c, n := i/liveClusterSize, i%liveClusterSize
		return datagen.ConstName(clusterPerm[c]*liveClusterSize + nodePerm[c][n])
	}
	var facts []string
	for _, t := range shape.AllTuples() {
		facts = append(facts, fmt.Sprintf("%s(%s,%s)", t.Rel, rename(t.Args[0]), rename(t.Args[1])))
	}
	sort.Strings(facts)
	return facts
}

// liveMix is the per-client op mix in per mille. Reads sort by latency
// into classify < solve ≈ responsibility < weighted solve < top-k, and the
// shares put p50 inside solve and p90 inside responsibility, away from the
// class boundaries where a percentile jumps between classes from run to
// run. Weighted solves and top-k are rare because each costs tens of
// milliseconds: at 5% each they would hold most of the run's time and
// make the solver, not the serving path, the workload's busiest layer.
var liveMix = []struct {
	kind     string
	perMille int
}{
	{opPatch, 200}, {opSolve, 447}, {opResp, 200}, {opClassify, 120}, {opWSolve, 25}, {opTopK, 8},
}

// liveDeck is a shuffled block of 1000 op kinds in exactly liveMix's
// proportions: every run, whatever its seed, sends the same mix.
func liveDeck(rng *rand.Rand) []string {
	deck := make([]string, 0, 1000)
	for _, m := range liveMix {
		for i := 0; i < m.perMille; i++ {
			deck = append(deck, m.kind)
		}
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// classifyQueries are the queries of live_mixed's classify ops: both
// halves of the dichotomy, parsed and classified on every request.
var classifyQueries = []string{
	qChain,
	"qACconf :- A(x), R(x,y), R(z,y), C(z)",
	"qA3permR :- A(x), R(x,y), R(y,z), R(z,y)",
	"qTS3conf :- T(x,y)^x, R(x,y), R(z,y), R(z,w), S(z,w)^x",
	"q3chain :- R(x,y), R(y,z), R(z,w)",
	"qAC3conf :- A(x), R(x,y), R(z,y), R(z,w), C(w)",
	"z3 :- R(x,x), R(x,y), A(y)",
	"qsj1 :- R(x,y), R(y,z), R(z,x)",
}

func genLiveMixed(seed int64) *Inputs {
	rng := rand.New(rand.NewSource(seed))
	facts := liveFacts(rng)
	d, err := buildDB(facts)
	if err != nil {
		panic(err) // generated facts always parse
	}
	weights := datagen.SkewedWeights(rng, d, 0.3, 9)
	perm := rng.Perm(len(facts))
	const clients = 2
	owned := make([][]string, clients)
	toggled := map[string]bool{}
	for c := 0; c < clients; c++ {
		for _, j := range perm[c*liveToggles : (c+1)*liveToggles] {
			owned[c] = append(owned[c], facts[j])
			toggled[facts[j]] = true
			delete(weights, facts[j])
		}
	}
	var probes []string
	for _, j := range perm[clients*liveToggles:] {
		probes = append(probes, facts[j])
	}
	sort.Strings(probes)
	const name = "live"
	in := &Inputs{
		DBs:         []DBSpec{{Name: name, Query: qChain, Facts: facts, Weights: weights}},
		ClusterSize: liveClusterSize,
	}
	in.Warmup = []Op{
		{Kind: opSolve, DB: name, Query: qChain},
		{Kind: opWSolve, DB: name, Query: qChain, Weights: weights},
		{Kind: opTopK, DB: name, Query: qChain, K: liveTopK},
		{Kind: opResp, DB: name, Query: qChain, Tuple: probes[0]},
		{Kind: opClassify, Query: qChain},
	}
	for c := 0; c < clients; c++ {
		present := map[string]bool{}
		for _, f := range owned[c] {
			present[f] = true
		}
		ops := make([]Op, 0, streamLen)
		var deck []string
		for len(ops) < streamLen {
			if len(deck) == 0 {
				deck = liveDeck(rng)
			}
			kind := deck[0]
			deck = deck[1:]
			op := Op{Kind: kind, DB: name, Query: qChain}
			switch kind {
			case opPatch:
				f := owned[c][rng.Intn(len(owned[c]))]
				m := api.Mutation{Op: api.MutationDelete, Fact: f}
				if !present[f] {
					m.Op = api.MutationInsert
				}
				present[f] = !present[f]
				op.Query = ""
				op.Muts = []api.Mutation{m}
			case opResp:
				op.Tuple = probes[rng.Intn(len(probes))]
			case opWSolve:
				op.Weights = weights
			case opTopK:
				op.K = liveTopK
			case opClassify:
				op.DB = ""
				op.Query = classifyQueries[rng.Intn(len(classifyQueries))]
			}
			ops = append(ops, op)
		}
		in.Streams = append(in.Streams, ops)
	}
	return in
}
