// Command perfbench is the service benchmark: it starts internal/server
// in-process with resilserverd's defaults behind httptest, drives it
// through the client SDK in a closed loop with inputs generated from a
// seed, checks every answer, and prints one JSON result line.
//
// Usage (from the root of a checkout; run.sh builds and runs it):
//
//	perfbench --workload ptime_scale|np_cold|live_mixed --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 it carries the per-layer metrics: exact
// counts from an untraced loop of S/2 seconds, then times from a traced
// replay of the same ops (see trace.go). Human-readable tables go to
// standard error; the last line of standard output is the result.
package main

import (
	"bufio"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// gomaxprocs pins the scheduler to the two cores the benchmark was tuned
// and proved steady on.
const gomaxprocs = 2

// setupRepeats: set-up runs this many times and setup_s is the median,
// which tames the first set-up's page faults and cold caches.
const setupRepeats = 7

// workDir holds data directories and trace files, inside the checkout.
const workDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = report per-layer metrics from a traced replay")
	)
	flag.Parse()
	w := workloads[*name]
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(gomaxprocs)
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

func run(w *Workload, seed int64, dur time.Duration, traced bool) (*result, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	// Set up several times; keep the last stack for the timed loop.
	var (
		st        *stack
		in        *Inputs
		setups    []float64 // with stolen time removed (host.go)
		rawSetups []float64
		regWrites []float64 // latency of set-up's registration PUTs
	)
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		cpu0 := readCPUStat()
		start := time.Now()
		in = w.Gen(seed)
		var err error
		st, err = openStack(w, in, workDir, nil, nil)
		if err != nil {
			return nil, err
		}
		if err := warmup(st, in); err != nil {
			st.close()
			return nil, err
		}
		wall := time.Since(start)
		share := runShare(cpu0, readCPUStat())
		setups = append(setups, wall.Seconds()*share)
		rawSetups = append(rawSetups, wall.Seconds())
		for _, ms := range st.regLat {
			regWrites = append(regWrites, ms*share)
		}
	}
	defer st.close()

	loopDur := dur
	if traced {
		loopDur = dur / 2
	}
	resetPeakRSS()
	lr, err := timedLoop(st, in, w.Clients, loopDur)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: %d ops in %.2fs (%d clients), setups %v\n",
		w.Name, len(lr.recs), lr.elapsed.Seconds(), w.Clients, rawSetups)
	if lr.exhausted {
		fmt.Fprintln(os.Stderr, "warning: a client exhausted its op stream before the deadline")
	}

	chkStart := time.Now()
	chk := newChecker(w, in, st)
	wrong := chk.check(lr.recs)
	fmt.Fprintf(os.Stderr, "answers checked in %.2fs\n", time.Since(chkStart).Seconds())
	res := &result{Attempted: len(lr.recs), Metrics: map[string]metric{}}
	for i := range lr.recs {
		if lr.recs[i].err != nil || lr.recs[i].wrong != "" {
			res.Failed++
		}
	}
	res.Correct = wrong == 0 && chk.err == nil
	reportFailures(lr.recs, chk.err)

	if !traced {
		endToEnd(res, w, lr, setups, rawSetups, regWrites)
		return res, nil
	}
	st.close()
	tr, err := tracedReplay(w, in, lr)
	if err != nil {
		return nil, err
	}
	if err := perLayer(res, w, seed, lr, tr); err != nil {
		return nil, err
	}
	return res, nil
}

// warmup runs the workload's warm-up ops untimed: caches fill and lazy
// set-up finishes before the first timed op.
func warmup(st *stack, in *Inputs) error {
	ctx := context.Background()
	for i := range in.Warmup {
		var rec record
		st.exec(ctx, in, &in.Warmup[i], &rec)
		if rec.err != nil {
			return fmt.Errorf("warm-up %s on %s: %w", in.Warmup[i].Kind, in.Warmup[i].DB, rec.err)
		}
	}
	return nil
}

// loopResult is what the timed loop measured.
type loopResult struct {
	recs    []record
	elapsed time.Duration
	// share is the host's run share over the loop (runShare).
	share     float64
	exhausted bool
	// peakRSS is the process's peak resident set in MB over the loop.
	peakRSS float64
	before  counters
	after   counters
}

// timedLoop runs each client's stream in a closed loop until dur has
// passed, bracketing it with counter snapshots, the host's CPU
// accounting and the peak resident set. Each op's record goes to a
// record log on disk as it completes and is read back after the loop.
func timedLoop(st *stack, in *Inputs, clients int, dur time.Duration) (*loopResult, error) {
	log, err := newRecordLog(workDir)
	if err != nil {
		return nil, err
	}
	lr := &loopResult{}
	exhausted := make([]bool, clients)
	lr.before = snapshot(st)
	cpu0 := readCPUStat()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			stream := in.Streams[c]
			for i := range stream {
				if !time.Now().Before(deadline) {
					break
				}
				r := record{client: c, idx: i}
				st.exec(ctx, in, &stream[i], &r)
				log.add(&r)
				if i == len(stream)-1 {
					exhausted[c] = true
				}
			}
		}(c)
	}
	wg.Wait()
	lr.elapsed = time.Since(start)
	lr.share = runShare(cpu0, readCPUStat())
	lr.after = snapshot(st)
	lr.peakRSS = peakRSSMB()
	for _, e := range exhausted {
		lr.exhausted = lr.exhausted || e
	}
	if lr.recs, err = log.load(in); err != nil {
		return nil, fmt.Errorf("reading the record log: %w", err)
	}
	return lr, nil
}

// recordLog keeps the timed loop's records in a file until the loop has
// ended. Held in memory, they grew the heap with every op (live_mixed's
// contingency sets are nearly all distinct, since every PATCH changes
// them: about 1 KB per op), so peak_rss_mb followed the number of ops the
// host's speed allowed rather than the service.
type recordLog struct {
	mu  sync.Mutex
	f   *os.File
	w   *bufio.Writer
	enc *gob.Encoder
	err error
}

// loggedRecord is a record as the log stores it.
type loggedRecord struct {
	Client, Idx int
	Ans         answer
	Lat         time.Duration
	Err         string
	Lo, Hi      uint64
}

func newRecordLog(dir string) (*recordLog, error) {
	f, err := os.CreateTemp(dir, "records-")
	if err != nil {
		return nil, fmt.Errorf("creating the record log: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	return &recordLog{f: f, w: w, enc: gob.NewEncoder(w)}, nil
}

// add appends r; the first error is kept for load.
func (l *recordLog) add(r *record) {
	e := loggedRecord{Client: r.client, Idx: r.idx, Ans: r.ans, Lat: r.lat, Lo: r.lo, Hi: r.hi}
	if r.err != nil {
		e.Err = r.err.Error()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		l.err = l.enc.Encode(&e)
	}
}

// load reads every record back, ordered by client and then by op, and
// removes the file.
func (l *recordLog) load(in *Inputs) ([]record, error) {
	defer os.Remove(l.f.Name()) //nolint:errcheck // scratch file; a leftover is harmless
	defer l.f.Close()
	if l.err != nil {
		return nil, l.err
	}
	if err := l.w.Flush(); err != nil {
		return nil, err
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	dec := gob.NewDecoder(bufio.NewReader(l.f))
	var recs []record
	for {
		var e loggedRecord
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		r := record{client: e.Client, idx: e.Idx, op: &in.Streams[e.Client][e.Idx], ans: e.Ans, lat: e.Lat, lo: e.Lo, hi: e.Hi}
		if e.Err != "" {
			r.err = errors.New(e.Err)
		}
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].client != recs[j].client {
			return recs[i].client < recs[j].client
		}
		return recs[i].idx < recs[j].idx
	})
	return recs, nil
}

// reportFailures prints the first few failed or wrong ops.
func reportFailures(recs []record, chkErr error) {
	if chkErr != nil {
		fmt.Fprintln(os.Stderr, "answer check could not run:", chkErr)
	}
	shown := 0
	for i := range recs {
		r := &recs[i]
		if r.err == nil && r.wrong == "" {
			continue
		}
		if shown++; shown > 10 {
			break
		}
		why := r.wrong
		if r.err != nil {
			why = r.err.Error()
		}
		fmt.Fprintf(os.Stderr, "FAILED op %d/%d %s %s: %s\n", r.client, r.idx, r.op.Kind, r.op.DB, why)
	}
}

// endToEndUnits are the end-to-end metrics and their units.
var endToEndUnits = map[string]string{
	"setup_s": "s", "ops_per_s": "1/s", "p50_ms": "ms",
	"write_p50_ms": "ms", "peak_rss_mb": "MB", "alloc_kb_per_op": "KB",
}

// endToEnd fills the end-to-end metrics from every op of the timed loop,
// with the time the hypervisor stole removed from each time (host.go),
// except from the write latencies of a RawWrites workload.
// ptime_scale's loop sends no writes, so its write_p50_ms is the latency
// of the registration PUTs its set-ups sent (regWrites).
func endToEnd(res *result, w *Workload, lr *loopResult, setups, rawSetups, regWrites []float64) {
	writeShare := lr.share
	if w.RawWrites {
		writeShare = 1
	}
	var reads, writes []float64
	for i := range lr.recs {
		r := &lr.recs[i]
		if r.err != nil {
			continue
		}
		ms := float64(r.lat) / float64(time.Millisecond)
		if isWrite(r.op.Kind) {
			writes = append(writes, ms*writeShare)
		} else {
			reads = append(reads, ms*lr.share)
		}
	}
	if len(writes) == 0 {
		writes = regWrites
	}
	sort.Float64s(reads)
	sort.Float64s(writes)
	set := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: endToEndUnits[name]} }
	set("setup_s", median(setups))
	set("ops_per_s", float64(len(lr.recs))/(lr.elapsed.Seconds()*lr.share))
	set("p50_ms", quantile(reads, 0.50))
	set("write_p50_ms", quantile(writes, 0.50))
	set("peak_rss_mb", lr.peakRSS)
	set("alloc_kb_per_op", float64(lr.after.mem.TotalAlloc-lr.before.mem.TotalAlloc)/1024/float64(len(lr.recs)))
	fmt.Fprintf(os.Stderr, "host run share %.3f; raw (stolen time kept): ops_per_s %.2f p50 %.3f ms setup_s %.3f\n",
		lr.share, float64(len(lr.recs))/lr.elapsed.Seconds(), quantile(reads, 0.50)/lr.share, median(rawSetups))
	// The tail is printed, not reported: across seeds on this host p90
	// spread by up to a third of its median and p99 by up to 60%, beyond
	// any bound the comparison allows.
	fmt.Fprintf(os.Stderr, "%d reads, %d writes; p90 %.3f ms; p99 %.3f ms with %d beyond it\n",
		len(reads), len(writes), quantile(reads, 0.90), quantile(reads, 0.99), len(reads)/100)
	printKinds(lr.recs)
}

// printKinds prints per-kind latency medians and time shares, which show
// whether any one kind dominates the run.
func printKinds(recs []record) {
	by := map[string][]float64{}
	total := 0.0
	for i := range recs {
		ms := float64(recs[i].lat) / float64(time.Millisecond)
		key := recs[i].op.Kind
		if strings.HasPrefix(recs[i].op.DB, "ptime-") {
			key += " " + recs[i].op.DB // one row per PTIME family
		}
		by[key] = append(by[key], ms)
		total += ms
	}
	var kinds []string
	for k := range by {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		v := by[k]
		sum := 0.0
		for _, x := range v {
			sum += x
		}
		sort.Float64s(v)
		fmt.Fprintf(os.Stderr, "  %-22s n=%-6d p50=%8.3fms p90=%8.3fms time=%5.1f%%\n", k, len(v), quantile(v, 0.5), quantile(v, 0.9), 100*sum/total)
	}
}

// quantile is the nearest-rank quantile of sorted values (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) tracking, so the
// peak read after the loop belongs to the loop, not to set-up.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "note: peak RSS includes set-up:", err)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
