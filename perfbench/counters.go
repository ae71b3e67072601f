package main

import (
	"runtime"

	"repro/internal/engine"
	"repro/internal/store"
)

// counters is a snapshot of the exact counts the per-layer metrics are
// derived from: they repeat exactly for the same ops, so a later change
// can show where a saving came from without timing noise.
type counters struct {
	eng   engine.Stats
	store store.Stats
	mem   runtime.MemStats
}

func snapshot(st *stack) counters {
	var c counters
	c.eng = st.srv.Engine().Stats()
	c.store = st.srv.StoreStats()
	runtime.ReadMemStats(&c.mem)
	return c
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// countMetrics derives the per-layer count metrics of the untraced loop.
func countMetrics(lr *loopResult) map[string]metric {
	b, a := lr.before, lr.after
	var ops, writes, solves, witnesses int64
	for i := range lr.recs {
		r := &lr.recs[i]
		ops++
		switch r.op.Kind {
		case opPut, opPatch:
			writes++
		case opSolve, opWSolve:
			solves++
			witnesses += int64(r.ans.Witnesses)
		}
	}
	d := func(f func(engine.Stats) int64) int64 { return f(a.eng) - f(b.eng) }
	irHits, irMiss := d(func(s engine.Stats) int64 { return s.IRCacheHits }), d(func(s engine.Stats) int64 { return s.IRCacheMisses })
	cHits, cMiss := d(func(s engine.Stats) int64 { return s.CompCacheHits }), d(func(s engine.Stats) int64 { return s.CompCacheMisses })
	clHits, clMiss := d(func(s engine.Stats) int64 { return s.CacheHits }), d(func(s engine.Stats) int64 { return s.CacheMisses })
	exW, satW := d(func(s engine.Stats) int64 { return s.PortfolioExactWins }), d(func(s engine.Stats) int64 { return s.PortfolioSATWins })
	m := map[string]metric{
		"core.class_cache_hit_ratio":     {ratio(clHits, clHits+clMiss), "ratio"},
		"engine.ir_cache_hit_ratio":      {ratio(irHits, irHits+irMiss), "ratio"},
		"engine.comp_cache_hit_ratio":    {ratio(cHits, cHits+cMiss), "ratio"},
		"engine.ir_builds_per_op":        {ratio(d(func(s engine.Stats) int64 { return s.IRBuilds }), ops), "count"},
		"engine.ir_migrations_per_write": {ratio(d(func(s engine.Stats) int64 { return s.IRMigrations }), writes), "count"},
		"engine.components_per_solve":    {ratio(d(func(s engine.Stats) int64 { return s.ComponentsSolved }), solves), "count"},
		"engine.sat_win_ratio":           {ratio(satW, exW+satW), "ratio"},
		"eval.witnesses_per_op":          {ratio(witnesses, solves), "count"},
		"store.bytes_per_write":          {ratio(a.store.AppendBytes-b.store.AppendBytes, writes), "B"},
		"store.fsyncs_per_write":         {ratio(a.store.Fsyncs-b.store.Fsyncs, writes), "count"},
		"go.gc_cycles_per_op":            {ratio(int64(a.mem.NumGC-b.mem.NumGC), ops), "count"},
	}
	return m
}
