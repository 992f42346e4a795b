package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	twigdb "repro"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/xpath"
)

// span is one timed layer call. Spans of one operation share Op; Parent is
// the operation's root span (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Op     int64  `json:"op"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"` // lookup, twig, fresh
	Start  int64  `json:"start_ns"`       // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them as JSON lines at the end.
type tracer struct {
	t0     time.Time
	spans  []span
	op     int64
	parent int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) record(name string, op int64, start, end time.Time) int64 {
	return t.recordKind(name, "", op, start, end)
}

func (t *tracer) recordKind(name, kind string, op int64, start, end time.Time) int64 {
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Op: op, Parent: t.parent, Name: name, Kind: kind,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) durations(name, kind string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && (kind == "" || s.Kind == kind) {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

func (t *tracer) median(name string) time.Duration { return quantile(t.durations(name, ""), 0.5) }

// publicTime sums the public query calls of the read rounds.
func (t *tracer) publicTime() time.Duration {
	var sum time.Duration
	for _, kind := range []string{"lookup", "twig"} {
		for _, d := range t.durations("twigdb.query", kind) {
			sum += d
		}
	}
	return sum
}

func (t *tracer) publicCalls() int {
	return len(t.durations("twigdb.query", "lookup")) + len(t.durations("twigdb.query", "twig"))
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}

// layerProbe is the traced run's second, in-memory instance of the engine,
// loaded from the same text: twigdb.DB does not expose its engine, so the
// layer calls below the public API (the engine query, the planner, the
// executor, the store passes of the write path) are timed here.
type layerProbe struct {
	r     *runner
	eng   *engine.DB
	built map[twigdb.IndexKind]bool
}

var internalKind = map[twigdb.IndexKind]index.Kind{
	twigdb.RootPaths: index.KindRootPaths, twigdb.DataPaths: index.KindDataPaths, twigdb.Edge: index.KindEdge,
	twigdb.DataGuide: index.KindDataGuide, twigdb.IndexFabric: index.KindIndexFabric, twigdb.ASR: index.KindASR,
	twigdb.JoinIndex: index.KindJoinIndex, twigdb.XRel: index.KindXRel, twigdb.Containment: index.KindContainment,
}

// newLayerProbe loads the probe instance and builds the workload's indices,
// each alone, timing the load and every build.
func newLayerProbe(r *runner) (*layerProbe, error) {
	eng, err := engine.Open(engine.Config{BufferPoolBytes: r.spec.poolBytes})
	if err != nil {
		return nil, fmt.Errorf("layer probe: %w", err)
	}
	p := &layerProbe{r: r, eng: eng, built: map[twigdb.IndexKind]bool{}}
	t0 := time.Now()
	if err := eng.LoadXML(strings.NewReader(r.in.text)); err != nil {
		return nil, fmt.Errorf("layer probe load: %w", err)
	}
	r.set("xmldb.load_s", "s", time.Since(t0).Seconds())
	return p, p.build(r.spec.kinds)
}

func (p *layerProbe) build(kinds []twigdb.IndexKind) error {
	for _, k := range kinds {
		if p.built[k] {
			continue
		}
		t0 := time.Now()
		if err := p.eng.Build(internalKind[k]); err != nil {
			return fmt.Errorf("layer probe build %v: %w", k, err)
		}
		p.r.set("index.build_s."+kindNames[k], "s", time.Since(t0).Seconds())
		p.built[k] = true
	}
	return nil
}

// query runs one read with its layers timed apart: the public call on the
// database under test, then xpath.Parse, the engine's QueryPatternBest on
// the probe, an uncached plan.Choose and ExecuteTreeWith on the chosen
// tree. The public call goes first so that the parts, not the whole, run on
// warmed caches. Pinned strategies and fresh reads time the public call
// alone.
func (p *layerProbe) query(strat twigdb.Strategy, q, kind string) (*twigdb.Result, time.Duration, error) {
	tr := p.r.tr
	tr.op++
	op := tr.op
	opStart := time.Now()
	tr.parent = tr.recordKind("read", kind, op, opStart, opStart) // end fixed below
	root := len(tr.spans) - 1
	t0 := time.Now()
	res, err := p.r.db.QueryWith(strat, q)
	t1 := time.Now()
	tr.recordKind("twigdb.query", kind, op, t0, t1)
	public := t1.Sub(t0)
	if err == nil && strat == twigdb.Auto && kind != "fresh" {
		err = p.layers(q, kind, op)
	}
	tr.spans[root].End = time.Since(tr.t0).Nanoseconds()
	tr.parent = 0
	return res, public, err
}

func (p *layerProbe) layers(q, kind string, op int64) error {
	tr := p.r.tr
	timed := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		tr.recordKind(name, kind, op, t0, time.Now())
		return err
	}
	var pat *xpath.Pattern
	var tree *plan.Tree
	env := p.eng.Env()
	if err := timed("xpath.parse", func() (err error) { pat, err = xpath.Parse(q); return err }); err != nil {
		return err
	}
	if err := timed("engine.query", func() error { _, _, _, err := p.eng.QueryPatternBest(pat, 1); return err }); err != nil {
		return err
	}
	if err := timed("plan.choose", func() (err error) { tree, _, err = plan.Choose(env, pat); return err }); err != nil {
		return err
	}
	rt := plan.NewRuntime(tree)
	return timed("plan.exec", func() error { _, _, err := plan.ExecuteTreeWith(env, tree, rt); return err })
}

// finish counts the front end's allocations, builds the index kinds the
// workload did not build (so every kind has a build time and a size), and
// times the O(database) passes of the write path on the probe's store.
func (p *layerProbe) finish() error {
	r := p.r
	// Allocations of the front end, per lookup, with the collector off: the
	// parse alone, the engine call alone and the public call; the result
	// build is the public call's remainder. The probe still has exactly the
	// workload's indices here, as the database under test does.
	var qs []string
	for k := 0; k < checkLookups; k++ {
		qs = append(qs, r.in.lookups[k%len(r.in.lookups)].query)
	}
	pats := make([]*xpath.Pattern, len(qs))
	for i, q := range qs {
		var err error
		if pats[i], err = xpath.Parse(q); err != nil {
			return err
		}
		// Warm both plan caches so the counts below are of cached plans.
		if _, _, _, err := p.eng.QueryPatternBest(pats[i], 1); err != nil {
			return err
		}
		if _, err := r.db.Query(q); err != nil {
			return err
		}
	}
	parse := countAllocs(func() {
		for _, q := range qs {
			_, _ = xpath.Parse(q)
		}
	})
	eng := countAllocs(func() {
		for _, pat := range pats {
			_, _, _, _ = p.eng.QueryPatternBest(pat, 1)
		}
	})
	public := countAllocs(func() {
		for _, q := range qs {
			_, _ = r.db.Query(q)
		}
	})
	n := float64(len(qs))
	r.set("xpath.allocs_per_parse", "allocs", float64(parse)/n)
	r.set("twigdb.allocs_per_result", "allocs", float64(public-parse-eng)/n)
	if err := p.build(allKinds); err != nil {
		return err
	}
	for _, s := range p.eng.Spaces() {
		for k, ik := range internalKind {
			if ik == s.Kind {
				r.set("index."+kindNames[k]+"_mb", "MB", float64(s.Bytes)/(1<<20))
			}
		}
	}
	// Spaces leaves the containment index out; its tree reports its own size.
	r.set("index.containment_mb", "MB", float64(p.eng.Env().Containment.Space())/(1<<20))
	store := p.eng.Store()
	site := store.Docs[0].Root
	var people int64
	for _, c := range site.Children {
		if c.Label == "people" {
			people = c.ID
		}
	}
	var clone, priv, coll []time.Duration
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		c := store.CloneShallow()
		t1 := time.Now()
		if _, err := c.Privatize(people); err != nil {
			return fmt.Errorf("privatize: %w", err)
		}
		t2 := time.Now()
		stats.Collect(store, p.eng.Dict())
		t3 := time.Now()
		clone, priv, coll = append(clone, t1.Sub(t0)), append(priv, t2.Sub(t1)), append(coll, t3.Sub(t2))
	}
	r.set("xmldb.clone_shallow_ms", "ms", millis(quantile(clone, 0.5)))
	r.set("xmldb.privatize_ms", "ms", millis(quantile(priv, 0.5)))
	r.set("stats.collect_ms", "ms", millis(quantile(coll, 0.5)))
	return p.sweepPasses()
}

var planStrategy = map[twigdb.Strategy]plan.Strategy{
	twigdb.StrategyRootPaths: plan.RootPathsPlan, twigdb.StrategyDataPaths: plan.DataPathsPlan,
	twigdb.StrategyEdge: plan.EdgePlan, twigdb.StrategyDataGuideEdge: plan.DataGuideEdgePlan,
	twigdb.StrategyFabricEdge: plan.FabricEdgePlan, twigdb.StrategyASR: plan.ASRPlan,
	twigdb.StrategyJoinIndex: plan.JoinIndexPlan, twigdb.StrategyXRel: plan.XRelPlan,
	twigdb.StrategyStructuralJoin: plan.StructuralJoinPlan,
}

// sweepPasses times the strategy matrix on the probe, which has every index
// built, for the workloads whose own rounds do not run it (paper-disk times
// it on the database under test in its timed phase).
func (p *layerProbe) sweepPasses() error {
	if p.r.cfg.workload == "paper-disk" {
		return nil
	}
	const passes = 3
	pats := make([]*xpath.Pattern, len(p.r.in.twigs))
	for i, q := range p.r.in.twigs {
		var err error
		if pats[i], err = xpath.Parse(q); err != nil {
			return err
		}
	}
	for _, strat := range sweep {
		var total time.Duration
		for pass := 0; pass <= passes; pass++ { // pass 0 warms the pool
			t0 := time.Now()
			for i, pat := range pats {
				ids, _, err := p.eng.QueryPattern(pat, planStrategy[strat])
				p.r.attempted++
				if err != nil || !slices.Equal(ids, p.r.twigWant[i]) {
					p.r.fail("probe %s under %v: %v", p.r.in.twigIDs[i], strat, err)
				}
			}
			if pass > 0 {
				total += time.Since(t0)
			}
		}
		p.r.set("plan."+strategyNames[strat]+"_ms_per_pass", "ms", millis(total)/passes)
	}
	return nil
}

func (p *layerProbe) release() {
	p.eng.Close()
	p.eng = nil
}

// countAllocs returns the heap allocations fn makes, with the collector off.
func countAllocs(fn func()) uint64 {
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// layerSumTolerance bounds how far parse + engine call, timed apart, may
// exceed the public Query they are parts of (median over lookups). The
// engine call runs on the probe, not on the database under test, so the
// margin covers the gap between the two instances as well as timer noise;
// a breach counts as one failed operation of the traced run.
const layerSumTolerance = 0.25

// layerMetrics derives the per-layer figures from the spans and the
// counters collected along the run.
func (r *runner) layerMetrics() map[string]metric {
	tr := r.tr
	type parts struct{ parse, engine, public time.Duration }
	byOp := map[int64]*parts{}
	for _, s := range tr.spans {
		if s.Kind != "lookup" {
			continue
		}
		p := byOp[s.Op]
		if p == nil {
			p = &parts{}
			byOp[s.Op] = p
		}
		d := time.Duration(s.End - s.Start)
		switch s.Name {
		case "xpath.parse":
			p.parse = d
		case "engine.query":
			p.engine = d
		case "twigdb.query":
			p.public = d
		}
	}
	var residual, ratio []time.Duration
	for _, p := range byOp {
		if p.public > 0 && p.engine > 0 {
			residual = append(residual, p.public-p.parse-p.engine)
			// ratio in thousandths, kept as a Duration to reuse quantile
			ratio = append(ratio, time.Duration(1000*float64(p.parse+p.engine)/float64(p.public)))
		}
	}
	sort.Slice(residual, func(i, j int) bool { return residual[i] < residual[j] })
	r.set("xpath.parse_us", "us", micros(quantile(tr.durations("xpath.parse", "lookup"), 0.5)))
	r.set("twigdb.result_us", "us", micros(quantile(residual, 0.5)))
	sumRatio := float64(quantile(ratio, 0.5)) / 1000
	r.set("trace.layer_sum_ratio", "ratio", sumRatio)
	r.attempted++
	if sumRatio > 1+layerSumTolerance {
		r.fail("layer check: parse + engine call is %.3f× the public Query, beyond the tolerance %.2f", sumRatio, 1+layerSumTolerance)
	}
	r.set("plan.choose_us", "us", micros(quantile(tr.durations("plan.choose", "lookup"), 0.5)))
	mean := func(name string) float64 {
		var sum time.Duration
		ds := append(tr.durations(name, "lookup"), tr.durations(name, "twig")...)
		for _, d := range ds {
			sum += d
		}
		return micros(sum) / float64(len(ds))
	}
	r.set("engine.query_us", "us", mean("engine.query"))
	r.set("plan.exec_us", "us", mean("plan.exec"))
	out := map[string]metric{}
	for name, m := range r.m {
		if strings.Contains(name, ".") {
			out[name] = m
		}
	}
	return out
}
