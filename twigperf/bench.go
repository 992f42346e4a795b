package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"syscall"
	"time"

	twigdb "repro"
)

// defaultScale is the XMark scale every workload runs at: 160 items per
// region, ~50k nodes, a ~70 MB database file with the whole index family.
const defaultScale = 4

// Fixed operation counts. Every count below is the same in every run, so
// counters taken over them repeat exactly; only the timed phase varies its
// number of whole rounds with the speed of the host.
const (
	warmLookups  = 30  // point lookups per read-warm round
	diskLookups  = 100 // point lookups per paper-disk round
	churnLive    = 16  // rows kept live by the churn
	churnTail    = 96  // commits the read workloads run after their timed phase
	exactCommits = 16  // least timed commits; the written-bytes count is taken over these
	headRounds   = 400 // Auto read rounds update-churn runs before its timed phase
	allocRounds  = 2   // rounds the allocation count is taken over, GC off
	checkLookups = 30  // lookups in the backup / reopen check pass
)

var allKinds = []twigdb.IndexKind{
	twigdb.RootPaths, twigdb.DataPaths, twigdb.Edge, twigdb.DataGuide, twigdb.IndexFabric,
	twigdb.ASR, twigdb.JoinIndex, twigdb.XRel, twigdb.Containment,
}

var kindNames = map[twigdb.IndexKind]string{
	twigdb.RootPaths: "rootpaths", twigdb.DataPaths: "datapaths", twigdb.Edge: "edge",
	twigdb.DataGuide: "dataguide", twigdb.IndexFabric: "fabric", twigdb.ASR: "asr",
	twigdb.JoinIndex: "joinindex", twigdb.XRel: "xrel", twigdb.Containment: "containment",
}

// sweep is the paper's Section 5 strategy matrix, each pinned.
var sweep = []twigdb.Strategy{
	twigdb.StrategyRootPaths, twigdb.StrategyDataPaths, twigdb.StrategyEdge,
	twigdb.StrategyDataGuideEdge, twigdb.StrategyFabricEdge, twigdb.StrategyASR,
	twigdb.StrategyJoinIndex, twigdb.StrategyXRel, twigdb.StrategyStructuralJoin,
}

var strategyNames = map[twigdb.Strategy]string{
	twigdb.StrategyRootPaths: "rp", twigdb.StrategyDataPaths: "dp", twigdb.StrategyEdge: "edge",
	twigdb.StrategyDataGuideEdge: "dg_edge", twigdb.StrategyFabricEdge: "if_edge", twigdb.StrategyASR: "asr",
	twigdb.StrategyJoinIndex: "ji", twigdb.StrategyXRel: "xrel", twigdb.StrategyStructuralJoin: "sj",
}

// workloadSpec fixes a workload's regime. One phase fills the --seconds
// window; the other runs a fixed operation count after it (the read
// workloads' churn) or before it (update-churn's reads), never beside it.
type workloadSpec struct {
	poolBytes int64
	kinds     []twigdb.IndexKind
	rounds    []twigdb.Strategy // strategies of one read round; Auto alone for the warm rounds
	checks    []twigdb.Strategy // strategies the Backup and reopen checks run every twig under
	lookups   int
	// timedReads puts the read rounds in the --seconds window and runs a
	// fixed churn after them; otherwise fixed read rounds precede timed churn.
	timedReads bool
}

// persisted is Auto and every pinned strategy whose indices survive a
// Close-and-reopen or a Backup: all but the structural join, whose
// containment index the catalog does not persist.
var persisted = append([]twigdb.Strategy{twigdb.Auto}, sweep[:len(sweep)-1]...)

var workloads = map[string]workloadSpec{
	"read-warm": {poolBytes: 256 << 20, kinds: allKinds, rounds: []twigdb.Strategy{twigdb.Auto},
		checks: persisted, lookups: warmLookups, timedReads: true},
	"paper-disk": {poolBytes: 4 << 20, kinds: allKinds, rounds: sweep,
		checks: persisted, lookups: diskLookups, timedReads: true},
	"update-churn": {poolBytes: 256 << 20, kinds: []twigdb.IndexKind{twigdb.RootPaths, twigdb.DataPaths}, rounds: []twigdb.Strategy{twigdb.Auto},
		checks: []twigdb.Strategy{twigdb.Auto, twigdb.StrategyRootPaths, twigdb.StrategyDataPaths}, lookups: warmLookups},
}

func workloadNames() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    int
	workDir  string
}

// runner holds one run's state.
type runner struct {
	cfg   config
	spec  workloadSpec
	in    *input
	dir   string
	path  string
	db    *twigdb.DB
	tr    *tracer // nil in untraced runs
	layer *layerProbe

	twigWant [][]int64 // Oracle answer per twig
	next     int       // next lookup in the seeded permutation

	attempted, failed int64
	errs              []string
	m                 map[string]metric
	notes             []string
}

func (r *runner) set(name, unit string, v float64) { r.m[name] = metric{Value: v, Unit: unit} }

// tail records a tail latency. On this kind of shared host the tails spread
// by more than the largest bound an end-to-end metric may have, so they are
// per-layer metrics of the public API (traced runs) and a note otherwise.
func (r *runner) tail(name, unit string, v float64) {
	if r.tr != nil {
		r.set(name, unit, v)
		return
	}
	r.notes = append(r.notes, fmt.Sprintf("tail %s = %.6g %s (not gated)", name, v, unit))
}

// fail counts one failed operation; the first few are kept for the report.
func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func run(cfg config) (*result, error) {
	r := &runner{cfg: cfg, spec: workloads[cfg.workload], m: map[string]metric{}}
	base, err := filepath.Abs(cfg.workDir)
	if err != nil {
		return nil, fmt.Errorf("resolving %s: %w", cfg.workDir, err)
	}
	r.dir = filepath.Join(base, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating work directory: %w", err)
	}
	defer os.RemoveAll(r.dir)
	r.path = filepath.Join(r.dir, "xmark.twigdb")
	if cfg.trace {
		r.tr = newTracer()
	}

	r.in, err = makeInput(cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r.db != nil {
			r.db.Close()
		}
	}()
	if err := r.setup(); err != nil {
		return nil, err
	}
	if err := r.body(); err != nil {
		return nil, err
	}

	var metrics map[string]metric
	var spanNote string
	if cfg.trace {
		spanFile := filepath.Join(base, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := r.tr.write(spanFile); err != nil {
			return nil, err
		}
		spanNote = fmt.Sprintf("spans: %d written to %s", len(r.tr.spans), spanFile)
		metrics = r.layerMetrics()
	} else {
		metrics = r.endToEnd()
	}
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics, notes: r.notes}
	if spanNote != "" {
		res.notes = append(res.notes, spanNote)
	}
	for _, e := range r.errs {
		res.notes = append(res.notes, "failure: "+e)
		fmt.Fprintln(os.Stderr, "twigperf: failure:", e)
	}
	res.envelope = r.envelope(base)
	return res, nil
}

// setup opens the database, loads the generated text and builds the
// workload's indices — the timed set-up — then checkpoints (untimed) so
// every workload starts from a file with an empty write-ahead log.
func (r *runner) setup() error {
	t0 := time.Now()
	db, err := twigdb.Open(&twigdb.Options{Path: r.path, BufferPoolBytes: r.spec.poolBytes})
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	r.db = db
	if err := db.LoadXMLString(r.in.text); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	if err := db.Build(r.spec.kinds...); err != nil {
		return fmt.Errorf("build: %w", err)
	}
	r.set("setup_s", "s", time.Since(t0).Seconds())
	r.notes = append(r.notes, fmt.Sprintf("process age at end of set-up: %.3f s", time.Since(processStart).Seconds()))
	if err := db.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint after set-up: %w", err)
	}
	for _, q := range r.in.twigs {
		res, err := db.QueryWith(twigdb.Oracle, q)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", q, err)
		}
		r.twigWant = append(r.twigWant, res.IDs)
	}
	if r.tr != nil {
		r.layer, err = newLayerProbe(r)
		if err != nil {
			return err
		}
	}
	return nil
}

// body runs the workload's phases. The read workloads take their end-of-run
// checks and counts on their own index set, before the churn tail, because
// Tx.Insert drops every index but ROOTPATHS and DATAPATHS.
func (r *runner) body() error {
	if err := r.readPhases(); err != nil {
		return err
	}
	if r.spec.timedReads {
		if err := r.closing(); err != nil {
			return err
		}
		return r.churnPhase(false, churnTail)
	}
	if err := r.churnPhase(true, 0); err != nil {
		return err
	}
	return r.closing()
}

// readPhases runs every lookup once on its first, uncached plan (timed as
// lookup_cold_p50_us), one round to fill the pool, then the read phase:
// timed for the read workloads, a fixed count for update-churn. Every
// timed lookup then finds its plan cached, so the mix stays the same from
// the first round to the last.
func (r *runner) readPhases() error {
	cold := make([]time.Duration, 0, len(r.in.lookups))
	for _, lk := range r.in.lookups {
		res, d, err := r.query(twigdb.Auto, lk.query, "cold", r.tr != nil)
		cold = append(cold, d)
		r.attempted++
		r.checkLookup(res, err, lk, "cold lookup")
	}
	r.set("lookup_cold_p50_us", "us", micros(quantile(cold, 0.50)))
	var warm readStats
	r.readRound(&warm, false)
	var st readStats
	if err := r.readPhase(&st, r.spec.timedReads, headRounds); err != nil {
		return err
	}
	r.reportReads(&st)
	return nil
}

// closing times the probe's remaining layers, then runs the final checks.
func (r *runner) closing() error {
	if r.layer != nil {
		if err := r.layer.finish(); err != nil {
			return err
		}
	}
	return r.finalChecks()
}

// readStats accumulates one read phase.
type readStats struct {
	queries  int64
	busy     time.Duration // summed wall time of the queries themselves
	cpu      time.Duration // summed process CPU time of the queries themselves
	lookups  []time.Duration
	perStrat map[twigdb.Strategy]time.Duration
	passes   int

	allocsPerQuery float64
	work           twigdb.ExecStats // exact counters over the allocation rounds
	counted        int64
	devReadsPass   int64
	devBytesPass   int64
	passQueries    int64
	cacheHits      int64
	indexed        int64
	plain          time.Duration // untraced public-call time, traced runs only
	plainN         int64
}

// readPhase runs read rounds: for --seconds when timed, else a fixed count.
// The first timed round also measures the device bytes of one whole pass.
func (r *runner) readPhase(st *readStats, timed bool, fixed int) error {
	q0 := r.db.QueryStats()
	if r.tr != nil {
		// A short untraced stretch gives the per-query baseline the tracing
		// overhead is measured against.
		for i := 0; i < 3; i++ {
			var plain readStats
			r.readRound(&plain, false)
			st.plain += plain.busy
			st.plainN += plain.queries
		}
	}
	s0 := r.db.StorageStats()
	start := time.Now()
	for round := 0; ; round++ {
		r.readRound(st, r.tr != nil)
		if round == 0 {
			s1 := r.db.StorageStats()
			st.devReadsPass = s1.Reads - s0.Reads
			st.devBytesPass = s1.BytesRead - s0.BytesRead
			st.passQueries = st.queries
		}
		if timed && time.Since(start).Seconds() >= r.cfg.seconds {
			break
		}
		if !timed && round+1 >= fixed {
			break
		}
	}
	q1 := r.db.QueryStats()
	st.cacheHits, st.indexed = q1.PlanCacheHits-q0.PlanCacheHits, q1.Queries-q0.Queries
	return r.allocRounds(st)
}

// readRound runs one round: every twig under every strategy of the
// workload's round, then the next block of seeded point lookups (Auto).
// Each answer is checked against the Oracle or the generated document.
func (r *runner) readRound(st *readStats, traced bool) {
	if st.perStrat == nil {
		st.perStrat = map[twigdb.Strategy]time.Duration{}
	}
	for _, strat := range r.spec.rounds {
		var pass time.Duration
		for i, q := range r.in.twigs {
			c0 := cpuTime()
			res, d, err := r.query(strat, q, "twig", traced)
			st.cpu += cpuTime() - c0
			pass += d
			r.attempted++
			if err != nil {
				r.fail("%s under %v: %v", r.in.twigIDs[i], strat, err)
				continue
			}
			if !slices.Equal(res.IDs, r.twigWant[i]) {
				r.fail("%s under %v: %d ids, Oracle has %d", r.in.twigIDs[i], strat, len(res.IDs), len(r.twigWant[i]))
			}
		}
		st.perStrat[strat] += pass
		st.busy += pass
		st.queries += int64(len(r.in.twigs))
	}
	for k := 0; k < r.spec.lookups; k++ {
		lk := r.in.lookups[r.next%len(r.in.lookups)]
		r.next++
		c0 := cpuTime()
		res, d, err := r.query(twigdb.Auto, lk.query, "lookup", traced)
		st.cpu += cpuTime() - c0
		st.busy += d
		st.queries++
		st.lookups = append(st.lookups, d)
		r.attempted++
		r.checkLookup(res, err, lk, "lookup")
	}
	st.passes++
}

// query runs one public query, traced with its layer calls when asked.
func (r *runner) query(strat twigdb.Strategy, q, kind string, traced bool) (*twigdb.Result, time.Duration, error) {
	if traced {
		return r.layer.query(strat, q, kind)
	}
	t0 := time.Now()
	res, err := r.db.QueryWith(strat, q)
	return res, time.Since(t0), err
}

func (r *runner) checkLookup(res *twigdb.Result, err error, lk lookup, what string) {
	if err != nil {
		r.fail("%s %s: %v", what, lk.query, err)
		return
	}
	nodes := res.Nodes()
	if len(nodes) != 1 || nodes[0].Value != lk.want {
		r.fail("%s %s: got %v, the document has %q", what, lk.query, nodes, lk.want)
	}
}

// allocRounds counts heap allocations per public query over fixed rounds
// with the collector off (so pooled buffers survive and the count repeats),
// replaying the lookups of the warm-up round, whose plans are cached.
func (r *runner) allocRounds(st *readStats) error {
	type call struct {
		strat twigdb.Strategy
		q     string
		want  []int64
		lk    *lookup
	}
	var calls []call
	for round := 0; round < allocRounds; round++ {
		for _, strat := range r.spec.rounds {
			for i, q := range r.in.twigs {
				calls = append(calls, call{strat: strat, q: q, want: r.twigWant[i]})
			}
		}
		for k := 0; k < r.spec.lookups; k++ {
			lk := &r.in.lookups[k%len(r.in.lookups)]
			calls = append(calls, call{strat: twigdb.Auto, q: lk.query, lk: lk})
		}
	}
	results := make([]*twigdb.Result, len(calls))
	errs := make([]error, len(calls))
	gc := debug.SetGCPercent(-1)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, c := range calls {
		results[i], errs[i] = r.db.QueryWith(c.strat, c.q)
	}
	runtime.ReadMemStats(&m1)
	debug.SetGCPercent(gc)
	st.allocsPerQuery = float64(m1.Mallocs-m0.Mallocs) / float64(len(calls))
	for i, c := range calls {
		r.attempted++
		if c.lk != nil {
			r.checkLookup(results[i], errs[i], *c.lk, "lookup")
			continue
		}
		if errs[i] != nil {
			r.fail("%s under %v: %v", c.q, c.strat, errs[i])
			continue
		}
		if !slices.Equal(results[i].IDs, c.want) {
			r.fail("%s under %v: wrong ids", c.q, c.strat)
		}
	}
	for _, res := range results {
		if res == nil {
			continue
		}
		s := &st.work
		s.IndexLookups += res.Stats.IndexLookups
		s.RowsScanned += res.Stats.RowsScanned
		s.JoinTuplesIn += res.Stats.JoinTuplesIn
		s.INLProbes += res.Stats.INLProbes
		st.counted++
	}
	return nil
}

func (r *runner) reportReads(st *readStats) {
	r.set("read_qps", "1/cpu-s", float64(st.queries)/st.cpu.Seconds())
	r.set("lookup_p50_us", "us", micros(quantile(st.lookups, 0.50)))
	r.tail("twigdb.lookup_p99_us", "us", micros(quantile(st.lookups, 0.99)))
	r.set("allocs_per_query", "allocs", st.allocsPerQuery)
	if r.cfg.workload == "paper-disk" {
		r.set("device_kb_per_query", "KB", float64(st.devBytesPass)/1024/float64(st.passQueries))
	}
	r.notes = append(r.notes, fmt.Sprintf("reads: %d queries in %d rounds, %d lookup samples, %.3f s busy, %.3f s CPU; %.0f queries per wall second",
		st.queries, st.passes, len(st.lookups), st.busy.Seconds(), st.cpu.Seconds(), float64(st.queries)/st.busy.Seconds()))
	if r.tr == nil {
		return
	}
	for strat, d := range st.perStrat {
		if name, ok := strategyNames[strat]; ok {
			r.set("plan."+name+"_ms_per_pass", "ms", float64(d.Microseconds())/1000/float64(st.passes))
		}
	}
	n := float64(st.counted)
	r.set("plan.index_lookups_per_query", "count", float64(st.work.IndexLookups)/n)
	r.set("plan.rows_scanned_per_query", "count", float64(st.work.RowsScanned)/n)
	r.set("plan.join_tuples_per_query", "count", float64(st.work.JoinTuplesIn)/n)
	r.set("plan.inl_probes_per_query", "count", float64(st.work.INLProbes)/n)
	r.set("engine.plan_cache_hit_ratio", "ratio", float64(st.cacheHits)/float64(st.indexed))
	r.set("storage.device_reads_per_pass", "count", float64(st.devReadsPass))
	if r.cfg.workload == "paper-disk" {
		r.set("storage.pool_miss_us", "us", micros(r.db.Metrics().PoolMissLatency.P50))
	}
	tracedPer := r.tr.publicTime().Seconds() / float64(r.tr.publicCalls())
	plainPer := st.plain.Seconds() / float64(st.plainN)
	r.set("trace.overhead_pct", "%", (tracedPer/plainPer-1)*100)
}

// churnPhase runs update transactions: each inserts one row under
// /site/people, deletes the oldest row beyond the live set, commits, and
// reads the new row back on the fresh snapshot. Timed runs fill --seconds
// with commits, at least exactCommits; otherwise it runs n commits. The live set is filled
// before and drained after, and the drained database must match set-up.
func (r *runner) churnPhase(timed bool, n int) error {
	nodes0 := r.db.NodeCount()
	rp0, dp0 := r.pathEntries()
	people, err := r.db.Query(`/site/people`)
	if err != nil || len(people.IDs) != 1 {
		return fmt.Errorf("finding /site/people: %v", err)
	}
	parent := people.IDs[0]
	var live []int64
	seq := 0
	commit := func(measure *churnStats) error {
		frag, read := churnRow(seq)
		var gone lookup
		seq++
		if measure != nil && r.tr != nil {
			r.tr.op++
		}
		c0, t0 := cpuTime(), time.Now()
		tx := r.db.Begin()
		r.attempted++
		id, err := r.stmt(measure, func() (int64, error) { return tx.Insert(parent, frag) })
		if err == nil && len(live) >= churnLive {
			_, err = r.stmt(measure, func() (int64, error) { return 0, tx.Delete(live[0]) })
			_, gone = churnRow(seq - 1 - churnLive)
		}
		if err != nil {
			tx.Rollback()
			r.fail("churn statement: %v", err)
			return nil
		}
		tc := time.Now()
		err = tx.Commit()
		end, c1 := time.Now(), cpuTime()
		if err != nil {
			if errors.Is(err, twigdb.ErrConflict) {
				r.fail("churn commit conflicted with no other writer: %v", err)
				return nil
			}
			return fmt.Errorf("churn commit: %w", err)
		}
		if len(live) >= churnLive {
			live = live[1:]
		}
		live = append(live, id)
		if measure == nil {
			return nil
		}
		measure.commits = append(measure.commits, end.Sub(t0))
		measure.commitCPU = append(measure.commitCPU, c1-c0)
		measure.commitCalls = append(measure.commitCalls, end.Sub(tc))
		if r.tr != nil {
			r.tr.record("twigdb.commit", r.tr.op, tc, end)
			r.tr.record("twigdb.tx", r.tr.op, t0, end)
		}
		res, d, err := r.query(twigdb.Auto, read.query, "fresh", r.tr != nil)
		measure.fresh = append(measure.fresh, d)
		r.attempted++
		r.checkLookup(res, err, read, "fresh read")
		if gone.query != "" {
			r.attempted++
			res, err := r.db.Query(gone.query)
			if err != nil || len(res.IDs) != 0 {
				r.fail("deleted row %s still answers (%v)", gone.query, err)
			}
		}
		return nil
	}
	for len(live) < churnLive {
		if err := commit(nil); err != nil {
			return err
		}
	}
	var st churnStats
	s0 := r.db.StorageStats()
	start := time.Now()
	for i := 0; ; i++ {
		if err := commit(&st); err != nil {
			return err
		}
		if i+1 == exactCommits {
			s1 := r.db.StorageStats()
			st.exactBytes = s1.BytesWritten - s0.BytesWritten
		}
		if timed && i+1 >= exactCommits && time.Since(start).Seconds() >= r.cfg.seconds {
			break
		}
		if !timed && i+1 >= n {
			break
		}
	}
	s1 := r.db.StorageStats()
	// Drain the live set in one transaction.
	r.attempted++
	err = r.db.Update(func(tx *twigdb.Tx) error {
		for _, id := range live {
			if err := tx.Delete(id); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		r.fail("draining the live set: %v", err)
	}
	rp1, dp1 := r.pathEntries()
	if nodes1 := r.db.NodeCount(); nodes1 != nodes0 || rp1 != rp0 || dp1 != dp0 {
		r.fail("after draining: nodes %d→%d, ROOTPATHS entries %d→%d, DATAPATHS entries %d→%d",
			nodes0, nodes1, rp0, rp1, dp0, dp1)
	}
	r.reportChurn(&st, s0, s1)
	return nil
}

// stmt runs one transaction statement, recording its span when tracing.
func (r *runner) stmt(measure *churnStats, fn func() (int64, error)) (int64, error) {
	t0 := time.Now()
	id, err := fn()
	if measure != nil && r.tr != nil {
		r.tr.record("twigdb.stmt", r.tr.op, t0, time.Now())
	}
	return id, err
}

type churnStats struct {
	commits     []time.Duration // Begin → Commit returned
	commitCPU   []time.Duration // process CPU time over the same span
	commitCalls []time.Duration // Tx.Commit alone
	fresh       []time.Duration
	exactBytes  int64
}

func (r *runner) reportChurn(st *churnStats, s0, s1 twigdb.StorageStats) {
	n := float64(len(st.commits))
	var busy, cpu time.Duration
	for i := range st.commits {
		busy += st.commits[i]
		cpu += st.commitCPU[i]
	}
	r.set("commit_tps", "1/cpu-s", n/cpu.Seconds())
	r.set("commit_p50_ms", "cpu-ms", millis(quantile(st.commitCPU, 0.50)))
	r.tail("twigdb.commit_p90_ms", "ms", millis(quantile(st.commits, 0.90)))
	r.set("written_kb_per_commit", "KB", float64(st.exactBytes)/1024/exactCommits)
	r.set("fresh_read_p50_us", "us", micros(quantile(st.fresh, 0.50)))
	r.notes = append(r.notes, fmt.Sprintf("churn: %d commits in %.3f s busy, %.3f s CPU; %d checkpoints; wall: %.2f commits/s, p50 %.2f ms",
		len(st.commits), busy.Seconds(), cpu.Seconds(), s1.Checkpoints-s0.Checkpoints, n/busy.Seconds(), millis(quantile(st.commits, 0.50))))
	if r.tr == nil {
		return
	}
	met := r.db.Metrics()
	r.set("twigdb.stmt_ms", "ms", millis(r.tr.median("twigdb.stmt")))
	r.set("twigdb.commit_call_ms", "ms", millis(quantile(st.commitCalls, 0.50)))
	r.set("engine.commit_latency_ms", "ms", millis(met.CommitLatency.P50))
	r.set("storage.wal_fsync_ms", "ms", millis(met.WALFsyncLatency.P50))
	r.set("storage.fsyncs_per_commit", "count", float64(s1.WALFsyncs-s0.WALFsyncs)/n)
	r.set("storage.pages_written_per_commit", "count", float64(s1.Writes-s0.Writes)/n)
	r.set("storage.checkpoints", "count", float64(s1.Checkpoints-s0.Checkpoints))
}

// pathEntries returns the ROOTPATHS and DATAPATHS entry counts.
func (r *runner) pathEntries() (rp, dp int64) {
	for _, s := range r.db.IndexSpaces() {
		switch s.Kind {
		case twigdb.RootPaths:
			rp = s.Entries
		case twigdb.DataPaths:
			dp = s.Entries
		}
	}
	return rp, dp
}

// finalChecks compares a Backup copy and a Close-and-reopen of the database
// with the independent answers, measures the file, the cold device reads of
// the reopened database and the live heap.
func (r *runner) finalChecks() error {
	backup := filepath.Join(r.dir, "backup.twigdb")
	r.attempted++
	if err := r.db.Backup(backup); err != nil {
		r.fail("backup: %v", err)
	} else {
		bdb, err := twigdb.Open(&twigdb.Options{Path: backup, BufferPoolBytes: r.spec.poolBytes})
		if err != nil {
			r.fail("opening the backup: %v", err)
		} else {
			r.checkPass(bdb, "backup", r.spec.checks)
			if err := bdb.Close(); err != nil {
				r.fail("closing the backup: %v", err)
			}
		}
	}
	err := r.db.Close()
	r.db = nil
	if err != nil {
		return fmt.Errorf("close: %w", err)
	}
	r.set("db_file_mb", "MB", float64(fileSize(r.path)+fileSize(r.path+".wal"))/(1<<20))

	db, err := twigdb.Open(&twigdb.Options{Path: r.path, BufferPoolBytes: r.spec.poolBytes})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	r.db = db
	// The Auto pass goes first, on the cold pool of the reopened database.
	s0 := db.StorageStats()
	n := r.checkPass(db, "reopen", r.spec.checks[:1])
	s1 := db.StorageStats()
	r.checkPass(db, "reopen", r.spec.checks[1:])
	if r.cfg.workload != "paper-disk" {
		r.set("device_kb_per_query", "KB", float64(s1.BytesRead-s0.BytesRead)/1024/float64(n))
		if r.tr != nil {
			r.set("storage.pool_miss_us", "us", micros(db.Metrics().PoolMissLatency.P50))
		}
	}
	r.in = nil
	if r.layer != nil {
		r.layer.release()
	}
	// Twice: the first collection moves sync.Pool contents to the victim
	// cache, the second frees them, so pooled buffers grown by earlier
	// phases do not count as live.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("heap_mb", "MB", float64(ms.HeapAlloc)/(1<<20))
	return nil
}

// checkPass runs every twig under each of strats on db, and a fixed block
// of lookups with the Auto pass, and compares each answer with the
// Oracle's or the document's. It returns the number of queries run.
func (r *runner) checkPass(db *twigdb.DB, what string, strats []twigdb.Strategy) int {
	n := 0
	for _, strat := range strats {
		for i, q := range r.in.twigs {
			r.attempted++
			n++
			res, err := db.QueryWith(strat, q)
			if err != nil || !slices.Equal(res.IDs, r.twigWant[i]) {
				r.fail("%s: %s under %v answers differently (%v)", what, r.in.twigIDs[i], strat, err)
			}
		}
		if strat != twigdb.Auto {
			continue
		}
		for k := 0; k < checkLookups; k++ {
			lk := r.in.lookups[k%len(r.in.lookups)]
			r.attempted++
			n++
			res, err := db.Query(lk.query)
			r.checkLookup(res, err, lk, what+" lookup")
		}
	}
	return n
}

// endToEnd returns the untraced run's metrics.
func (r *runner) endToEnd() map[string]metric {
	out := map[string]metric{}
	for _, name := range []string{
		"setup_s", "read_qps", "lookup_p50_us", "lookup_cold_p50_us", "allocs_per_query", "device_kb_per_query",
		"commit_tps", "commit_p50_ms", "written_kb_per_commit", "fresh_read_p50_us",
		"db_file_mb", "heap_mb",
	} {
		out[name] = r.m[name]
	}
	return out
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// quantile returns the q-quantile of the samples (nearest rank).
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(q*float64(len(s)-1)+0.5)]
}

// cpuTime is the CPU time the process has used, user and system, over all
// its threads. Unlike wall time it leaves out the time the host ran other
// guests on this one's vCPUs (steal), which on a shared host comes in
// slices of milliseconds and lands on every long operation.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
