// Command perfbench is the repository's benchmark. It drives the real
// stack (TPC-D at scale factor 0.1 behind the paper's Table 4.1 cache)
// through its public API in a closed loop, checks every answer and every
// delivered staleness, and prints its metrics, the last line as one JSON
// object. See README.md for the workloads and metrics.
//
//	perfbench --workload point-zipf --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// setupRuns is how many times a run sets the system up; setup_s is the
// median.
const setupRuns = 9

// auditShare: the audited verification pass replays the first
// 1/auditShare of the op sequence.
const auditShare = 10

type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	attempted, failed int
	metrics           []metric
	// problems lists every failed check; the run is correct without any.
	problems []string
}

func main() {
	name := flag.String("workload", "", "workload: point-zipf, scan-join or write-mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "run length; a run is seconds times the workload's nominal op rate")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced run and per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload point-zipf|scan-join|write-mix, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	res, err := bench(w, *seed, w.opsPerSecond**seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := map[string]any{}
	for _, m := range res.metrics {
		fmt.Printf("%-30s %14.4f %s\n", m.name, m.value, m.unit)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct": len(res.problems) == 0, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if len(res.problems) > 0 {
		os.Exit(1)
	}
}

// bench runs n ops of workload w from seed: set-up, the untimed expected
// answers, the timed untraced pass, with traced the traced pass, and the
// audited verification pass.
func bench(w workload, seed int64, n int, traced bool) (*result, error) {
	seq := generate(w, seed, n)
	// setup_s is reported only with tracing off; the traced run sets up once.
	runs := setupRuns
	if traced {
		runs = 1
	}
	setups := make([]int64, 0, runs)
	var e *env
	for i := 0; i < runs; i++ {
		e = nil
		runtime.GC()
		var d time.Duration
		var err error
		if e, d, err = newEnv(); err != nil {
			return nil, err
		}
		setups = append(setups, int64(d))
	}
	if err := e.prepare(seq); err != nil {
		return nil, err
	}
	plain, err := e.run(seq, n, nil)
	if err != nil {
		return nil, err
	}
	res := &result{attempted: plain.ops, failed: plain.failed}
	if plain.failed > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d of %d ops failed a check", plain.failed, plain.ops))
	}

	if traced {
		runtime.GC()
		te, _, err := newEnv()
		if err != nil {
			return nil, err
		}
		if err := te.prepare(seq); err != nil {
			return nil, err
		}
		tr := newTracer(n)
		tp, err := te.run(seq, n, tr)
		if err != nil {
			return nil, err
		}
		res.attempted += tp.ops
		res.failed += tp.failed
		if tp.counts != plain.counts {
			res.problems = append(res.problems, fmt.Sprintf("traced counts %+v differ from untraced %+v", tp.counts, plain.counts))
		}
		res.metrics = layerMetrics(plain, tp, tr)
	} else {
		res.metrics = endToEnd(setups, plain)
	}

	problems, err := auditPass(seq, n/auditShare)
	if err != nil {
		return nil, err
	}
	res.problems = append(res.problems, problems...)
	return res, nil
}

// prepare computes what the run's answers are checked against.
func (e *env) prepare(seq *opSeq) error {
	for _, st := range seq.stmts {
		if st.kind == opScan {
			var err error
			e.expect, err = expectScans(e.sys)
			return err
		}
	}
	return nil
}

// auditPass replays the first n ops, untimed, on a fresh system with the
// delivered-guarantee auditor on. The auditor checks every guarded serve
// against the paper's Appendix-8 semantics and must find no violation.
func auditPass(seq *opSeq, n int) ([]string, error) {
	runtime.GC()
	e, _, err := newEnv()
	if err != nil {
		return nil, err
	}
	if err := e.prepare(seq); err != nil {
		return nil, err
	}
	aud := e.sys.EnableAudit()
	p, err := e.run(seq, n, nil)
	if err != nil {
		return nil, err
	}
	sum := aud.Summary()
	var problems []string
	if p.failed > 0 {
		problems = append(problems, fmt.Sprintf("audited pass: %d of %d ops failed a check", p.failed, p.ops))
	}
	if sum.ViolationsTotal > 0 || sum.ReadsChecked == 0 {
		problems = append(problems, fmt.Sprintf("audited pass: %d violations in %d checked reads", sum.ViolationsTotal, sum.ReadsChecked))
	}
	return problems, nil
}

func endToEnd(setups []int64, p *phase) []metric {
	return []metric{
		{"setup_s", float64(percentile(setups, 0.5)) / 1e9, "s"},
		{"ops_per_s", p.calmQuartile(true, 0, byOps, func(c chunk, _, _ []int64) float64 { return float64(c.ops) / c.wall.Seconds() }), "ops/s"},
		{"read_p50_us", p.calmQuartile(false, minP50, byReads, func(_ chunk, r, _ []int64) float64 { return float64(percentile(r, 0.5)) / 1e3 }), "us"},
		{"read_p99_us", p.calmQuartile(false, minP99, byReads, func(_ chunk, r, _ []int64) float64 { return float64(percentile(r, 0.99)) / 1e3 }), "us"},
		{"write_p50_us", p.calmQuartile(false, minP50, byWrites, func(_ chunk, _, w []int64) float64 { return float64(percentile(w, 0.5)) / 1e3 }), "us"},
		{"write_p99_us", p.calmQuartile(false, minP99, byWrites, func(_ chunk, _, w []int64) float64 { return float64(percentile(w, 0.99)) / 1e3 }), "us"},
		{"allocs_per_op", float64(p.mallocs) / float64(p.ops), "allocs"},
		{"heap_live_mb", float64(p.heapLive) / 1e6, "MB"},
		{"local_ratio", ratio(p.guardsLocal, p.guardsLocal+p.guardsRemote), "ratio"},
		{"staleness_p99_s", p.stalenessP99.Seconds(), "s"},
		{"success_ratio", ratio(int64(p.ops-p.failed), int64(p.ops)), "ratio"},
	}
}

// layerMetrics reports the traced pass t: span medians for the layer
// times, public counters for the counts. The runtime figures come from the
// untraced pass p, which tracing would distort. trace.overhead_ratio
// compares the two passes' wall times, the replays left out of the traced
// one, so it holds the cost of the spans, and the machine's drift between
// the two passes.
func layerMetrics(p, t *phase, tr *tracer) []metric {
	reads := int64(t.reads)
	ops := int64(t.ops)
	overhead := float64(percentile(tr.overhead, 0.5)) / 1e3
	return []metric{
		{"sqlparser.parse_us", tr.medianUS(layerParse), "us"},
		{"sqlparser.render_key_us", tr.medianUS(layerRenderKey), "us"},
		{"mtcache.plan_hit_ratio", ratio(t.planHits, t.planHits+t.planMisses), "ratio"},
		{"mtcache.query_us", tr.medianUS(layerQuery), "us"},
		{"mtcache.session_overhead_us", overhead, "us"},
		{"opt.plan_us", tr.medianUS(layerPlan), "us"},
		{"opt.plans_per_read", ratio(t.planMisses, reads), "count"},
		{"exec.build_us", tr.medianUS(layerBuild), "us"},
		{"exec.run_us", tr.medianUS(layerRun), "us"},
		{"exec.rows_out_per_read", ratio(t.rowsOut, reads), "count"},
		{"exec.guards_per_read", ratio(t.guardsLocal+t.guardsRemote, reads), "count"},
		{"remote.queries_per_read", ratio(t.link.Queries, reads), "count"},
		{"remote.rows_per_read", ratio(t.link.Rows, reads), "count"},
		{"remote.bytes_per_read", ratio(t.link.Bytes, reads), "B"},
		{"remote.failures", float64(t.link.Failures + t.link.Retries), "count"},
		{"backend.update_us", tr.medianUS(layerUpdate), "us"},
		{"backend.insert_us", tr.medianUS(layerInsert), "us"},
		{"txn.commits_per_op", ratio(t.commits, ops), "count"},
		{"repl.advance_us", float64(t.advance.Nanoseconds()) / 1e3 / float64(ops), "us"},
		{"repl.txns_applied_per_op", ratio(t.replTxns, ops), "count"},
		{"repl.rows_applied_per_op", ratio(t.replRows, ops), "count"},
		{"runtime.gc_cycles_per_kop", 1000 * ratio(int64(p.gcCycles), int64(p.ops)), "count"},
		{"runtime.alloc_bytes_per_op", ratio(int64(p.allocBytes), int64(p.ops)), "B"},
		{"trace.overhead_ratio", p.wall.Seconds() / (t.wall - tr.replayed()).Seconds(), "ratio"},
	}
}

// Samples a chunk group needs for a percentile: ten beyond it.
const (
	minP50 = 20
	minP99 = 1000
)

func byOps(c chunk) int    { return c.ops }
func byReads(c chunk) int  { return c.reads }
func byWrites(c chunk) int { return c.writes }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// percentile returns the nearest-rank q-quantile of samples (0 if empty)
// without reordering them.
func percentile(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
