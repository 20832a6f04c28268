package main

import (
	"time"

	"relaxedcc/internal/exec"
	"relaxedcc/internal/opt"
	"relaxedcc/internal/sqlparser"
)

// layer names a span. Spans are recorded by the benchmark around its own
// calls into each package's public functions; the program itself is not
// instrumented.
type layer uint8

const (
	layerQuery     layer = iota // mtcache: Session.Query
	layerUpdate                 // backend: System.Exec of an UPDATE
	layerInsert                 // backend: System.Exec of an INSERT
	layerReplay                 // the layered replay of one sampled read
	layerParse                  // sqlparser.ParseSelect
	layerRenderKey              // sqlparser.SelectSQL, the plan-cache key
	layerPlan                   // Cache.Plan: optimization
	layerBuild                  // Plan.Build: operator instantiation
	layerRun                    // exec.Run: guard, execution, remote link
)

const noParent = -1

// span is one timed call. parent is the index of the enclosing span in
// tracer.spans: the replay span for the layers it replays, noParent
// otherwise.
type span struct {
	parent     int32
	layer      layer
	start, end time.Time
}

// tracer keeps a traced run's spans in memory. It traces every write and
// every every-th op; reads among the latter are also replayed layer by
// layer.
type tracer struct {
	every    int
	spans    []span
	overhead []int64 // per replayed read: query time minus its replayed layers
}

// replaysPerRun is about how many reads a traced run replays.
const replaysPerRun = 8192

func newTracer(ops int) *tracer {
	every := ops / replaysPerRun
	if every < 1 {
		every = 1
	}
	return &tracer{every: every, spans: make([]span, 0, 8*replaysPerRun)}
}

func (t *tracer) add(parent int32, l layer, start, end time.Time) int32 {
	t.spans = append(t.spans, span{parent: parent, layer: l, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// replay runs one read again through the public functions Session.Query
// chains, one span each, under one replay span: parse, render the
// plan-cache key, optimize, instantiate the operators, execute. It returns
// the replayed row count. query is the session's time for the same read and
// hit whether it hit the plan cache: a hit builds, a miss optimizes, and
// what the replayed layers do not cover is the session's own overhead.
func (e *env) replay(t *tracer, sql string, query time.Duration, hit bool) (int, error) {
	t0 := time.Now()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	_ = sqlparser.SelectSQL(sel)
	t2 := time.Now()
	plan, _, err := e.sys.Cache.Plan(sel, opt.Options{})
	if err != nil {
		return 0, err
	}
	t3 := time.Now()
	root, err := plan.Build()
	if err != nil {
		return 0, err
	}
	t4 := time.Now()
	res, err := exec.Run(root, &exec.EvalContext{Now: e.sys.Clock.Now(), Clock: e.sys.Clock}, 0)
	if err != nil {
		return 0, err
	}
	t5 := time.Now()
	r := t.add(noParent, layerReplay, t0, t5)
	t.add(r, layerParse, t0, t1)
	t.add(r, layerRenderKey, t1, t2)
	t.add(r, layerPlan, t2, t3)
	t.add(r, layerBuild, t3, t4)
	t.add(r, layerRun, t4, t5)
	covered := t2.Sub(t0) + t5.Sub(t4)
	if hit {
		covered += t4.Sub(t3)
	} else {
		covered += t3.Sub(t2)
	}
	t.overhead = append(t.overhead, int64(query-covered))
	return len(res.Rows), nil
}

// durations returns the durations of layer l's spans.
func (t *tracer) durations(l layer) []int64 {
	var d []int64
	for _, s := range t.spans {
		if s.layer == l {
			d = append(d, int64(s.end.Sub(s.start)))
		}
	}
	return d
}

// medianUS returns the median duration of layer l's spans in microseconds.
func (t *tracer) medianUS(l layer) float64 {
	return float64(percentile(t.durations(l), 0.5)) / 1e3
}

// replayed returns the wall time the replays took, which the traced pass's
// wall time leaves out when it is compared with the untraced pass's.
func (t *tracer) replayed() time.Duration {
	var sum int64
	for _, d := range t.durations(layerReplay) {
		sum += d
	}
	return time.Duration(sum)
}
