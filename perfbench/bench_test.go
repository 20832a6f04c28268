package main

import (
	"testing"

	"relaxedcc/internal/core"
	"relaxedcc/internal/fault"
	"relaxedcc/internal/sqltypes"
)

// testOps is the run length of these tests: over 400 virtual seconds, so
// replication and heartbeats go through many cycles and the write trickle
// comes at least once.
const testOps = 40000

func mustEnv(t *testing.T, seq *opSeq) *env {
	t.Helper()
	e, _, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.prepare(seq); err != nil {
		t.Fatal(err)
	}
	return e
}

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w
}

func successRatio(p *phase) float64 {
	for _, m := range endToEnd([]int64{1}, p) {
		if m.name == "success_ratio" {
			return m.value
		}
	}
	return -1
}

// Two runs of one seed repeat the op sequence and every C&C output and
// count; another seed draws another sequence; the traced run, which adds
// spans and layer-by-layer replays, changes no count.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			n := testOps
			if w.name == "scan-join" {
				n = 4000
			}
			seq := generate(w, 7, n)
			if again := generate(w, 7, n); again.digest != seq.digest {
				t.Fatalf("same seed, different op sequences: %s vs %s", seq.digest, again.digest)
			}
			if other := generate(w, 8, n); other.digest == seq.digest {
				t.Fatal("seeds 7 and 8 drew the same op sequence")
			}
			var runs []*phase
			for _, tr := range []*tracer{nil, nil, newTracer(n)} {
				p, err := mustEnv(t, seq).run(seq, n, tr)
				if err != nil {
					t.Fatal(err)
				}
				if p.failed != 0 {
					t.Fatalf("%d of %d ops failed a check", p.failed, p.ops)
				}
				runs = append(runs, p)
			}
			if runs[1].counts != runs[0].counts {
				t.Errorf("same seed, different counts:\n%+v\n%+v", runs[0].counts, runs[1].counts)
			}
			if runs[2].counts != runs[0].counts {
				t.Errorf("traced counts differ from untraced:\n%+v\n%+v", runs[2].counts, runs[0].counts)
			}
			c := runs[0].counts
			if c.reads == 0 || c.writes == 0 || c.guardsLocal == 0 || c.planHits == 0 || c.commits == 0 || c.replRows == 0 {
				t.Errorf("a layer went unexercised: %+v", c)
			}
		})
	}
}

// A wrong expected answer must fail the scan-join reads that check against
// it.
func TestCorruptedExpectationFails(t *testing.T) {
	w := mustWorkload(t, "scan-join")
	seq := generate(w, 3, 1000)
	e := mustEnv(t, seq)
	e.expect[5].sum ^= 1
	p, err := e.run(seq, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, id := range seq.ops {
		if st := seq.stmts[id]; st.kind == opScan && st.fixed == 5 {
			want++
		}
	}
	if want == 0 || p.failed != want {
		t.Fatalf("%d ops failed, want the %d reads of statement 5", p.failed, want)
	}
	if r := successRatio(p); r >= 1 {
		t.Fatalf("success_ratio %v with a corrupted expectation", r)
	}
}

// brokenGuard wedges every replication agent for good and forges each
// region's heartbeat fresh before every read, the shape of the chaos
// harness's guard-lie fixture: the guards see staleness zero and keep
// serving local data that is in fact ever staler.
func brokenGuard(e *env) {
	inj := fault.New(1)
	e.sys.InjectFaults(inj)
	inj.SetStallSurvivesRestart(true)
	for _, r := range regions {
		inj.StallAgent(r, true)
	}
	e.beforeRead = func(sys *core.System) {
		for _, r := range regions {
			sys.Cache.SetLastSync(r, sys.Clock.Now())
		}
	}
}

// Reads behind a lying heartbeat exceed their bound; the benchmark must see
// it from the commit log, since the staleness the cache reports stays zero,
// and so must the auditor.
func TestBrokenGuardFails(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			n := testOps
			if w.name == "scan-join" {
				n = 4000
			}
			seq := generate(w, 5, n)
			e := mustEnv(t, seq)
			aud := e.sys.EnableAudit()
			brokenGuard(e)
			p, err := e.run(seq, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r := successRatio(p); r >= 1 {
				t.Fatalf("success_ratio %v behind a forged heartbeat", r)
			}
			if p.stalenessP99 != 0 {
				t.Errorf("reported staleness p99 %v, want 0 under the forged heartbeat", p.stalenessP99)
			}
			if v := aud.Summary().ViolationsTotal; v == 0 {
				t.Error("the auditor found no violation behind a forged heartbeat")
			}
		})
	}
}

// The audited verification pass finds no violation on any workload.
func TestAuditPassClean(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			problems, err := auditPass(generate(w, 9, 2000), 2000)
			if err != nil {
				t.Fatal(err)
			}
			if len(problems) > 0 {
				t.Fatal(problems)
			}
		})
	}
}

func TestNameIs(t *testing.T) {
	for _, c := range []struct {
		name string
		key  int64
		want bool
	}{
		{"Customer#000000017", 17, true},
		{"Customer#000000017", 18, false},
		{"Customer#000000017", 1000000017, false},
		{"Customer#00000017", 17, false},
		{"Client###000000017", 17, false},
	} {
		if got := nameIs(sqltypes.NewString(c.name), c.key); got != c.want {
			t.Errorf("nameIs(%q, %d) = %v", c.name, c.key, got)
		}
	}
}
