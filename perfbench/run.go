package main

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"relaxedcc/internal/core"
	"relaxedcc/internal/mtcache"
	"relaxedcc/internal/obs"
	"relaxedcc/internal/remote"
	"relaxedcc/internal/tpcd"
)

// env is one loaded system, one client session on it, and the public
// counters a run reads.
type env struct {
	sys     *core.System
	sess    *mtcache.Session
	commits *commitIndex
	// expect holds the scan-join answers, computed on the back end.
	expect []answer

	planHits, planMisses *obs.Counter
	// Per region, in the order of regions.
	guardLocal, guardRemote, replTxns, replRows []*obs.Counter

	// beforeRead, when set, runs before every read. The negative-control
	// tests use it to forge a fresh heartbeat over a wedged agent.
	beforeRead func(*core.System)
}

// newEnv loads the data set and sets up the cache, returning the wall time
// that took: the benchmark's set-up time.
func newEnv() (*env, time.Duration, error) {
	start := time.Now()
	sys, err := tpcd.NewLoadedSystem(dataCfg)
	setup := time.Since(start)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	reg := sys.Cache.Obs()
	e := &env{
		sys:        sys,
		sess:       sys.Cache.NewSession(),
		commits:    newCommitIndex(sys.Backend.Log()),
		planHits:   reg.Counter("mtcache_plan_cache_hits_total"),
		planMisses: reg.Counter("mtcache_plan_cache_misses_total"),
	}
	for _, r := range regions {
		label := strconv.Itoa(r)
		e.guardLocal = append(e.guardLocal, reg.CounterVec("guard_local_total", "region").With(label))
		e.guardRemote = append(e.guardRemote, reg.CounterVec("guard_remote_total", "region").With(label))
		e.replTxns = append(e.replTxns, reg.CounterVec("repl_txns_applied_total", "region").With(label))
		e.replRows = append(e.replRows, reg.CounterVec("repl_rows_applied_total", "region").With(label))
	}
	return e, setup, nil
}

// counts are a run's deterministic outputs. The same op sequence gives the
// same counts on any machine, with tracing on or off.
type counts struct {
	reads, writes, failed int
	rowsOut               int64
	guardsLocal           int64
	guardsRemote          int64
	planHits, planMisses  int64
	link                  remote.Stats
	commits               int64
	replTxns, replRows    int64
	stalenessP99          time.Duration
}

// chunk is one of the numChunks equal slices of a pass: its wall time and
// how many ops, reads and writes it ran. Time metrics are taken per chunk
// and reported from the calmer quarter of the chunks (see calmQuartile), so
// load from outside the benchmark that slows part of a run moves them
// little.
type chunk struct {
	wall          time.Duration
	ops           int
	reads, writes int
}

const numChunks = 50

// snapshot reads the system's cumulative counters.
func (e *env) snapshot() counts {
	c := counts{
		planHits:   e.planHits.Value(),
		planMisses: e.planMisses.Value(),
		link:       e.sys.Cache.Link().Stats(),
		commits:    e.sys.Backend.Log().LastSeq(),
	}
	for i := range regions {
		c.guardsLocal += e.guardLocal[i].Value()
		c.guardsRemote += e.guardRemote[i].Value()
		c.replTxns += e.replTxns[i].Value()
		c.replRows += e.replRows[i].Value()
	}
	return c
}

// phase is one timed pass over an op sequence.
type phase struct {
	counts
	ops  int
	wall time.Duration
	// advance is the wall time spent in System.Run.
	advance         time.Duration
	readNS, writeNS []int64
	// chunks splits the pass into equal runs of ops (see chunk).
	chunks     []chunk
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	heapLive   uint64
}

// run executes the first n ops of seq in a closed loop: one session, one
// goroutine, each op followed by one virtual step of replication and
// heartbeats. With tr set, it also records a span around every write and
// every sampled read, and replays the sampled reads layer by layer.
func (e *env) run(seq *opSeq, n int, tr *tracer) (*phase, error) {
	sys := e.sys
	log := sys.Backend.Log()
	link := sys.Cache.Link()
	p := &phase{ops: n, readNS: make([]int64, 0, n)}
	staleness := make([]int64, 0, n)
	local := make([]int64, len(regions))
	var replayLink remote.Stats
	base := e.snapshot()

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	mallocs, allocBytes, gcs := ms.Mallocs, ms.TotalAlloc, ms.NumGC

	begin := time.Now()
	cur := chunk{}
	chunkStart := begin
	for i := 0; i < n; i++ {
		if i == (len(p.chunks)+1)*n/numChunks && cur.ops > 0 {
			now := time.Now()
			cur.wall = now.Sub(chunkStart)
			p.chunks = append(p.chunks, cur)
			cur, chunkStart = chunk{}, now
		}
		cur.ops++
		st := &seq.stmts[seq.ops[i]]
		ok := false
		var t0, t1 time.Time
		traced := tr != nil && (i%tr.every == 0 || st.kind.isWrite())
		if st.kind.isWrite() {
			t0 = time.Now()
			affected, err := sys.Exec(st.sql)
			t1 = time.Now()
			p.writes++
			cur.writes++
			p.writeNS = append(p.writeNS, int64(t1.Sub(t0)))
			ok = err == nil && affected == 1
			e.commits.catchUp(log)
			if traced {
				l := layerUpdate
				if st.kind == opInsert {
					l = layerInsert
				}
				tr.add(noParent, l, t0, t1)
			}
		} else {
			if e.beforeRead != nil {
				e.beforeRead(sys)
			}
			for j := range regions {
				local[j] = e.guardLocal[j].Value()
			}
			hits := e.planHits.Value()
			t0 = time.Now()
			res, err := e.sess.Query(st.sql)
			t1 = time.Now()
			p.reads++
			cur.reads++
			p.readNS = append(p.readNS, int64(t1.Sub(t0)))
			if err == nil {
				p.rowsOut += int64(len(res.Rows))
				var stale time.Duration
				ok, stale = e.checkRead(st, res, local)
				staleness = append(staleness, int64(stale))
			}
			if traced {
				tr.add(noParent, layerQuery, t0, t1)
				if i%tr.every == 0 && err == nil {
					before := link.Stats()
					replayed, rerr := e.replay(tr, st.sql, t1.Sub(t0), e.planHits.Value() != hits)
					ok = ok && rerr == nil && replayed == len(res.Rows)
					replayLink = addStats(replayLink, subStats(link.Stats(), before))
				}
			}
		}
		t2 := time.Now()
		if err := sys.Run(seq.step(i)); err != nil {
			return nil, fmt.Errorf("op %d: advancing the virtual clock: %w", i, err)
		}
		p.advance += time.Since(t2)
		if !ok {
			p.failed++
		}
	}
	end := time.Now()
	p.wall = end.Sub(begin)
	cur.wall = end.Sub(chunkStart)
	p.chunks = append(p.chunks, cur)

	runtime.ReadMemStats(&ms)
	p.mallocs, p.allocBytes, p.gcCycles = ms.Mallocs-mallocs, ms.TotalAlloc-allocBytes, ms.NumGC-gcs
	p.stalenessP99 = time.Duration(percentile(staleness, 0.99))
	staleness = nil
	runtime.GC()
	runtime.ReadMemStats(&ms)
	p.heapLive = ms.HeapAlloc

	last := e.snapshot()
	p.guardsLocal = last.guardsLocal - base.guardsLocal
	p.guardsRemote = last.guardsRemote - base.guardsRemote
	p.planHits = last.planHits - base.planHits
	p.planMisses = last.planMisses - base.planMisses
	p.link = subStats(subStats(last.link, base.link), replayLink)
	p.commits = last.commits - base.commits
	p.replTxns = last.replTxns - base.replTxns
	p.replRows = last.replRows - base.replRows
	return p, nil
}

// checkRead checks one answered read: its rows, and that the data it was
// served from was within the declared bound twice over. Once as the cache
// reports it (clock minus QueryResult.AsOf, from the heartbeat), and once as
// it really was: for every region whose guard chose the local view during
// this read, the time since the first commit the region's agent has not
// applied. local holds the regions' guard_local_total before the read. It
// returns the reported staleness.
func (e *env) checkRead(st *stmt, res *mtcache.QueryResult, local []int64) (bool, time.Duration) {
	now := e.sys.Clock.Now()
	if res.AsOf.IsZero() {
		return false, 0
	}
	stale := now.Sub(res.AsOf)
	ok := checkAnswer(st, res.Rows, e.expect) && stale <= st.bound
	for j, r := range regions {
		if e.guardLocal[j].Value() == local[j] {
			continue
		}
		sync := e.sys.Cache.Agent(r).LastSeq()
		if e.commits.delivered(regionTable[r], sync, now) > st.bound {
			ok = false
		}
	}
	return ok, stale
}

func subStats(a, b remote.Stats) remote.Stats {
	return remote.Stats{Queries: a.Queries - b.Queries, Rows: a.Rows - b.Rows, Bytes: a.Bytes - b.Bytes,
		Retries: a.Retries - b.Retries, Failures: a.Failures - b.Failures}
}

func addStats(a, b remote.Stats) remote.Stats {
	return remote.Stats{Queries: a.Queries + b.Queries, Rows: a.Rows + b.Rows, Bytes: a.Bytes + b.Bytes,
		Retries: a.Retries + b.Retries, Failures: a.Failures + b.Failures}
}

// calmQuartile applies f to groups of consecutive chunks and their read
// and write samples, and returns the lower quartile of the values, or with
// higherBetter the upper one: the value of the calmer quarter of the pass.
// The machine's speed changes from second to second with other tenants'
// load; the tail of a 0.7 ms full-scan UPDATE stretched by up to 2x in some
// seconds, and the median over groups moved with the share of such seconds
// in a run. Chunks merge until a group holds at least minSamples of the
// samples count picks out (reads or writes), the remainder joining the last
// group, so that a p99 always has ten samples beyond it.
func (p *phase) calmQuartile(higherBetter bool, minSamples int, count func(chunk) int, f func(c chunk, reads, writes []int64) float64) float64 {
	left := 0
	for _, c := range p.chunks {
		left += count(c)
	}
	var vals []float64
	var g chunk
	r, w := 0, 0
	for i, c := range p.chunks {
		g.wall += c.wall
		g.ops += c.ops
		g.reads += c.reads
		g.writes += c.writes
		left -= count(c)
		if i == len(p.chunks)-1 || (count(g) >= minSamples && left >= minSamples) {
			vals = append(vals, f(g, p.readNS[r:r+g.reads], p.writeNS[w:w+g.writes]))
			r, w = r+g.reads, w+g.writes
			g = chunk{}
		}
	}
	sort.Float64s(vals)
	i := (len(vals) - 1) / 4
	if higherBetter {
		i = len(vals) - 1 - i
	}
	return vals[i]
}
