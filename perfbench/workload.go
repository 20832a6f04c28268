package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"relaxedcc/internal/tpcd"
)

// Data set: TPC-D at scale factor 0.1 behind the paper's Table 4.1 cache.
const (
	scaleFactor = 0.1
	dataSeed    = 2004
	zipfS       = 1.2
	// After every operation a virtual step of stepMin plus up to stepJitter
	// passes, drawn from the seed: the client's think time. It paces the
	// heartbeat and replication cycles against the op sequence, so the
	// currency-and-consistency outcome of every op repeats from the seed,
	// and the jitter keeps ops from locking to the heartbeat's phase.
	stepMin    = 10 * time.Millisecond
	stepJitter = 20 * time.Millisecond
)

var dataCfg = tpcd.Config{ScaleFactor: scaleFactor, Seed: dataSeed}

// opKind is what one operation does.
type opKind uint8

const (
	opPoint  opKind = iota // Q1: one customer by key
	opJoin                 // Q2: one customer joined with its orders
	opScan                 // one of the fixed scan-join statements
	opUpdate               // single-row PK UPDATE Customer
	opInsert               // INSERT INTO Orders
)

func (k opKind) isWrite() bool { return k == opUpdate || k == opInsert }

// stmt is one distinct statement text of a run, with what its answer must
// satisfy. Ops refer to statements by index so a long run stores 4 bytes
// per op.
type stmt struct {
	sql  string
	kind opKind
	// key is the customer key a read looks up (opPoint, opJoin).
	key int64
	// bound is a read's declared currency bound.
	bound time.Duration
	// fixed indexes scanStmts for opScan.
	fixed int
}

// workload is one traffic mix. opsPerSecond sizes a run: --seconds s runs
// s*opsPerSecond operations, about s seconds of work on a 2-core x86-64
// box, so the op sequence and every C&C outcome depend only on the seed and
// the run length, never on how fast the machine is.
type workload struct {
	name         string
	opsPerSecond int
	next         func(g *generator) int32
}

var workloads = []workload{
	// point-zipf: per-query overhead dominates (parse, plan-cache key,
	// plan or build, session taps). Zipf keys times three bounds times two
	// query kinds make a statement set far larger than the 512-entry plan
	// cache, and the 10 s bound makes the guard flip.
	{
		name:         "point-zipf",
		opsPerSecond: 45000,
		next: func(g *generator) int32 {
			if w, ok := g.trickle(pointWriteEvery); ok {
				return w
			}
			kind := tpcd.DefaultMix().Pick(g.rng)
			key := g.keys.Next()
			bound := pointBounds[g.rng.Intn(len(pointBounds))]
			k := opPoint
			if kind == tpcd.KindJoin {
				k = opJoin
			}
			return g.intern(stmt{sql: tpcd.Query(kind, key, bound), kind: k, key: key, bound: bound})
		},
	},
	// scan-join: execution dominates (columnar scans with filter kernels,
	// joins, aggregation). Its 64 statement texts fit the plan cache, and
	// its 60 s bounds always pass the guard.
	{
		name:         "scan-join",
		opsPerSecond: 4000,
		next: func(g *generator) int32 {
			if w, ok := g.trickle(scanWriteEvery); ok {
				return w
			}
			i := g.rng.Intn(len(scanStmts))
			return g.intern(stmt{sql: scanStmts[i].sql, kind: opScan, bound: scanBound, fixed: i})
		},
	},
	// write-mix: the back end, commit log, replication apply and remote
	// link do the work. At a 10 s bound about 2/3 of reads go remote.
	// Writes and reads alternate in blocks of writeMixBlock ops. Interleaved
	// one by one, half the reads ran right after a full-scan UPDATE had
	// flushed the caches, and their read_p99_us spread by up to a third
	// from run to run with the machine's memory contention.
	{
		name:         "write-mix",
		opsPerSecond: 3400,
		next: func(g *generator) int32 {
			if len(g.seq.ops)/writeMixBlock%2 == 0 {
				return g.write(writeMixUpdates)
			}
			key := g.keys.Next()
			return g.intern(stmt{sql: tpcd.Query(tpcd.KindPoint, key, writeMixBound), kind: opPoint, key: key, bound: writeMixBound})
		},
	},
}

// The read-mostly workloads carry a trickle of writes. It keeps every
// layer, the write path included, measured on every workload, and gives the
// currency checks real commits to be stale against: without writes a
// wedged agent still serves current data. The trickle is INSERTs with a
// rare UPDATE, so both write percentiles stay inside the INSERT mode; the
// full-scan UPDATE is write-mix's subject. Writes come in batches of
// trickleBatch, an application ingesting new orders: scattered singly, each
// INSERT ran on caches a read had just flushed, and their p99 followed the
// machine's memory contention. No write changes any answer a read checks.
const (
	trickleBatch    = 256
	pointWriteEvery = 50
	scanWriteEvery  = 4
)

// writeMixBlock is the length of write-mix's alternating write and read
// blocks.
const writeMixBlock = 256

// UPDATE shares of the writes, as a fraction of 1024.
const (
	trickleUpdates  = 4   // 1 in 256
	writeMixUpdates = 768 // 3 in 4, as UPDATE Customer : INSERT INTO Orders is 3:1
)

var (
	pointBounds   = []time.Duration{60 * time.Second, 30 * time.Second, 10 * time.Second}
	scanBound     = 60 * time.Second
	writeMixBound = 10 * time.Second
)

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opSeq is a run's whole operation sequence, generated before the timed
// phase.
type opSeq struct {
	stmts []stmt
	ops   []int32
	// steps[i] is the virtual step after op i, in microseconds above
	// stepMin.
	steps  []uint16
	digest string
}

func (s *opSeq) step(i int) time.Duration {
	return stepMin + time.Duration(s.steps[i])*time.Microsecond
}

type generator struct {
	rng       *rand.Rand
	keys      *tpcd.KeySampler
	seq       *opSeq
	index     map[string]int32
	nextOrder int64
	// batch is how many writes of the current trickle batch are left, and
	// untilBatch how many reads are left before the next batch starts.
	batch, untilBatch int
}

// write draws one PK write, an UPDATE Customer with probability
// updates/1024 and an INSERT INTO Orders otherwise. The UPDATE changes
// c_nationkey, which no read projects; the INSERT adds an order for an
// account above the loaded customer range, which no read covers. So writes
// make the cached views stale without changing any checked answer.
func (g *generator) write(updates int) int32 {
	if g.rng.Intn(1024) < updates {
		key := g.keys.Next()
		sql := fmt.Sprintf("UPDATE Customer SET c_nationkey = %d WHERE c_custkey = %d", g.rng.Intn(25), key)
		return g.intern(stmt{sql: sql, kind: opUpdate})
	}
	cust := int64(dataCfg.Customers()) + 1 + g.rng.Int63n(1000)
	g.nextOrder++
	cents := 90000 + g.rng.Int63n(49910000)
	sql := fmt.Sprintf("INSERT INTO Orders VALUES (%d, %d, %d.%02d, '2004-01-01 00:00:00')",
		cust, g.nextOrder, cents/100, cents%100)
	return g.intern(stmt{sql: sql, kind: opInsert})
}

// trickle draws the next trickle write, if one is due. A batch of
// trickleBatch writes follows every every*trickleBatch reads, the first
// batch at a point drawn from the seed, so one op in every+1 is a write in
// every run. A random batch count made the read share, and with it
// ops_per_s and allocs_per_op, vary by several percent from seed to seed.
func (g *generator) trickle(every int) (int32, bool) {
	if g.batch == 0 {
		if g.untilBatch == 0 {
			g.untilBatch = 1 + g.rng.Intn(every*trickleBatch)
		}
		if g.untilBatch--; g.untilBatch > 0 {
			return 0, false
		}
		g.batch = trickleBatch
		g.untilBatch = every*trickleBatch + 1
	}
	g.batch--
	return g.write(trickleUpdates), true
}

func (g *generator) intern(s stmt) int32 {
	if i, ok := g.index[s.sql]; ok {
		return i
	}
	i := int32(len(g.seq.stmts))
	g.seq.stmts = append(g.seq.stmts, s)
	g.index[s.sql] = i
	return i
}

// generate draws n operations of workload w from seed.
func generate(w workload, seed int64, n int) *opSeq {
	g := &generator{
		rng:       rand.New(rand.NewSource(seed)),
		keys:      tpcd.NewKeySampler(seed, dataCfg.Customers(), zipfS, tpcd.DefaultZipfV),
		seq:       &opSeq{ops: make([]int32, 0, n), steps: make([]uint16, 0, n)},
		index:     map[string]int32{},
		nextOrder: int64(dataCfg.Orders()),
	}
	h := sha256.New()
	for i := 0; i < n; i++ {
		id := w.next(g)
		step := uint16(g.rng.Intn(int(stepJitter / time.Microsecond)))
		g.seq.ops = append(g.seq.ops, id)
		g.seq.steps = append(g.seq.steps, step)
		h.Write([]byte(g.seq.stmts[id].sql))
		h.Write([]byte{0, byte(step), byte(step >> 8)})
	}
	g.seq.digest = hex.EncodeToString(h.Sum(nil))
	return g.seq
}

// scanStmt is one fixed scan-join statement: the text the cache runs, and
// the same query without its currency clause for the back end, which
// computes the expected answer.
type scanStmt struct {
	sql    string
	master string
}

// scanStmts are the 64 fixed statements of scan-join: S2 range scans over
// c_acctbal (no index in the cache, so a filtered columnar scan of every
// customer), S1 joins over 50-customer key ranges with per-table bounds, and
// GROUP BY aggregates over 200-customer ranges of Orders. Every key range
// lies inside the loaded customers, away from the accounts writes insert
// orders for.
var scanStmts = buildScanStmts()

func buildScanStmts() []scanStmt {
	var out []scanStmt
	add := func(sql, currency string) {
		out = append(out, scanStmt{sql: sql + " " + currency, master: sql})
	}
	ms := scanBound.Milliseconds()
	span := tpcd.AcctBalMax - tpcd.AcctBalMin
	widths := []float64{150, 300, 600}
	for i := 0; i < 24; i++ {
		lo := tpcd.AcctBalMin + float64(i)*span/24
		add(tpcd.RangeQuery(lo, lo+widths[i%len(widths)], ""), fmt.Sprintf("CURRENCY %d MS ON (Customer)", ms))
	}
	for i := 0; i < 20; i++ {
		lo := int64(1 + i*700)
		add(tpcd.JoinQuery(fmt.Sprintf("C.c_custkey BETWEEN %d AND %d", lo, lo+49), ""),
			fmt.Sprintf("CURRENCY %d MS ON (C), %d MS ON (O)", ms, ms))
	}
	for i := 0; i < 20; i++ {
		lo := int64(301 + i*700)
		add(fmt.Sprintf("SELECT o_custkey, COUNT(*) AS n, SUM(o_totalprice) AS total FROM Orders WHERE o_custkey BETWEEN %d AND %d GROUP BY o_custkey", lo, lo+199),
			fmt.Sprintf("CURRENCY %d MS ON (Orders)", ms))
	}
	return out
}
