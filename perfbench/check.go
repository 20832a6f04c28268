package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"relaxedcc/internal/core"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/tpcd"
	"relaxedcc/internal/txn"
)

// answer summarises a result set: its row count and an order-insensitive
// checksum of its rows.
type answer struct {
	rows int
	sum  uint64
}

// digestRows checksums rows without allocating: each row hashes with
// FNV-1a, and row hashes add up, so row order does not matter. Floats are
// rounded to cents, which every float in the data set is a multiple of, so
// a sum taken in another order hashes the same.
func digestRows(rows []sqltypes.Row) answer {
	a := answer{rows: len(rows)}
	for _, r := range rows {
		h := uint64(fnvOffset)
		for _, v := range r {
			h = fnvWord(h, uint64(v.Kind()))
			switch v.Kind() {
			case sqltypes.KindInt:
				h = fnvWord(h, uint64(v.Int()))
			case sqltypes.KindFloat:
				h = fnvWord(h, uint64(int64(math.Round(v.Float()*100))))
			case sqltypes.KindString:
				s := v.Str()
				for i := 0; i < len(s); i++ {
					h = (h ^ uint64(s[i])) * fnvPrime
				}
			case sqltypes.KindTime:
				h = fnvWord(h, uint64(v.Time().UnixNano()))
			}
		}
		a.sum += h
	}
	return a
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvWord(h, u uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (u & 0xff)) * fnvPrime
		u >>= 8
	}
	return h
}

// expectScans computes the expected answer of every scan-join statement on
// the back end, bypassing the cache.
func expectScans(sys *core.System) ([]answer, error) {
	out := make([]answer, len(scanStmts))
	for i, s := range scanStmts {
		res, err := sys.QueryBackend(s.master)
		if err != nil {
			return nil, fmt.Errorf("expected answer of %q: %w", s.master, err)
		}
		out[i] = digestRows(res.Rows)
	}
	return out, nil
}

// checkAnswer reports whether a read's rows are right for its statement.
func checkAnswer(st *stmt, rows []sqltypes.Row, expect []answer) bool {
	switch st.kind {
	case opPoint:
		// Q1 projects c_custkey, c_name, c_acctbal; writes never change them.
		if len(rows) != 1 || len(rows[0]) != 3 {
			return false
		}
		return intIs(rows[0][0], st.key) && nameIs(rows[0][1], st.key)
	case opJoin:
		// Q2: the customer's ten loaded orders, o_orderkey (k-1)*10+1 ..
		// k*10, one each. Writes insert orders only for unloaded accounts.
		if len(rows) != 10 {
			return false
		}
		first := (st.key-1)*10 + 1
		var seen uint16
		for _, r := range rows {
			if len(r) != 3 || !intIs(r[0], st.key) || r[1].Kind() != sqltypes.KindInt {
				return false
			}
			off := r[1].Int() - first
			if off < 0 || off >= 10 || seen&(1<<off) != 0 {
				return false
			}
			seen |= 1 << off
		}
		return true
	case opScan:
		return digestRows(rows) == expect[st.fixed]
	}
	return false
}

func intIs(v sqltypes.Value, want int64) bool {
	return v.Kind() == sqltypes.KindInt && v.Int() == want
}

// nameIs checks c_name against the generator's "Customer#%09d" without
// formatting a string.
func nameIs(v sqltypes.Value, key int64) bool {
	if v.Kind() != sqltypes.KindString {
		return false
	}
	s := v.Str()
	const prefix = "Customer#"
	if len(s) != len(prefix)+9 || s[:len(prefix)] != prefix {
		return false
	}
	for i := len(s) - 1; i >= len(prefix); i-- {
		if int64(s[i]-'0') != key%10 {
			return false
		}
		key /= 10
	}
	return key == 0
}

// regionTable maps each currency region of the Table 4.1 cache to the base
// table its view copies.
var regionTable = map[int]string{tpcd.RegionCR1: "Customer", tpcd.RegionCR2: "Orders"}

// regions lists the currency regions in a fixed order.
var regions = []int{tpcd.RegionCR1, tpcd.RegionCR2}

// commitIndex records, per base table, the sequence number and commit time
// of every transaction that changed it, read from the back end's commit
// log. It gives the staleness a local answer really had, independent of
// the heartbeat the guard trusted: a view whose agent applied the log
// through seq s is current until the first later commit to its table.
type commitIndex struct {
	seen    int64
	byTable map[string][]txn.Timestamp
}

func newCommitIndex(log *txn.Log) *commitIndex {
	return &commitIndex{seen: log.LastSeq(), byTable: map[string][]txn.Timestamp{}}
}

// catchUp indexes the commits appended since the last call.
func (c *commitIndex) catchUp(log *txn.Log) {
	if log.LastSeq() == c.seen {
		return
	}
	for _, rec := range log.Since(c.seen) {
		for _, ch := range rec.Changes {
			if ch.Table != "Customer" && ch.Table != "Orders" {
				continue // heartbeats
			}
			ts := c.byTable[ch.Table]
			if n := len(ts); n == 0 || ts[n-1].Seq != rec.TS.Seq {
				c.byTable[ch.Table] = append(ts, rec.TS)
			}
		}
		c.seen = rec.TS.Seq
	}
}

// delivered returns how stale table's copy is at now when its agent has
// applied the log through seq sync: now minus the first later commit to
// the table, or zero when there is none.
func (c *commitIndex) delivered(table string, sync int64, now time.Time) time.Duration {
	ts := c.byTable[table]
	i := sort.Search(len(ts), func(i int) bool { return ts[i].Seq > sync })
	if i == len(ts) {
		return 0
	}
	return now.Sub(ts[i].At)
}
