package main

import (
	"context"
	"fmt"
	"strconv"

	"qppt"
	"qppt/internal/ssb"
	"qppt/internal/wire/client"
)

// A digest summarizes an answer independently of row and column order: the
// row count and the wrapping sum of all cells. Decoded (string) cells enter
// the sum through their FNV-1a hash.
type digest struct {
	rows int
	sum  uint64
}

func digestRaw(rows [][]uint64) digest {
	d := digest{rows: len(rows)}
	for _, r := range rows {
		for _, v := range r {
			d.sum += v
		}
	}
	return d
}

// hashCell is FNV-1a, inline: hash/fnv would allocate a hasher for each of
// the 40 000 cells of a bulk-result answer, inside the closed loop.
func hashCell(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

func digestStrs(rows [][]string) digest {
	d := digest{rows: len(rows)}
	for _, r := range rows {
		for _, s := range r {
			d.sum += hashCell(s)
		}
	}
	return d
}

// digestOf digests whichever form the answer came in.
func digestOf(res *client.Result) digest {
	if res.Strs != nil {
		return digestStrs(res.Strs)
	}
	return digestRaw(res.Rows)
}

// An oracle knows the right answer to every text of a workload without
// asking the engine under test. rows is set only where the exact ordered
// rows are known too.
type oracle struct {
	expect func(i int) digest
	rows   func(i int) [][]uint64
}

// ssbOracle runs the 13 texts in-process on a separate serial engine with
// fusion off, and requires the column-at-a-time baseline to agree with it
// on row count and cell sum. If the two references disagree there is no
// right answer to check against, which is an error, not a wrong answer.
func ssbOracle(ds *ssb.Dataset, r *requests) (*oracle, error) {
	eng, err := qppt.New(qppt.Config{Workers: 1, DisableFusion: true})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	sess := eng.Session(ds.Cat)
	want := make([][][]uint64, r.n)
	digests := make([]digest, r.n)
	for i, qid := range ssb.QueryIDs {
		rows, _, err := sess.Query(context.Background(), r.text(i))
		if err != nil {
			return nil, fmt.Errorf("oracle engine, Q%s: %w", qid, err)
		}
		col, err := ds.RunColumn(qid)
		if err != nil {
			return nil, fmt.Errorf("column baseline, Q%s: %w", qid, err)
		}
		if a, b := digestRaw(rows.Rows), digestRaw(col.Rows); a != b {
			return nil, fmt.Errorf("Q%s: oracle engine %+v and column baseline %+v disagree", qid, a, b)
		}
		want[i], digests[i] = rows.Rows, digestRaw(rows.Rows)
	}
	return &oracle{
		expect: func(i int) digest { return digests[i] },
		rows:   func(i int) [][]uint64 { return want[i] },
	}, nil
}

// pointOracle answers every (day, bound) text from one scan of the raw
// lineorder columns: table[day][q] is the revenue of the day's rows with
// quantity below q.
func pointOracle(ds *ssb.Dataset, r *requests) (*oracle, error) {
	lo := ds.Raw["lineorder"]
	dayIdx := make(map[uint64]int, len(r.days))
	for i, d := range r.days {
		dayIdx[d] = i
	}
	const maxQ = pointQLo + pointQs
	type cell struct {
		n   int
		sum uint64
	}
	// table[day][q] first collects the rows with quantity q-1, then the
	// running sum turns it into "quantity below q".
	table := make([][maxQ + 1]cell, len(r.days))
	qty, rev := lo["lo_quantity"], lo["lo_revenue"]
	for row, d := range lo["lo_orderdate"] {
		di, ok := dayIdx[d]
		if !ok {
			return nil, fmt.Errorf("lineorder row %d: order date %d is not in the date table", row, d)
		}
		if q := qty[row] + 1; q <= maxQ {
			table[di][q].n++
			table[di][q].sum += rev[row]
		}
	}
	for di := range table {
		for q := 1; q <= maxQ; q++ {
			table[di][q].n += table[di][q-1].n
			table[di][q].sum += table[di][q-1].sum
		}
	}
	return &oracle{expect: func(i int) digest {
		c := table[i/pointQs][pointQLo+i%pointQs]
		if c.n == 0 {
			return digest{} // the engine answers an empty sum with no row
		}
		return digest{rows: 1, sum: c.sum}
	}}, nil
}

// parOracle answers ssb-par's texts from one scan of the raw lineorder
// columns, a year's five texts at a time; the month of a row comes from the
// raw date table, as the join would find it.
func parOracle(ds *ssb.Dataset, _ *requests) (*oracle, error) {
	lo, date := ds.Raw["lineorder"], ds.Raw["date"]
	monthOf := make(map[uint64]uint64, len(date["d_datekey"]))
	for i, d := range date["d_datekey"] {
		monthOf[d] = date["d_yearmonthnum"][i]
	}
	type year struct {
		sums   [2]uint64 // flight 1 with the parameters of Q1.1 and Q1.2
		hits   [2]int
		groups [parKinds]map[uint64]uint64 // kinds 2 to 4: group key → revenue
	}
	years := make(map[uint64]*year, len(parYears))
	for _, y := range parYears {
		years[y] = &year{groups: [parKinds]map[uint64]uint64{2: {}, 3: {}, 4: {}}}
	}
	qty, disc, price := lo["lo_quantity"], lo["lo_discount"], lo["lo_extendedprice"]
	rev, supp, cust := lo["lo_revenue"], lo["lo_suppkey"], lo["lo_custkey"]
	for row, d := range lo["lo_orderdate"] {
		y := years[d/10000]
		if y == nil {
			continue
		}
		q, dc := qty[row], disc[row]
		if dc >= 1 && dc <= 3 && q < 25 {
			y.sums[0] += price[row] * dc
			y.hits[0]++
		}
		if dc >= 4 && dc <= 6 && q >= 26 && q <= 35 {
			y.sums[1] += price[row] * dc
			y.hits[1]++
		}
		m, ok := monthOf[d]
		if !ok {
			return nil, fmt.Errorf("lineorder row %d: order date %d is not in the date table", row, d)
		}
		y.groups[2][supp[row]] += rev[row]
		y.groups[3][m] += rev[row]
		if d%10000 <= 331 {
			y.groups[4][cust[row]] += rev[row]
		}
	}
	return &oracle{expect: func(i int) digest {
		y, kind := years[parYears[i/parKinds]], i%parKinds
		if kind < 2 {
			if y.hits[kind] == 0 {
				return digest{} // the engine answers an empty sum with no row
			}
			return digest{rows: 1, sum: y.sums[kind]}
		}
		d := digest{rows: len(y.groups[kind])}
		for k, v := range y.groups[kind] {
			d.sum += k + v
		}
		return d
	}}, nil
}

// bulkOracle groups the raw lineorder rows of the asked-for months by
// (customer, day) in one scan and digests the groups the way the server
// renders them: decimal strings.
func bulkOracle(ds *ssb.Dataset, r *requests) (*oracle, error) {
	lo := ds.Raw["lineorder"]
	type group struct{ cust, day uint64 }
	sums := make(map[uint64]map[group]uint64, len(r.months))
	for _, m := range r.months {
		sums[m] = map[group]uint64{}
	}
	cust, rev := lo["lo_custkey"], lo["lo_revenue"]
	for row, d := range lo["lo_orderdate"] {
		if g, ok := sums[d/100]; ok {
			g[group{cust[row], d}] += rev[row]
		}
	}
	want := make([]digest, r.n)
	for i, m := range r.months {
		d := digest{rows: len(sums[m])}
		for g, s := range sums[m] {
			for _, v := range [...]uint64{g.cust, g.day, s} {
				d.sum += hashCell(strconv.FormatUint(v, 10))
			}
		}
		want[i] = d
	}
	return &oracle{expect: func(i int) digest { return want[i] }}, nil
}

// sameRows reports whether two raw answers are equal row for row. Lengths
// are compared, not the slices: an empty answer is nil on one side only.
func sameRows(a, b [][]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
