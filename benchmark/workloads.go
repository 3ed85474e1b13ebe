package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"

	"qppt/internal/ssb"
)

// A workload is one traffic mix driven against a fresh server. The fields
// after why say how the engine is configured and which premise the workload
// rests on; the premise guards (workload.guard, timed.go) fail the run when a
// workload stops measuring what its name says.
type workload struct {
	name string
	why  string

	clients int  // closed-loop connections, never more than nproc
	par     bool // Workers = nproc: operators must fan out over > 1 worker and merge
	spill   bool // run under spillBudget, so intermediates freeze and thaw
	decoded bool // QueryDecoded: the server decodes cells through the dictionaries
	cached  bool // statement-cache hit ratio must be > 0.95 (else < 0.01)
	minRows int  // mean rows per answer must reach this
	// Some operator that ran on > 1 worker must put out this many rows: from
	// there (the engine's parallelMergeMinKeys) the partials are merged
	// partition-wise into a range-sharded index, below it one after another.
	mergeRows int
	lineup    bool // the traced run also times the baseline engines (paper line-up)

	requests func(ds *ssb.Dataset, rng *rand.Rand, clients int) *requests
	oracle   func(ds *ssb.Dataset, r *requests) (*oracle, error)
}

// workloads lists the five workloads in the order a full run executes them.
// The names are fixed: later issues cite them.
var workloads = []workload{
	{
		name:    "ssb-exec",
		why:     "13 SSB texts, 2 clients, cache hits: core operators, trees, kernels and arena do the work (Figure 7 over the socket)",
		clients: 2, cached: true, lineup: true,
		requests: ssbRequests, oracle: ssbOracle,
	},
	{
		name:    "ssb-par",
		why:     "SSB roll-ups with the year as a range on the fact's date key, 1 client, Workers=nproc: morsels, work stealing and the partition-wise merge run",
		clients: 1, par: true, cached: true, mergeRows: 4096,
		requests: parRequests, oracle: parOracle,
	},
	{
		name:    "ssb-spill",
		why:     "ssb-exec under a memory budget below its working set: spill manager, tree freeze/thaw and chunk churn carry weight",
		clients: 2, spill: true, cached: true,
		requests: ssbRequests, oracle: ssbOracle,
	},
	{
		name:     "point-plan",
		why:      "unique one-row texts, 0% cache hits: frames, admission, lex/parse/plan and per-query set-up dominate, not execution",
		clients:  2,
		requests: pointRequests, oracle: pointOracle,
	},
	{
		name:    "bulk-result",
		why:     "60 cached texts with >10k decoded rows each: row-batch encode, dictionary decode, socket and client decode carry weight",
		clients: 2, decoded: true, cached: true, minRows: 10000,
		requests: bulkRequests, oracle: bulkOracle,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// spillBudget is ssb-spill's MemBudget: 4 MiB at SF 0.5, where the peak
// tracked residency of the suite is about 11 MiB, scaled with the data.
func spillBudget(sf float64) int64 { return int64(sf * (8 << 20)) }

// requests is the seeded input of one workload: the distinct texts, which of
// them warm every connection, the fixed list the traced run replays, and the
// order in which each client walks them during the timed window. Only these
// generated texts reach the engine; the seed does not.
type requests struct {
	n      int
	text   func(i int) string
	warm   []int
	traced []int
	walk   [][]int // per client

	// Workload-specific keys the oracles need to recompute the answers.
	days   []uint64 // point-plan: date keys, text i asks for days[i/pointQs]
	months []uint64 // bulk-result: yyyymm of text i
}

// at returns the text index of client c's k-th request.
func (r *requests) at(c, k int) int { return r.walk[c][k%len(r.walk[c])] }

// hash fingerprints the request lists: the traced list and the head of each
// client's walk. Same seed, same hash.
func (r *requests) hash() string {
	h := fnv.New64a()
	for _, i := range r.traced {
		h.Write([]byte(r.text(i)))
	}
	for _, w := range r.walk {
		for _, i := range w[:min(len(w), 64)] {
			h.Write([]byte(r.text(i)))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// walkPasses is how many passes over its texts a client's walk holds before
// it starts over: more than a client gets through in a 10 s window.
const walkPasses = 256

// shuffledPasses returns walkPasses seeded permutations of 0..n-1 back to
// back. Every text gets the same share of the requests, and each pass has an
// order of its own: two clients walking one fixed cycle each, of about the
// same length, stay paired text against text for a whole run, and how well
// the two texts of a pair share the machine then moves every metric by the
// seed (8 % on ssb-exec).
func shuffledPasses(rng *rand.Rand, n int) []int {
	walk := make([]int, 0, n*walkPasses)
	for p := 0; p < walkPasses; p++ {
		walk = append(walk, rng.Perm(n)...)
	}
	return walk
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// ssbRequests: every client walks its own seeded passes over the 13 texts.
// The traced list is two seeded passes.
func ssbRequests(_ *ssb.Dataset, rng *rand.Rand, clients int) *requests {
	n := len(ssb.QueryIDs)
	r := &requests{
		n:      n,
		text:   func(i int) string { return ssb.SQLTexts[ssb.QueryIDs[i]] },
		warm:   seq(n),
		traced: append(rng.Perm(n), rng.Perm(n)...),
	}
	for c := 0; c < clients; c++ {
		r.walk = append(r.walk, shuffledPasses(rng, n))
	}
	return r
}

// pointQs is the number of quantity bounds point-plan draws from: q in
// [pointQLo, pointQLo+pointQs), high enough that every day has matching rows.
const (
	pointQLo = 11
	pointQs  = 40
)

// pointRequests: one text per (day, quantity bound). A seeded permutation of
// all of them is dealt out to the warm pass, the traced list and the clients
// in turn, so no text is ever sent twice and the 64-entry statement cache
// never hits.
func pointRequests(ds *ssb.Dataset, rng *rand.Rand, clients int) *requests {
	days := slices.Clone(ds.Raw["date"]["d_datekey"])
	slices.Sort(days)
	n := len(days) * pointQs
	order := rng.Perm(n)
	const warm, traced = 32, 500
	r := &requests{
		n:    n,
		days: days,
		text: func(i int) string {
			return fmt.Sprintf("select sum(lo_revenue) from lineorder where lo_orderdate = %d and lo_quantity < %d;",
				days[i/pointQs], pointQLo+i%pointQs)
		},
		warm:   order[:warm],
		traced: order[warm : warm+traced],
		walk:   make([][]int, clients),
	}
	for k, i := range order[warm+traced:] {
		r.walk[k%clients] = append(r.walk[k%clients], i)
	}
	return r
}

// bulkMonths is how many months bulk-result asks for: the texts fit the
// 64-entry statement cache.
const bulkMonths = 60

// bulkRequests: one text per seeded month, each answer one row per
// (customer, day) of that month.
func bulkRequests(ds *ssb.Dataset, rng *rand.Rand, clients int) *requests {
	var all []uint64
	for _, d := range ds.Raw["date"]["d_datekey"] {
		all = append(all, d/100)
	}
	slices.Sort(all)
	all = slices.Compact(all)
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	months := all[:min(len(all), bulkMonths)]
	n := len(months)
	r := &requests{
		n:      n,
		months: months,
		text: func(i int) string {
			return fmt.Sprintf("select lo_custkey, lo_orderdate, sum(lo_revenue) as r from lineorder where lo_orderdate between %d01 and %d31 group by lo_custkey, lo_orderdate;",
				months[i], months[i])
		},
		warm:   seq(n),
		traced: rng.Perm(n),
	}
	for c := 0; c < clients; c++ {
		r.walk = append(r.walk, shuffledPasses(rng, n))
	}
	return r
}

// parYears are the years ssb-par's texts ask for: SSB's order dates run from
// 1992-01-01 into 1998 at every scale factor.
var parYears = [...]uint64{1992, 1993, 1994, 1995, 1996, 1997, 1998}

// parKinds is the number of texts ssb-par asks per year, see parText.
const parKinds = 5

// parText is text i of ssb-par: kind i%parKinds for year parYears[i/parKinds].
// The 13 SSB texts restrict the fact table through a dimension (d_year =
// 1993, s_region = 'ASIA'), the SQL planner scans that selection — one to a
// few dictionary codes wide, narrower than the Workers×4 morsels — and no
// operator ever runs on a second worker. These are SSB's roll-ups with the
// year written as a range on the fact's own date key (yyyymmdd), which the
// planner scans as a selection some 1 100 keys wide, so it fans out: flight 1
// with the parameters of Q1.1 and of Q1.2, revenue by supplier (400 groups,
// partials merged one after another), by month through the date join, and
// by customer over the first quarter (≥ 4096 groups at SF 0.2, merged
// partition-wise).
func parText(i int) string {
	y := parYears[i/parKinds]
	switch i % parKinds {
	case 0:
		return fmt.Sprintf("select sum(lo_extendedprice*lo_discount) as revenue from lineorder where lo_orderdate between %d0101 and %d1231 and lo_discount between 1 and 3 and lo_quantity < 25;", y, y)
	case 1:
		return fmt.Sprintf("select sum(lo_extendedprice*lo_discount) as revenue from lineorder where lo_orderdate between %d0101 and %d1231 and lo_discount between 4 and 6 and lo_quantity between 26 and 35;", y, y)
	case 2:
		return fmt.Sprintf("select lo_suppkey, sum(lo_revenue) as r from lineorder where lo_orderdate between %d0101 and %d1231 group by lo_suppkey;", y, y)
	case 3:
		return fmt.Sprintf("select d_yearmonthnum, sum(lo_revenue) as r from lineorder, `date` where lo_orderdate = d_datekey and lo_orderdate between %d0101 and %d1231 group by d_yearmonthnum;", y, y)
	default:
		return fmt.Sprintf("select lo_custkey, sum(lo_revenue) as r from lineorder where lo_orderdate between %d0101 and %d0331 group by lo_custkey;", y, y)
	}
}

// parRequests: a fixed set of texts, so that every seed asks for the same
// work; the client walks seeded passes over it, the traced list is one
// more.
func parRequests(_ *ssb.Dataset, rng *rand.Rand, clients int) *requests {
	n := len(parYears) * parKinds
	r := &requests{n: n, text: parText, warm: seq(n), traced: rng.Perm(n)}
	for c := 0; c < clients; c++ {
		r.walk = append(r.walk, shuffledPasses(rng, n))
	}
	return r
}
