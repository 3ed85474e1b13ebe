// Package vecstore is the vector-at-a-time baseline engine, standing in
// for the commercial DBMS (VectorWise-style) of the paper's evaluation
// (Section 5).
//
// Operators form a volcano iterator tree, but Next delivers a *vector* of
// 1024 tuples (column-major, cache-resident) instead of a single tuple —
// eliminating the per-tuple interpretation and virtual-call overhead the
// paper attributes to the classic iterator model, while keeping
// intermediates small enough to stay in cache. Joins are vectorized hash
// joins; grouping is a separate vectorized hash aggregation. Like every
// column-wise engine it pays tuple reconstruction: each attribute carried
// across a join is copied vector by vector.
package vecstore

import (
	"fmt"

	"qppt/internal/hashbase"
)

// VectorSize is the number of tuples per vector; 1024 × 8 B columns fit
// comfortably in L1/L2 like the paper's vector model prescribes.
const VectorSize = 1024

// A Batch is one vector of tuples in column-major layout.
type Batch struct {
	N    int
	Cols [][]uint64
}

func newBatch(width int) *Batch {
	b := &Batch{Cols: make([][]uint64, width)}
	for i := range b.Cols {
		b.Cols[i] = make([]uint64, VectorSize)
	}
	return b
}

// An Op is a vectorized volcano operator: Open prepares (and for blocking
// operators consumes the children), Next fills the caller's batch and
// reports whether it produced any tuples, Schema names the output columns.
type Op interface {
	Open()
	Next(out *Batch) bool
	Schema() []string
}

// colIdx resolves a column name in a schema.
func colIdx(schema []string, name string) int {
	for i, c := range schema {
		if c == name {
			return i
		}
	}
	panic(fmt.Sprintf("vecstore: column %q not in schema %v", name, schema))
}

// Scan produces a table's columns vector by vector.
type Scan struct {
	Table map[string][]uint64
	Names []string

	cols [][]uint64
	pos  int
	n    int
}

// NewScan builds a scan over the named columns.
func NewScan(table map[string][]uint64, names ...string) *Scan {
	return &Scan{Table: table, Names: names}
}

// Open implements Op.
func (s *Scan) Open() {
	s.cols = make([][]uint64, len(s.Names))
	s.n = 0
	for i, name := range s.Names {
		c, ok := s.Table[name]
		if !ok {
			panic(fmt.Sprintf("vecstore: unknown column %q", name))
		}
		s.cols[i] = c
		s.n = len(c)
	}
	s.pos = 0
}

// Next implements Op.
func (s *Scan) Next(out *Batch) bool {
	if s.pos >= s.n {
		return false
	}
	n := min(VectorSize, s.n-s.pos)
	for i, c := range s.cols {
		copy(out.Cols[i][:n], c[s.pos:s.pos+n])
	}
	out.N = n
	s.pos += n
	return true
}

// Schema implements Op.
func (s *Scan) Schema() []string { return s.Names }

// Select filters its child with a per-tuple predicate, compacting each
// vector in place (the vectorized selection primitive).
type Select struct {
	Child Op
	// Pred receives the child batch and a tuple position.
	Pred func(b *Batch, i int) bool

	buf *Batch
}

// Open implements Op.
func (s *Select) Open() {
	s.Child.Open()
	s.buf = newBatch(len(s.Child.Schema()))
}

// Next implements Op.
func (s *Select) Next(out *Batch) bool {
	for {
		if !s.Child.Next(s.buf) {
			return false
		}
		n := 0
		for i := 0; i < s.buf.N; i++ {
			if !s.Pred(s.buf, i) {
				continue
			}
			for c := range s.buf.Cols {
				out.Cols[c][n] = s.buf.Cols[c][i]
			}
			n++
		}
		if n > 0 {
			out.N = n
			return true
		}
	}
}

// Schema implements Op.
func (s *Select) Schema() []string { return s.Child.Schema() }

// Map appends one computed column to its child's output (the vectorized
// projection primitive, e.g. extendedprice*discount).
type Map struct {
	Child Op
	Name  string
	Fn    func(b *Batch, i int) uint64
}

// Open implements Op.
func (m *Map) Open() { m.Child.Open() }

// Next implements Op.
func (m *Map) Next(out *Batch) bool {
	// Child fills the leading columns of out directly; Map fills the last.
	child := &Batch{Cols: out.Cols[:len(out.Cols)-1]}
	if !m.Child.Next(child) {
		return false
	}
	out.N = child.N
	last := out.Cols[len(out.Cols)-1]
	for i := 0; i < out.N; i++ {
		last[i] = m.Fn(child, i)
	}
	return true
}

// Schema implements Op.
func (m *Map) Schema() []string { return append(append([]string{}, m.Child.Schema()...), m.Name) }

// HashJoin is the vectorized hash join. Open drains the build child into a
// hash table (keys plus payload columns); Next streams probe vectors,
// emitting, for every match, the probe columns plus the build payload —
// the per-join tuple-reconstruction copy of the vector model. Inner
// matches may fan out one probe vector into several output vectors.
type HashJoin struct {
	Build    Op
	BuildKey string
	// BuildPayload names the build columns carried into the output
	// (empty for a pure existence/semi join).
	BuildPayload []string
	Probe        Op
	ProbeKey     string
	// Semi keeps probe tuples with at least one match, carrying no
	// build columns and never fanning out.
	Semi bool

	ht       *hashbase.MultiMap
	payload  [][]uint64 // build payload values, indexed by build row id
	probeBuf *Batch
	probeKey int
	// The probe row being joined, its matches, and how many of them are
	// emitted: a match list can span output vectors.
	row     int
	matches []uint32
	emitted int
}

// Open implements Op.
func (j *HashJoin) Open() {
	j.Build.Open()
	j.Probe.Open()
	bSchema := j.Build.Schema()
	bKey := colIdx(bSchema, j.BuildKey)
	pay := make([]int, len(j.BuildPayload))
	for i, name := range j.BuildPayload {
		pay[i] = colIdx(bSchema, name)
	}
	j.ht = hashbase.NewMultiMap(1024)
	j.payload = j.payload[:0]
	buf := newBatch(len(bSchema))
	for j.Build.Next(buf) {
		for i := 0; i < buf.N; i++ {
			row := make([]uint64, len(pay))
			for c, p := range pay {
				row[c] = buf.Cols[p][i]
			}
			j.ht.Insert(buf.Cols[bKey][i], uint32(len(j.payload)))
			j.payload = append(j.payload, row)
		}
	}
	j.probeBuf = newBatch(len(j.Probe.Schema()))
	j.probeBuf.N = 0
	j.probeKey = colIdx(j.Probe.Schema(), j.ProbeKey)
	j.row, j.matches, j.emitted = 0, j.matches[:0], 0
}

// Schema implements Op.
func (j *HashJoin) Schema() []string {
	s := append([]string{}, j.Probe.Schema()...)
	if !j.Semi {
		s = append(s, j.BuildPayload...)
	}
	return s
}

// Next implements Op.
func (j *HashJoin) Next(out *Batch) bool {
	in, row, matches, emitted := j.probeBuf, j.row, j.matches, j.emitted
	collect := func(b uint32) { matches = append(matches, b) }
	n := 0
	for n < VectorSize {
		if emitted == len(matches) {
			// Advance to the next probe row, pulling a probe vector when
			// this one is used up, and collect its matches.
			if row++; row >= in.N {
				if !j.Probe.Next(in) {
					break
				}
				row = 0
			}
			k := in.Cols[j.probeKey][row]
			matches, emitted = matches[:0], 0
			if !j.Semi {
				j.ht.ForEach(k, collect)
			} else if j.ht.Contains(k) {
				matches = append(matches, 0)
			}
			continue
		}
		for c, col := range in.Cols {
			out.Cols[c][n] = col[row]
		}
		if !j.Semi {
			for c, v := range j.payload[matches[emitted]] {
				out.Cols[len(in.Cols)+c][n] = v
			}
		}
		emitted++
		n++
	}
	j.row, j.matches, j.emitted = row, matches, emitted
	out.N = n
	return n > 0
}

// HashAgg is the blocking vectorized hash aggregation: it drains its child
// at Open, grouping by one packed key column and summing the measure
// columns, then emits the group table vector by vector.
type HashAgg struct {
	Child    Op
	GroupCol string // packed group key column (callers pack multi-attr keys via Map)
	SumCols  []string

	keys  []uint64
	sums  [][]uint64
	index map[uint64]int
	pos   int
}

// Open implements Op.
func (a *HashAgg) Open() {
	a.Child.Open()
	schema := a.Child.Schema()
	g := colIdx(schema, a.GroupCol)
	sc := make([]int, len(a.SumCols))
	for i, name := range a.SumCols {
		sc[i] = colIdx(schema, name)
	}
	a.keys = a.keys[:0]
	a.sums = a.sums[:0]
	a.index = make(map[uint64]int)
	buf := newBatch(len(schema))
	for a.Child.Next(buf) {
		for i := 0; i < buf.N; i++ {
			k := buf.Cols[g][i]
			gi, ok := a.index[k]
			if !ok {
				gi = len(a.keys)
				a.index[k] = gi
				a.keys = append(a.keys, k)
				a.sums = append(a.sums, make([]uint64, len(sc)))
			}
			for c, p := range sc {
				a.sums[gi][c] += buf.Cols[p][i]
			}
		}
	}
	a.pos = 0
}

// Schema implements Op.
func (a *HashAgg) Schema() []string {
	return append([]string{a.GroupCol}, a.SumCols...)
}

// Next implements Op.
func (a *HashAgg) Next(out *Batch) bool {
	if a.pos >= len(a.keys) {
		return false
	}
	n := min(VectorSize, len(a.keys)-a.pos)
	for i := 0; i < n; i++ {
		out.Cols[0][i] = a.keys[a.pos+i]
		for c := range a.sums[a.pos+i] {
			out.Cols[1+c][i] = a.sums[a.pos+i][c]
		}
	}
	out.N = n
	a.pos += n
	return true
}

// Collect runs an operator tree to completion and materializes the result
// rows (for result delivery and tests).
func Collect(op Op) [][]uint64 {
	op.Open()
	width := len(op.Schema())
	out := newBatch(width)
	var rows [][]uint64
	for op.Next(out) {
		for i := 0; i < out.N; i++ {
			row := make([]uint64, width)
			for c := range out.Cols {
				row[c] = out.Cols[c][i]
			}
			rows = append(rows, row)
		}
	}
	return rows
}
