package core

import (
	"fmt"
	"time"

	"qppt/internal/arena"
)

// Pipeline fusion (ROADMAP "fuse pipelines across single-consumer
// edges"). QPPT's decomposed-plan model materializes a full prefix-tree
// index for every operator output. That is pure overhead when the output
// has exactly one consumer that immediately re-streams it through its own
// pipeline: the index is built, scanned once, and dropped. Fusion detects
// maximal runs of such edges (fuseChain) and executes each run as ONE
// morsel-driven stage — the bottom link drives its native scan over its
// own key-range morsels, every upper link consumes the combinations as a
// stream through its probe pipeline (sink.forward), and only the top link
// materializes an output index. No arena chunks are allocated for the
// bypassed intermediates, nothing is registered with the spill manager,
// and no partial merge happens below the top.
//
// Fusion degrades gracefully: an edge stays materialized when the
// producer output is multi-consumer (the index is genuinely shared),
// aggregating (the fold must see the whole multiset before the consumer
// reads it), or feeds a consumer fusion cannot stream into —
// Join/Intersect consumers need a single-field probe key, UnionDistinct
// iterates both inputs. Options.NoFuse turns the whole mechanism off.
//
// Fused links forward in batches (Options.ProbeBatch): each link's
// probe buffer accumulates assembled combinations and hands them to the
// link above key-sorted, so the consumer's batched index probes and
// inserts walk shared tree descents once per batch instead of once per
// combination — the vector-at-a-time processing the paper's batch
// algorithms are built for, inside a morsel-driven stage. Sorting is
// adaptive: a batch is sorted only when the consumer can amortize it — a
// probing consumer whose probe target is deep enough (probeSortMinKeys)
// — and only when it does not already arrive in key order; range-stream
// consumers and shallow probe targets get the batch in arrival order,
// keeping the batch machinery's overhead to the buffer copy.
//
// Selection/Having consumers fuse as *range streams*: the producer's
// key-sorted batches stand in for the ordered key-range scan the
// materialized path would run, the selection applies its predicate on
// the stream (predMatch), and — when every link below forwards the scan
// key unchanged — the predicate envelope additionally clips the bottom
// link's scan bounds (chainEnvelope), so out-of-range keys are never
// even produced. The partial-thaw optimization a materialized Selection
// input would drive is moot here: the bypassed intermediate is never
// built, so there is nothing to freeze or thaw.
//
// Streaming preserves the materialized semantics exactly: the bypassed
// index would have held one entry per assembled combination (existence-
// only outputs preserve multiplicity through their duplicate-list
// length), and the consumer's scan/probe path visits each entry once —
// so forwarding each assembled combination directly yields the same
// multiset. Only the arrival ORDER at the top sink differs (producer-scan
// order instead of output key order), which is invisible to folded
// outputs and to any consumer that does not rely on intra-key duplicate
// row order — the same caveat morsel parallelism already carries.

// A fuseChain is one maximal run of single-consumer edges executed as a
// single stage. links runs bottom → top; ords[i] is the input ordinal of
// links[i] that links[i-1] streams into (ords[0] = -1: the bottom drives
// its own scan). Only the top link materializes.
type fuseChain struct {
	links []Operator
	ords  []int
}

func (ch *fuseChain) top() Operator { return ch.links[len(ch.links)-1] }

// FusableEdges reports how many producer→consumer edges pipeline fusion
// skips when the plan rooted at root runs with fusion on — the number of
// intermediate indexes never built. Planning surfaces (prepared
// statements, EXPLAIN-style tooling) use it to annotate a plan without
// executing it.
func FusableEdges(root Operator) int {
	uses := make(map[Operator]int)
	countUses(root, uses)
	uses[root]++ // the caller consumes the result, matching Env.Run
	n := 0
	for _, ch := range buildChains(root, uses) {
		n += len(ch.links) - 1
	}
	return n
}

// fuseSpec returns a fusable operator's output spec (nil for kinds fusion
// never touches).
func fuseSpec(op Operator) *OutputSpec {
	switch p := op.(type) {
	case *Selection:
		return &p.Out
	case *Join:
		return &p.Out
	case *SelectJoin:
		return &p.Out
	case *Intersect:
		return &p.Out
	}
	return nil
}

// fusableProducer reports whether op's output may be streamed instead of
// materialized: a single-consumer, non-aggregating Selection, Join,
// SelectJoin or Intersect. Folding outputs must materialize — the fold
// collapses the multiset per key, and the consumer must see the collapsed
// rows, not the raw combinations.
func fusableProducer(op Operator, uses map[Operator]int) bool {
	if uses[op] != 1 {
		return false
	}
	spec := fuseSpec(op)
	return spec != nil && spec.Fold == nil
}

// fuseCands reports which input ordinals of a consumer can accept a fused
// stream, and whether the producer's output key must be a single field.
// Join and Intersect replace the synchronous scan with a probe of the
// other main, keyed by one context slot — so the fused main's key must be
// single-attribute. SelectJoin and Selection (= Having) match their
// predicate on the raw (possibly composed) key, so any arity works: the
// key-range scan a materialized Selection input would get is replaced by
// the predicate applied to the ordered range stream (and, where the key
// passes through unchanged, by clipping the bottom scan to the predicate
// envelope — chainEnvelope).
func fuseCands(op Operator) (ords []int, needSingleKey bool) {
	switch op.(type) {
	case *Join:
		return []int{0, 1}, true
	case *SelectJoin:
		return []int{0}, false
	case *Selection:
		return []int{0}, false
	case *Intersect:
		return []int{0, 1}, true
	}
	return nil, false
}

// chainAt grows the longest fusable chain ending at top, following at
// most one fused edge per consumer (the first qualifying candidate
// ordinal). Returns nil when no edge into top fuses.
func chainAt(top Operator, uses map[Operator]int) *fuseChain {
	type edge struct {
		child Operator
		ord   int
	}
	var edges []edge // collected top-down
	cur := top
	for {
		cands, needSingle := fuseCands(cur)
		var child Operator
		ord := -1
		children := cur.Children()
		for _, o := range cands {
			c := children[o]
			if !fusableProducer(c, uses) {
				continue
			}
			if needSingle && len(fuseSpec(c).Key.Attrs) != 1 {
				continue
			}
			child, ord = c, o
			break
		}
		if child == nil {
			break
		}
		edges = append(edges, edge{child: child, ord: ord})
		cur = child
	}
	n := len(edges)
	if n == 0 {
		return nil
	}
	ch := &fuseChain{links: make([]Operator, n+1), ords: make([]int, n+1)}
	ch.ords[0] = -1
	for k := 0; k < n; k++ {
		ch.links[k] = edges[n-1-k].child
	}
	ch.links[n] = top
	for k := 1; k <= n; k++ {
		ch.ords[k] = edges[n-k].ord
	}
	return ch
}

// buildChains walks the plan once and returns every fused chain, keyed by
// its top link — the operator the executor resolves; the links below it
// are bypassed and never resolved on their own. A plan with nothing to
// fuse gets a nil map.
func buildChains(root Operator, uses map[Operator]int) map[Operator]*fuseChain {
	var chains map[Operator]*fuseChain
	seen := make(map[Operator]bool)
	var walk func(op Operator)
	walk = func(op Operator) {
		if seen[op] {
			return
		}
		seen[op] = true
		if ch := chainAt(op, uses); ch != nil {
			if chains == nil {
				chains = make(map[Operator]*fuseChain)
			}
			chains[op] = ch
			// Recurse only into the inputs that stay materialized; the
			// fused links belong to this chain.
			for i, l := range ch.links {
				for o, c := range l.Children() {
					if i > 0 && o == ch.ords[i] {
						continue
					}
					walk(c)
				}
			}
			return
		}
		for _, c := range op.Children() {
			walk(c)
		}
	}
	walk(root)
	return chains
}

// predMatch reports whether key k satisfies a selection predicate,
// matching feedScan's range semantics: a nil predicate accepts
// everything, an empty non-nil one nothing.
func predMatch(pred KeyPred, k uint64) bool {
	if pred == nil {
		return true
	}
	for _, r := range pred {
		if k >= r.Lo && k <= r.Hi {
			return true
		}
	}
	return false
}

// fusedPipe builds the pipeline through which a fused consumer receives
// the producer's streamed combinations, and returns the accept hook the
// producer's forwarding sink calls with each assembled (key, row) pair.
// inputs[fo] is a shape placeholder for the bypassed intermediate — it
// fixes the context layout but is never scanned or probed.
func fusedPipe(ec *ExecContext, op Operator, fo int, inputs []*IndexedTable) (*pipeline, func(k uint64, row []uint64), error) {
	switch c := op.(type) {
	case *Join:
		return fusedJoinPipe(ec, c, fo, inputs)
	case *Intersect:
		return fusedJoinPipe(ec, c.asJoin(), fo, inputs)
	case *SelectJoin:
		p, err := c.pipe(ec, inputs)
		if err != nil {
			return nil, nil, err
		}
		comp := inputs[0].Key.Composer()
		ctx := make([]uint64, p.layout.width)
		accept := func(k uint64, row []uint64) {
			// The selection predicate on the streamed key stands in for
			// the key-range scan of the materialized path; wireForward
			// evaluates it per batch (selection vector) or per key
			// (scalar forwarding) before this hook runs, and feed then
			// applies the selection residual before the main probe.
			if p.aborted() {
				return
			}
			p.layout.fillKey(ctx, 0, k, comp)
			p.layout.fillRow(ctx, 0, row)
			p.feed(ctx)
		}
		return p, accept, nil
	case *Selection:
		p, err := c.pipe(ec, inputs)
		if err != nil {
			return nil, nil, err
		}
		comp := inputs[0].Key.Composer()
		ctx := make([]uint64, p.layout.width)
		accept := func(k uint64, row []uint64) {
			// Range-stream fusion: the key-sorted batches arriving here
			// are the ordered range stream the materialized path would
			// have scanned out of the intermediate index. The predicate
			// runs upstream of this hook — wireForward compacts each
			// producer batch by selection vector (or wraps the scalar
			// forward with predMatch) — the residual inside feed, and
			// nothing is ever indexed below the chain top.
			if p.aborted() {
				return
			}
			p.layout.fillKey(ctx, 0, k, comp)
			p.layout.fillRow(ctx, 0, row)
			p.feed(ctx)
		}
		return p, accept, nil
	}
	return nil, nil, fmt.Errorf("core: operator %s cannot consume a fused stream", op.Label())
}

// fusedJoinPipe replaces the join's synchronous scan: the fused main (at
// ordinal fo) streams in and the other main becomes probe stage 0, keyed
// by the streamed main's (single-field) key. Assists follow as stages 1+,
// and the join residual — which the materialized path applies after both
// mains are filled, before any assist — runs on entry to stage 1.
func fusedJoinPipe(ec *ExecContext, j *Join, fo int, inputs []*IndexedTable) (*pipeline, func(k uint64, row []uint64), error) {
	layout := newCtxLayout(inputs...)
	p := newPipeline(ec, layout)
	p.addProbe(1-fo, layout.keyOff(fo, 0))
	for i, a := range j.Assists {
		off, err := layout.resolve(a.ProbeWith)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %s assist %d: %w", j.Label(), i, err)
		}
		p.addProbe(2+i, off)
	}
	p.setFilter(1, j.Residual)
	ctx := make([]uint64, layout.width)
	accept := func(k uint64, row []uint64) {
		if p.aborted() {
			return
		}
		p.layout.fillKey(ctx, fo, k, nil) // single-field key: no composer
		p.layout.fillRow(ctx, fo, row)
		p.feedStage(0, ctx)
	}
	return p, accept, nil
}

// fusedKindOf labels the kind of fused edge by the consumer it streams
// into (OperatorStats.FusedKind).
func fusedKindOf(consumer Operator) string {
	switch consumer.(type) {
	case *Selection:
		return "range-stream"
	case *SelectJoin:
		return "select-probe"
	case *Join, *Intersect:
		return "probe"
	}
	return ""
}

// forwardsScanKey reports whether link i of the chain forwards its
// driving key unchanged: the link's output key is a single field read
// straight from the key slot the scanned (i == 0) or streamed (i > 0)
// input fills with the raw key. Only through such links does a
// downstream Selection's key predicate constrain the bottom scan.
func forwardsScanKey(ch *fuseChain, i int, inputs []*IndexedTable) bool {
	spec := fuseSpec(ch.links[i])
	if len(spec.KeyRefs) != 1 {
		return false
	}
	layout := newCtxLayout(inputs...)
	off, err := layout.resolve(spec.KeyRefs[0])
	if err != nil {
		return false
	}
	var cands []int
	if i == 0 {
		switch ch.links[0].(type) {
		case *Join, *Intersect:
			// The synchronous scan fills both mains' key slots with the
			// same scanned key.
			cands = []int{0, 1}
		default:
			cands = []int{0}
		}
	} else {
		cands = []int{ch.ords[i]}
	}
	for _, fo := range cands {
		// A multi-attribute key is composed: its individual fields are
		// not the raw driving key, so only single-field slots qualify.
		if len(layout.inputs[fo].Key.Attrs) == 1 && off == layout.keyOff(fo, 0) {
			return true
		}
	}
	return false
}

// chainEnvelope intersects the predicate envelopes of the chain's fused
// Selection consumers that observe the bottom scan key unchanged. The
// result is an extra clip on the bottom link's scan bounds: a key outside
// the envelope would flow up the chain unchanged and die at that
// selection's predMatch, so the bottom never scans it. ok is false when
// no fused selection constrains the scan key.
func chainEnvelope(ch *fuseChain, inputsOf [][]*IndexedTable) (lo, hi uint64, ok bool) {
	for i := 1; i < len(ch.links); i++ {
		if !forwardsScanKey(ch, i-1, inputsOf[i-1]) {
			break // the key is transformed below this link; predicates above do not see the scan key
		}
		sel, isSel := ch.links[i].(*Selection)
		if !isSel {
			continue
		}
		plo, phi, pok := predEnvelope(sel.Pred)
		if !pok {
			continue
		}
		if !ok {
			lo, hi, ok = plo, phi, true
		} else {
			lo, hi = max(lo, plo), min(hi, phi)
		}
	}
	return lo, hi, ok
}

// bottomPipe builds the chain bottom's native combination pipeline; the
// driver attaches the forwarding sink.
func bottomPipe(ec *ExecContext, op Operator, inputs []*IndexedTable) (*pipeline, error) {
	switch b := op.(type) {
	case *Selection:
		return b.pipe(ec, inputs)
	case *Join:
		return b.pipe(ec, inputs)
	case *SelectJoin:
		return b.pipe(ec, inputs)
	case *Intersect:
		return b.asJoin().pipe(ec, inputs)
	}
	return nil, fmt.Errorf("core: operator %s cannot drive a fused chain", op.Label())
}

// bottomScan returns the chain bottom's native morsel scan and bounds.
func bottomScan(op Operator, inputs []*IndexedTable) (scanFn, boundsFn, error) {
	switch b := op.(type) {
	case *Selection:
		return b.scan(inputs), b.bounds(inputs), nil
	case *Join:
		return b.scan(inputs), b.bounds(inputs), nil
	case *SelectJoin:
		return b.scan(inputs), b.bounds(inputs), nil
	case *Intersect:
		j := b.asJoin()
		return j.scan(inputs), j.bounds(inputs), nil
	}
	return nil, nil, fmt.Errorf("core: operator %s cannot drive a fused chain", op.Label())
}

// runChain executes one fused chain inside the top link's memo entry:
// resolve the materialized inputs of every link, pin whatever of them is
// spilled, run the chain as one morsel-driven stage, then finish the top
// (finishOp) over the consumed inputs — exactly what resolve does around a
// single operator, widened to the whole chain.
func (ex *executor) runChain(ch *fuseChain, e *memoEntry, stats *PlanStats) {
	n := len(ch.links)
	childOf := make([][]Operator, n)
	inputsOf := make([][]*IndexedTable, n)
	type slot struct{ link, ord int }
	var slots []slot
	for i, l := range ch.links {
		cs := l.Children()
		childOf[i] = cs
		inputsOf[i] = make([]*IndexedTable, len(cs))
		for o := range cs {
			if i > 0 && o == ch.ords[i] {
				continue // the fused edge: no materialized input
			}
			slots = append(slots, slot{i, o})
		}
	}
	resolveSlot := func(s slot) error {
		in, err := ex.resolve(childOf[s.link][s.ord], stats)
		inputsOf[s.link][s.ord] = in
		return err
	}
	if ex.sched.parallel() && len(slots) > 1 {
		ops := make([]Operator, len(slots))
		for i, s := range slots {
			ops[i] = childOf[s.link][s.ord]
		}
		tasks := make([]func() error, len(slots))
		for t, oi := range ex.frostOrder(ops) {
			s := slots[oi]
			tasks[t] = func() error { return resolveSlot(s) }
		}
		if err := ex.sched.Fork(tasks...); err != nil {
			e.err = err
			return
		}
	} else {
		for _, s := range slots {
			if err := resolveSlot(s); err != nil {
				e.err = err
				return
			}
		}
	}
	// The bypassed edges get shape placeholders: the skipped
	// intermediate's key spec and column layout with no index behind it.
	for i := 1; i < n; i++ {
		inputsOf[i][ch.ords[i]] = fuseSpec(ch.links[i-1]).ShapeOf()
	}
	pinned, err := ex.pinInputs(inputsOf...)
	if err != nil {
		e.err = err
		return
	}
	// One ExecContext per link, so the stream's combination counts and
	// probe lookups attribute to the operator that produced them instead
	// of lumping into the top's statistics.
	ecs := make([]*ExecContext, n)
	for i, l := range ch.links {
		ec := &ExecContext{ctx: ex.ctx, opts: ex.opts, sched: ex.sched,
			rec: ex.rec, wrecs: ex.wrecs, spill: ex.spill}
		if stats != nil {
			st := &OperatorStats{Label: l.Label(), Fused: i < n-1}
			ec.opStats = st
			if i < n-1 {
				st.FusedKind = fusedKindOf(ch.links[i+1])
				e.pre = append(e.pre, st)
			} else {
				e.st = st
			}
		}
		ecs[i] = ec
	}
	t0 := time.Now()
	e.out, e.err = ex.driveChain(ch, ecs, inputsOf)
	if e.err == nil {
		// A scan aborted by cancellation can surface a partial output;
		// never memoize it as a valid result.
		e.err = ex.ctx.Err()
	}
	if e.err == nil && e.st != nil {
		// The links execute as one interleaved stage; each reports the
		// chain's wall time, with IndexTime (and so MaterializeTime)
		// still per link — only the top ever indexes.
		elapsed := time.Since(t0)
		for _, ec := range ecs {
			ec.opStats.Time = elapsed
			ec.opStats.MaterializeTime = elapsed - ec.opStats.IndexTime
			if ec.opStats.ProbeBatches > 0 {
				// Producers fill batches they streamed out; a non-probing
				// chain top fills from the batches it received instead.
				ec.opStats.AvgBatchFill = float64(ec.opStats.TuplesStreamed+ec.opStats.StreamedIn) / float64(ec.opStats.ProbeBatches)
			}
		}
		e.st.OutRows = e.out.Rows()
		e.st.OutKeys = e.out.Keys()
		e.st.OutBytes = e.out.Idx.Bytes()
	}
	ex.mu.Lock()
	ex.fusedEdges += n - 1
	ex.mu.Unlock()
	children := make([]Operator, len(slots))
	inputs := make([]*IndexedTable, len(slots))
	for i, s := range slots {
		children[i], inputs[i] = childOf[s.link][s.ord], inputsOf[s.link][s.ord]
	}
	ex.finishOp(ch.top(), e, pinned, children, inputs)
}

// driveChain runs the fused chain as one morsel-driven stage: per pool
// worker one stack of pipelines (the bottom's native pipe, fused consumer
// pipes above it, the top's materializing sink), the bottom's native scan
// claiming key-range morsels, and the top partials combined with the
// parallel partition-wise merge — the exact shape of runMorsels with a
// pipeline stack in place of the single pipeline.
func (ex *executor) driveChain(ch *fuseChain, ecs []*ExecContext, inputsOf [][]*IndexedTable) (*IndexedTable, error) {
	n := len(ch.links)
	spec := fuseSpec(ch.top())
	scan, bounds, err := bottomScan(ch.links[0], inputsOf[0])
	if err != nil {
		return nil, err
	}
	// Fused links forward their combinations in key-sorted batches of
	// probeBatch (Options.ProbeBatch); 1 degenerates to scalar
	// combination-at-a-time forwarding, the pre-batching behavior.
	probeBatch := ecs[0].probeBatch()
	// sortPays reports whether key-sorting link i's probe batches can buy
	// anything from the consumer above: a Selection applies its predicate
	// per combination without probing an index, and probes into a shallow
	// index descend a level or two no matter the order — in both cases the
	// per-batch sort costs more than the shared descents it would create.
	sortPays := func(i int) bool {
		consumer := ch.links[i+1]
		if _, ok := consumer.(*Selection); ok {
			return false
		}
		for o, in := range inputsOf[i+1] {
			if o != ch.ords[i+1] && in != nil && in.Keys() >= probeSortMinKeys {
				return true
			}
		}
		return false
	}
	// streamPred returns the consumer's key predicate on the fused stream
	// (nil: no predicate). Selection covers Having via the type alias.
	streamPred := func(op Operator) KeyPred {
		switch c := op.(type) {
		case *Selection:
			return c.Pred
		case *SelectJoin:
			return c.Pred
		}
		return nil
	}
	// wireForward attaches link i's forwarding sink: batched (the probe
	// buffer hands the consumer's accept hook the batch, key-sorted when
	// that pays) or scalar. The consumer's stream predicate moves into
	// the sink here: batched sinks evaluate it per batch into a selection
	// vector (setForwardFilter), scalar forwarding wraps the accept hook
	// with the per-key predMatch. consumer is the pipe the batches land
	// in; a non-probing chain top (range-stream / select-probe) has no
	// probe stages of its own, so the received-batch counts attributed
	// here are the only batch stats it gets.
	wireForward := func(i int, p *pipeline, spec *OutputSpec, accept func(k uint64, row []uint64), consumer *pipeline) error {
		pred := streamPred(ch.links[i+1])
		if probeBatch <= 1 {
			if pred != nil {
				inner := accept
				accept = func(k uint64, row []uint64) {
					if predMatch(pred, k) {
						inner(k, row)
					}
				}
			}
			return p.setForward(spec, accept)
		}
		countIn := i+1 == n-1 && fusedKindOf(ch.links[i+1]) != "probe"
		w := len(spec.Cols)
		err := p.setForwardBatch(spec, probeBatch, sortPays(i), func(keys, rows []uint64, perm []uint32) {
			if countIn {
				consumer.fedBatches++
				consumer.fedRows += len(keys)
			}
			if perm == nil { // arrival order (already sorted, or sorting skipped)
				for i := range keys {
					accept(keys[i], rows[i*w:i*w+w])
				}
				return
			}
			for _, j := range perm {
				accept(keys[j], rows[int(j)*w:int(j)*w+w])
			}
		})
		if err == nil && pred != nil {
			p.setForwardFilter(pred)
		}
		return err
	}
	// newStack builds one worker's pipeline stack, wiring each link's
	// forwarding sink to the accept hook of the link above, top-down.
	newStack := func(sinkSpec *OutputSpec, rec *arena.Recycler) ([]*pipeline, *IndexedTable, error) {
		pipes := make([]*pipeline, n)
		var accept func(k uint64, row []uint64)
		var out *IndexedTable
		for i := n - 1; i >= 1; i-- {
			p, acc, err := fusedPipe(ecs[i], ch.links[i], ch.ords[i], inputsOf[i])
			if err != nil {
				return nil, nil, err
			}
			p.rec = rec // sink index chunks (top) and probe buffers (below) share the worker pool
			if i == n-1 {
				if out, err = p.setSink(sinkSpec); err != nil {
					return nil, nil, err
				}
			} else if err = wireForward(i, p, fuseSpec(ch.links[i]), accept, pipes[i+1]); err != nil {
				return nil, nil, err
			}
			pipes[i] = p
			accept = acc
		}
		p0, err := bottomPipe(ecs[0], ch.links[0], inputsOf[0])
		if err != nil {
			return nil, nil, err
		}
		p0.rec = rec
		if err := wireForward(0, p0, fuseSpec(ch.links[0]), accept, pipes[1]); err != nil {
			return nil, nil, err
		}
		pipes[0] = p0
		return pipes, out, nil
	}
	finish := func(pipes []*pipeline) {
		for i, p := range pipes { // bottom → top: buffered combinations cascade upward
			p.finish() // also parks the probe buffers for the next worker/plan
			ecs[i].noteSink(p)
		}
	}
	topEC := ecs[n-1]
	sched := topEC.scheduler()
	empty := func() (*IndexedTable, error) {
		pipes, out, err := newStack(spec, topEC.rec)
		if err != nil {
			return nil, err
		}
		finish(pipes)
		return out, nil
	}
	lo, hi, ok := bounds()
	if !ok {
		return empty()
	}
	clipped := false
	if elo, ehi, eok := chainEnvelope(ch, inputsOf); eok {
		// A fused range-stream consumer constrains the scan key: clip the
		// bottom scan to its predicate envelope so out-of-range keys are
		// never produced just to be dropped at predMatch.
		if elo > lo {
			lo, clipped = elo, true
		}
		if ehi < hi {
			hi, clipped = ehi, true
		}
		if lo > hi {
			return empty()
		}
	}
	workers := sched.Workers()
	morsels := 1
	if workers > 1 {
		morsels = workers * topEC.morselsPerWorker()
	}
	stacks := make([][]*pipeline, workers)
	outs := make([]*IndexedTable, workers)
	err = sched.ForEachWorker(morsels, func(w, m int) error {
		if err := topEC.err(); err != nil {
			return err // cancelled: stop claiming morsels
		}
		mLo, mHi, ok := partitionBounds(lo, hi, m, morsels)
		if !ok {
			return nil
		}
		pipes := stacks[w]
		if pipes == nil {
			specCopy := *spec // private sink per worker partial
			var err error
			pipes, outs[w], err = newStack(&specCopy, topEC.workerRec(w))
			if err != nil {
				return err
			}
			stacks[w] = pipes
		}
		// A clipped serial scan must take the morsel-range path: the
		// whole-input fast path ignores the bounds.
		scan(pipes[0], mLo, mHi, morsels == 1 && !clipped)
		if err := topEC.err(); err != nil {
			return err // the scan itself may have been aborted mid-morsel
		}
		for _, p := range pipes {
			p.morsels++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var partials []*IndexedTable
	for w, pipes := range stacks {
		if pipes == nil {
			continue
		}
		finish(pipes)
		partials = append(partials, outs[w])
	}
	switch len(partials) {
	case 0:
		return empty()
	case 1:
		return partials[0], nil
	}
	out, err := mergePartialsParallel(topEC, spec, partials)
	if err != nil {
		return nil, err
	}
	for _, p := range partials {
		p.Release()
	}
	return out, nil
}
