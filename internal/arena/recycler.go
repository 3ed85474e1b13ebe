// Plan-scoped chunk recycling (ROADMAP "Arena reuse across operators").
//
// QPPT builds one prefix-tree index per operator, so a plan allocates and
// drops the same chunk shapes over and over: 256 KiB node-slot chunks,
// leaf-header chunks, 64 KiB duplicate slabs. A Recycler is a size-classed
// free list those allocations can cycle through: when the executor drops an
// intermediate index, its chunks are cleared and parked here instead of
// being handed to the garbage collector, and the next index the plan
// builds draws its chunks from the pool before asking the heap. A 13-query
// SSB run then works against a near-steady-state chunk population instead
// of re-allocating (and re-collecting) every operator's index from scratch.
//
// The pool is keyed by element type and chunk capacity, so a chunk only
// ever comes back as what it was — a []Leaf chunk can never resurface as
// node slots.
//
// The zero invariant: every chunk, fresh from make or parked in a pool, is
// zero over [len, cap). Owners only ever write below a chunk's length
// (arenas append, slabs bump an offset), so PutChunk clears exactly the
// written prefix c[:len(c)] — dropping the payload references it held —
// and the chunk is all-zero again, indistinguishable from a fresh make.
// The cost of dropping an index is therefore proportional to what was
// written into it, not to the chunk sizes it reserved. An owner that
// scribbles over a chunk in some other pattern (scratch buffers truncated
// and refilled, the sparse KISS-Tree root pages) restores the invariant
// itself: it hands the chunk over at its high-water length, or zeroes the
// span it wrote and hands it over empty.
//
// A Recycler is safe for concurrent use: every pool worker building a
// partial index draws from (and releases to) the same pool, and so does
// every concurrent plan of the core.Env (the qppt.Engine) that owns it.
//
// The pool outlives every plan; SetCap bounds the bytes it may retain — a
// PutChunk that would push the pooled bytes over the cap drops the chunk
// to the garbage collector instead (a *trim eviction*, counted in
// RecyclerStats), so one freak plan cannot pin its peak footprint for the
// environment's lifetime.
package arena

import (
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
)

// A Recycler pools dropped arena chunks and slab blocks for reuse within
// and across the plans of one execution environment. The zero
// value is not ready; create with NewRecycler. A nil *Recycler is accepted
// everywhere and disables recycling.
type Recycler struct {
	mu sync.Mutex
	// boxes holds the parked chunks by class, each as the address of its
	// backing array: the class fixes the element type and capacity, so the
	// address is all GetChunk needs, and parking one allocates nothing
	// (a slice boxed into an interface would cost a heap header per put).
	boxes  map[chunkClass][]unsafe.Pointer
	cap    int64 // max pooled bytes; 0 = unbounded
	pooled int64 // bytes currently parked
	stats  RecyclerStats
}

// chunkClass identifies one pool: chunks recycle only within their exact
// element type and capacity.
type chunkClass struct {
	elem reflect.Type
	cap  int
}

// RecyclerStats count the pool's traffic for plan statistics.
type RecyclerStats struct {
	// Recycled counts chunks parked in the pool; Reused counts chunk
	// allocations served from it instead of the heap.
	Recycled int
	Reused   int
	// SavedBytes is the heap allocation avoided by the served reuses.
	SavedBytes int64
	// PooledBytes is the current byte footprint of the parked chunks.
	PooledBytes int64
	// TrimEvicted counts chunks dropped by the SetCap trim policy instead
	// of being pooled; TrimEvictedBytes is their byte footprint. Nonzero
	// values mean the session cap is below the workload's steady-state
	// chunk population.
	TrimEvicted      int
	TrimEvictedBytes int64
}

// NewRecycler returns an empty pool.
func NewRecycler() *Recycler {
	return &Recycler{boxes: make(map[chunkClass][]unsafe.Pointer)}
}

// SetCap bounds the bytes the pool may retain: a PutChunk that would push
// the pooled bytes past capBytes drops its chunk to the garbage collector
// instead and counts a trim eviction. capBytes <= 0 removes the bound.
func (r *Recycler) SetCap(capBytes int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if capBytes < 0 {
		capBytes = 0
	}
	r.cap = capBytes
	r.mu.Unlock()
}

// Stats returns a snapshot of the pool counters.
func (r *Recycler) Stats() RecyclerStats {
	if r == nil {
		return RecyclerStats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.PooledBytes = r.pooled
	return s
}

// classOf returns the pool key for element type T at the given capacity.
func classOf[T any](capElems int) chunkClass {
	return chunkClass{elem: reflect.TypeOf((*T)(nil)).Elem(), cap: capElems}
}

// PutChunk clears the written prefix c[:len(c)] and parks the chunk for
// reuse. By the zero invariant (package comment) the caller guarantees
// that c[len(c):cap(c)] is still zero, so the parked chunk is zero
// throughout. The caller must not touch c afterwards; a later GetChunk may
// hand it out again. A nil recycler (or a zero-capacity chunk) is a no-op.
func PutChunk[T any](r *Recycler, c []T) {
	if r == nil || cap(c) == 0 {
		return
	}
	clear(c) // drop payload references; a recycled chunk reads as fresh
	var zero T
	bytes := int64(cap(c)) * int64(unsafe.Sizeof(zero))
	k := classOf[T](cap(c))
	r.mu.Lock()
	if r.cap > 0 && r.pooled+bytes > r.cap {
		// Trim policy: the pool is full — let the GC take this chunk and
		// record that the cap, not the workload, decided so.
		r.stats.TrimEvicted++
		r.stats.TrimEvictedBytes += bytes
		r.mu.Unlock()
		return
	}
	r.boxes[k] = append(r.boxes[k], unsafe.Pointer(unsafe.SliceData(c)))
	r.stats.Recycled++
	r.pooled += bytes
	r.mu.Unlock()
}

// NewChunk returns a length-0 chunk of exactly capElems capacity, served
// from the pool when a matching chunk is parked and freshly allocated
// otherwise. It is the allocation entry point for recycler-backed scratch
// buffers — e.g. the per-worker insert buffers of pipeline sinks — whose
// size class (element type × capacity) repeats across workers and plans:
// give the buffer back with PutChunk when the stage finishes and the next
// worker's NewChunk finds it. A nil recycler degrades to a plain make.
func NewChunk[T any](r *Recycler, capElems int) []T {
	if c, ok := GetChunk[T](r, capElems); ok {
		return c
	}
	return make([]T, 0, capElems)
}

// GetChunk returns a pooled zeroed chunk of exactly the requested element
// capacity (length 0), or ok == false when the pool has none (or r is nil).
func GetChunk[T any](r *Recycler, capElems int) ([]T, bool) {
	if r == nil || capElems == 0 {
		return nil, false
	}
	k := classOf[T](capElems)
	r.mu.Lock()
	defer r.mu.Unlock()
	pool := r.boxes[k]
	n := len(pool)
	if n == 0 {
		return nil, false
	}
	c := unsafe.Slice((*T)(pool[n-1]), capElems)[:0]
	pool[n-1] = nil
	r.boxes[k] = pool[:n-1]
	if chk := handoutCheck.Load(); chk != nil {
		(*chk)(k.elem.String(), firstNonZeroByte(c[:capElems]))
	}
	r.stats.Reused++
	var zero T
	bytes := int64(capElems) * int64(unsafe.Sizeof(zero))
	r.stats.SavedBytes += bytes
	r.pooled -= bytes
	return c, true
}

// handoutCheck is the test hook behind CheckHandouts.
var handoutCheck atomic.Pointer[func(elem string, dirtyAt int)]

// CheckHandouts installs a test-only observer of the zero invariant: every
// chunk a pool hands out is scanned over its full capacity and reported to
// check with its element type and the byte offset of the first non-zero
// byte (-1 for a clean chunk). The returned func uninstalls the observer.
// Production code never calls this.
//
//qpptvet:ignore unreached test support: arenatest and the arena tests install it
func CheckHandouts(check func(elem string, dirtyAt int)) (restore func()) {
	prev := handoutCheck.Swap(&check)
	return func() { handoutCheck.Store(prev) }
}

// firstNonZeroByte returns the offset of the first non-zero byte of c's
// memory, or -1 when c is all zero.
func firstNonZeroByte[T any](c []T) int {
	if len(c) == 0 {
		return -1
	}
	var zero T
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(c))), len(c)*int(unsafe.Sizeof(zero)))
	for i, v := range b {
		if v != 0 {
			return i
		}
	}
	return -1
}
