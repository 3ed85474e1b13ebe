// Package spill implements the index spill manager (ROADMAP "Index
// spilling").
//
// QPPT builds an intermediate prefix-tree index per operator, so the total
// index footprint — not the base tables — is what caps the scale factor a
// plan can run. Because the index structures store compact pointers (arena
// indices, not machine addresses), a cold intermediate index is just a
// handful of large contiguous chunks that can be written to a temp file in
// one sequential pass and read back verbatim on next access.
//
// The manager tracks every registered intermediate with its resident byte
// count (the arenas' reserved chunk capacity — see arena.Slots.Bytes) and
// enforces a byte budget: whenever residency exceeds the budget, the
// least-recently-used unpinned entry is frozen to disk until the plan fits
// again. Pinning an entry thaws it if needed and protects it while an
// operator reads it. Eviction is best-effort — when everything live is
// pinned, the plan runs over budget rather than deadlocking.
//
// The rule the executor and the manager keep between them is that a freeze
// writes only what a later operator will read back. The budget is balanced
// at operator boundaries: once after an operator's whole input set is pinned
// (PinSet — the set is exempt from eviction before its first member thaws,
// so inputs never evict each other), and once after its output is
// registered, by which time the inputs whose last consumer it was are
// already dropped and the others unpinned (UnpinSet). Two things never
// spill: an input past its last consumer, which leaves the budget by Drop
// with no I/O, and the plan result, which is the caller's and is never
// registered. A freeze or thaw allocates nothing per event — the manager
// owns the I/O buffers and hands one to each transition.
//
// Freeze/Thaw I/O runs *outside* the manager lock: each entry carries its
// own freezing/thawing state, and pins on an entry mid-transition wait on
// a condition variable while other entries keep pinning, unpinning, and
// spilling concurrently. A wait is only ever for a transition, which
// finishes on its own, never for another pin; so pins may be taken in any
// order. Each entry's I/O itself stays one sequential pass — the pattern
// the chunk layout is designed for. There is one way back: a pin of a
// frozen entry thaws the whole structure from its file.
//
// Registered structures are read-only after registration (operators build
// an index once, then only scan and probe it); the manager exploits that
// by keeping spill files valid across thaws — re-evicting a clean entry
// releases its storage without rewriting a byte.
package spill

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// A Freezer can snapshot its storage into a byte stream, detach it, and
// restore it later. Both QPPT tree kinds (and the sharded index over
// them) implement it via their arena chunk export.
//
// Snapshot and Release are split so the manager can sequence them safely
// around file I/O: Release is called only after the snapshot is flushed
// and closed on disk. If writing fails at any point — including a
// buffered flush, or midway through a multi-shard stream — nothing has
// been detached and the structure simply stays resident.
type Freezer interface {
	// WriteSnapshot serializes the structure's storage to w, leaving the
	// storage attached and the structure fully usable.
	WriteSnapshot(w io.Writer) error
	// Release detaches the storage a successful WriteSnapshot captured;
	// the structure must not be used again until thawed.
	Release()
	// Thaw restores storage previously written by WriteSnapshot.
	Thaw(r io.Reader) error
}

// Stats aggregates the manager's activity for plan statistics.
type Stats struct {
	// Spills counts freeze events; SpillBytes the resident bytes they
	// released; SpillBytesWritten the file bytes they wrote — less, because
	// a file holds what a chunk uses, not what it reserves, and a clean
	// entry is re-frozen without rewriting its file.
	Spills            int
	SpillBytes        int64
	SpillBytesWritten int64
	// Restores counts frozen→resident thaw events; RestoreBytes the
	// resident bytes they brought back.
	Restores     int
	RestoreBytes int64
	// RestoreBytesRead counts the spill-file bytes the restores read.
	RestoreBytesRead int64
	// Resident is the current tracked residency, Peak its high-water mark.
	Resident int64
	Peak     int64
}

// A Manager owns the spill state of one execution environment (core.Env):
// one byte budget and one spill directory shared by every plan running in
// it, each plan registering its intermediates and dropping them when it
// finishes.
type Manager struct {
	mu     sync.Mutex
	cond   *sync.Cond // broadcast whenever an entry leaves a transition state
	dir    string
	ownDir bool // dir was created by New and is removed by Close
	budget int64
	clock  uint64
	nextID int
	all    []*Handle
	stats  Stats
	// bufs are the idle I/O buffers of freezes and thaws: a transition takes
	// one (or makes one) before it drops the lock and hands it back after,
	// so the set grows to the most transitions that ever ran at once.
	bufs []*ioBuf
}

// An ioBuf buffers the framing words of one freeze or thaw; both sides pass
// payloads of their own size or more straight through to the file. One
// reader spans every structure sharing a file (a sharded index): a buffer
// per structure would read ahead into the next one's bytes.
type ioBuf struct {
	w *bufio.Writer
	r *bufio.Reader
}

func (m *Manager) takeBufLocked() *ioBuf {
	if n := len(m.bufs); n > 0 {
		b := m.bufs[n-1]
		m.bufs = m.bufs[:n-1]
		return b
	}
	return &ioBuf{w: bufio.NewWriterSize(nil, 1<<16), r: bufio.NewReaderSize(nil, 1<<16)}
}

// putBufLocked takes b back with the transition's file and any error a
// failed write latched in the writer cleared.
func (m *Manager) putBufLocked(b *ioBuf) {
	b.w.Reset(nil)
	b.r.Reset(nil)
	m.bufs = append(m.bufs, b)
}

// New creates a manager. budget caps the tracked resident bytes; <= 0
// disables eviction (the manager still tracks residency and serves explicit
// freezes). dir is where spill files go; empty creates a private temp
// directory that Close removes.
func New(budget int64, dir string) (*Manager, error) {
	ownDir := false
	if dir == "" {
		d, err := os.MkdirTemp("", "qppt-spill-*")
		if err != nil {
			return nil, fmt.Errorf("spill: %w", err)
		}
		dir, ownDir = d, true
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	m := &Manager{dir: dir, ownDir: ownDir, budget: budget}
	m.cond = sync.NewCond(&m.mu)
	return m, nil
}

// Budget reports the configured byte budget.
func (m *Manager) Budget() int64 { return m.budget }

// entry states; transitions (freezing, thawing) exclude pins and eviction
// of that entry while other entries proceed.
type entryState int

const (
	stResident entryState = iota
	stFreezing
	stThawing
	stFrozen
)

// A Handle tracks one registered structure.
type Handle struct {
	m         *Manager
	obj       Freezer
	size      func() int // resident bytes when live
	label     string
	file      string // named at the first freeze
	seq       int    // registration order; numbers the spill file
	bytes     int64  // tracked resident size
	pins      int
	state     entryState
	failed    bool // freeze failed once; never retried, stays resident
	dropped   bool // executor dropped the intermediate; file gone
	fileValid bool // spill file holds a complete snapshot
	held      int  // PinSets that have named the entry but not pinned it yet

	lastUse          uint64
	spills, restores int
}

// Register adds a structure to the managed set and reclaims space
// immediately if its residency pushes the plan over budget. size must
// report the structure's current resident bytes; label names it in spill
// file names (diagnostics only).
//
// A registered structure must not be mutated anymore: the manager keeps
// its spill file valid across thaws, so a re-eviction can release the
// storage without rewriting it. QPPT intermediates satisfy this by
// construction — an operator output is built once, then only read.
func (m *Manager) Register(label string, obj Freezer, size func() int) *Handle {
	h := &Handle{m: m, obj: obj, size: size, label: label, bytes: int64(size())}
	m.mu.Lock()
	defer m.mu.Unlock()
	h.lastUse = m.tick()
	h.seq = m.nextID
	m.nextID++
	m.all = append(m.all, h)
	m.addResident(h.bytes)
	m.balanceLocked()
	return h
}

// PinCtx makes the handle's structure resident (thawing it if frozen) and
// protects it from eviction until the matching Unpin; pins nest. A wait for
// another entry's in-flight freeze/thaw returns ctx.Err() as soon as the
// context is cancelled, instead of blocking until the transition completes. I/O already in
// flight for *this* call runs to completion either way — the spill file
// stays consistent — but a cancelled query stops queuing behind other
// entries' transitions.
func (h *Handle) PinCtx(ctx context.Context) error { return h.m.pinSet(ctx, []*Handle{h}) }

// PinSet pins everything one operator is about to read — each member like
// PinCtx — as a unit: the whole set is exempt from eviction before the
// first member thaws, and the budget is balanced once, after the last.
// Pinning the members one by one would let each thaw evict a sibling the
// next pin has to read straight back. No handle may be named twice. On
// error nothing stays pinned; on success UnpinSet (or an Unpin per member)
// releases the set. A nil ctx never cancels.
func (m *Manager) PinSet(ctx context.Context, set []*Handle) error { return m.pinSet(ctx, set) }

func (m *Manager) pinSet(ctx context.Context, set []*Handle) error {
	if ctx != nil {
		// A cancelled context must wake the cond waits in pinLocked; the
		// waiters themselves then notice ctx.Err() and bail out.
		stop := context.AfterFunc(ctx, func() {
			m.mu.Lock()
			m.cond.Broadcast()
			m.mu.Unlock()
		})
		defer stop()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, h := range set {
		h.held++
	}
	var err error
	pinned := 0
	for _, h := range set {
		if err = h.pinLocked(ctx); err != nil {
			break
		}
		pinned++
	}
	for _, h := range set {
		h.held--
	}
	if err != nil {
		for _, h := range set[:pinned] {
			h.pins--
		}
	}
	// The thaws may have pushed residency over budget; evict colder entries.
	m.balanceLocked()
	return err
}

// UnpinSet releases the pins of a PinSet without balancing the budget: the
// operator that held them registers its output next, and that one balance
// sees the inputs evictable and the output resident together.
func (m *Manager) UnpinSet(set []*Handle) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, h := range set {
		h.pins--
	}
}

// pinLocked waits out an in-flight freeze or thaw of the entry, thaws it if
// it is frozen, and takes one pin.
func (h *Handle) pinLocked(ctx context.Context) error {
	m := h.m
	h.lastUse = m.tick()
	for h.state == stFreezing || h.state == stThawing {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		m.cond.Wait()
	}
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	if h.dropped {
		return fmt.Errorf("spill: pin %s: intermediate was dropped", h.label)
	}
	if h.state == stFrozen {
		if err := m.thawLocked(h); err != nil {
			return err
		}
	}
	h.pins++
	return nil
}

// Unpin releases one pin. The structure becomes evictable again once all
// pins are released.
func (h *Handle) Unpin() {
	m := h.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if h.pins > 0 {
		h.pins--
	}
	m.balanceLocked()
}

// Drop removes the entry from the managed set: its spill file is deleted
// and the handle forgotten by the manager (a session-scoped manager
// outlives many plans; retaining every dead plan's handles would grow
// without bound). The executor calls it when the last consumer of an
// intermediate is done, *before* recycling the structure's storage: Drop
// waits out any in-flight freeze/thaw. The handle's counters remain
// readable.
func (h *Handle) Drop() {
	m := h.m
	m.mu.Lock()
	defer m.mu.Unlock()
	for h.state == stFreezing || h.state == stThawing {
		m.cond.Wait()
	}
	if h.dropped {
		return
	}
	if h.state == stResident {
		m.addResident(-h.bytes)
	}
	h.dropped = true
	h.state = stFrozen // not resident; never thawable again (dropped)
	if h.fileValid {
		os.Remove(h.file)
		h.fileValid = false
	}
	m.forgetLocked(h)
}

// forgetLocked removes a handle from the managed slice.
func (m *Manager) forgetLocked(h *Handle) {
	for i, other := range m.all {
		if other == h {
			m.all = append(m.all[:i], m.all[i+1:]...)
			return
		}
	}
}

// Counts reports how often this handle's structure was spilled and
// restored, for per-operator statistics.
func (h *Handle) Counts() (spills, restores int) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	return h.spills, h.restores
}

// Frozen reports whether the structure is currently on disk.
func (h *Handle) Frozen() bool {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	return h.state == stFrozen || h.state == stFreezing
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Close deletes all spill state. Frozen entries become unusable; callers
// must pin (thaw) anything they still need — typically the plan's result
// index — before closing.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Snapshot the managed set: waiting out a transition releases the
	// lock, and a still-unwinding plan may Drop/Detach handles meanwhile —
	// which mutates m.all in place and would corrupt a live range over it.
	all := append([]*Handle(nil), m.all...)
	for _, h := range all {
		for h.state == stFreezing || h.state == stThawing {
			m.cond.Wait()
		}
	}
	var firstErr error
	if m.ownDir {
		firstErr = os.RemoveAll(m.dir)
	} else {
		for _, h := range all {
			if h.fileValid {
				if err := os.Remove(h.file); err != nil && firstErr == nil {
					firstErr = err
				}
				h.fileValid = false
			}
		}
	}
	m.all = nil
	return firstErr
}

// tick advances the LRU clock.
func (m *Manager) tick() uint64 {
	m.clock++
	return m.clock
}

func (m *Manager) addResident(delta int64) {
	m.stats.Resident += delta
	if m.stats.Resident > m.stats.Peak {
		m.stats.Peak = m.stats.Resident
	}
}

// balanceLocked freezes least-recently-used unpinned entries until the
// tracked residency fits the budget. Best-effort: with everything pinned
// (or all freezes failing) the plan simply runs over budget. The manager
// lock is dropped around each victim's file I/O; concurrent balancers
// skip entries already mid-transition.
func (m *Manager) balanceLocked() {
	if m.budget <= 0 {
		return
	}
	for m.stats.Resident > m.budget {
		var victim *Handle
		for _, h := range m.all {
			if h.state != stResident || h.failed || h.dropped || h.pins > 0 || h.held > 0 {
				continue
			}
			if victim == nil || h.lastUse < victim.lastUse {
				victim = h
			}
		}
		if victim == nil {
			return
		}
		m.freezeLocked(victim)
	}
}

// freezeLocked writes one entry to its spill file (unless the file is
// still valid from an earlier freeze) and, only once the file is flushed
// and closed successfully, drops the entry's storage. On any write error
// (e.g. disk full) the structure keeps its storage and stays fully usable
// — a failed freeze must never lose index data. The manager lock is
// released around the file I/O; the entry's freezing state keeps pins and
// concurrent balancers away from it meanwhile.
func (m *Manager) freezeLocked(h *Handle) {
	h.bytes = int64(h.size()) // refresh: the index grew after registration
	h.state = stFreezing
	var (
		written int64
		err     error
	)
	if !h.fileValid {
		if h.file == "" {
			h.file = filepath.Join(m.dir, fmt.Sprintf("%03d-%s.spill", h.seq, sanitize(h.label)))
		}
		b := m.takeBufLocked()
		m.mu.Unlock()
		written, err = writeSnapshotFile(h.file, h.obj, b.w)
		m.mu.Lock()
		m.putBufLocked(b)
	}
	if err != nil {
		h.failed = true // e.g. disk full: keep resident, stop retrying
		h.state = stResident
		m.cond.Broadcast()
		return
	}
	h.fileValid = true
	h.obj.Release()
	h.state = stFrozen
	h.spills++
	m.stats.Spills++
	m.stats.SpillBytes += h.bytes
	m.stats.SpillBytesWritten += written
	m.addResident(-h.bytes)
	m.cond.Broadcast()
}

// writeSnapshotFile writes one sequential snapshot of obj to path through
// bw and reports the file's size, removing the file again on any error.
func writeSnapshotFile(path string, obj Freezer, bw *bufio.Writer) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw.Reset(f)
	if err = obj.WriteSnapshot(bw); err == nil {
		err = bw.Flush()
	}
	size, _ := f.Seek(0, io.SeekCurrent) // statistics only
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return size, err
}

// thawLocked restores one frozen entry from its spill file with the manager
// lock released around the I/O. The spill file stays on disk and valid, so
// a later re-eviction of the (read-only) structure is free.
func (m *Manager) thawLocked(h *Handle) error {
	h.state = stThawing
	b := m.takeBufLocked()
	m.mu.Unlock()

	var bytesRead int64
	f, err := os.Open(h.file)
	if err == nil {
		b.r.Reset(f)
		if err = h.obj.Thaw(b.r); err == nil {
			if fi, serr := f.Stat(); serr == nil {
				bytesRead = fi.Size()
			}
		}
		f.Close()
	}

	m.mu.Lock()
	m.putBufLocked(b)
	if err != nil {
		h.state = stFrozen
		m.cond.Broadcast()
		return fmt.Errorf("spill: restore %s: %w", h.label, err)
	}
	h.state = stResident
	h.bytes = int64(h.size())
	h.restores++
	m.stats.Restores++
	m.stats.RestoreBytes += h.bytes
	m.stats.RestoreBytesRead += bytesRead
	m.addResident(h.bytes)
	m.cond.Broadcast()
	return nil
}

// sanitize keeps spill file names to a portable character set.
func sanitize(s string) string {
	s = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, s)
	return s[:min(len(s), 48)]
}
