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
// Freeze/Thaw I/O runs *outside* the manager lock: each entry carries its
// own freezing/thawing state, and pins on an entry mid-transition wait on
// a condition variable while other entries keep pinning, unpinning, and
// spilling concurrently. Each entry's I/O itself stays one sequential
// pass — the pattern the chunk layout is designed for.
//
// Two restore paths exist, chosen by the pin:
//
//   - the plain copying thaw (Handle.Pin);
//   - a partial thaw (Handle.PinRange): structures that implement
//     RangeThawer restore only the leaf chunks a consumer's key range
//     touches, using the per-chunk directory their freeze format records.
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

// A RangeThawer can restore just enough state to serve queries inside a
// key range, reading only the chunks that range touches. Calls are
// additive; a call spanning the full key space completes the restore
// (full == true).
type RangeThawer interface {
	Freezer
	ThawRange(f io.ReadSeeker, lo, hi uint64) (bytesRead int64, full bool, err error)
}

// Stats aggregates the manager's activity for plan statistics.
type Stats struct {
	// Spills counts freeze events; SpillBytes the bytes they released.
	Spills     int
	SpillBytes int64
	// Restores counts frozen→resident thaw events; RestoreBytes the
	// resident bytes they brought back.
	Restores     int
	RestoreBytes int64
	// RestoreBytesRead counts the spill-file bytes actually read during
	// restores: the whole file on a plain thaw, only the interior and the
	// selected chunks on a partial thaw.
	RestoreBytesRead int64
	// PartialRestores counts range-restricted thaw passes, including
	// top-ups of an already partially resident entry.
	PartialRestores int
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
	file      string
	seq       int   // registration order; pin-ordering key for callers
	bytes     int64 // tracked resident size
	pins      int
	state     entryState
	partial   bool // resident, but only partially thawed (RangeThawer)
	failed    bool // freeze failed once; never retried, stays resident
	dropped   bool // executor dropped the intermediate; file gone
	fileValid bool // spill file holds a complete snapshot
	// cov are the key intervals a partial entry is guaranteed to serve
	// (each interval was one ThawRange argument; overlapping/adjacent
	// intervals merged). Empty when fully resident or frozen.
	cov []keyIval

	lastUse          uint64
	spills, restores int
}

// keyIval is one inclusive thawed key interval.
type keyIval struct{ lo, hi uint64 }

// Seq reports the handle's registration ordinal. Callers that pin several
// handles while other pins are outstanding should acquire them in
// ascending Seq order: an uncovered range top-up waits for the entry's
// pins to drain, and ordered acquisition keeps those waits cycle-free.
func (h *Handle) Seq() int { return h.seq }

// covered reports whether [lo, hi] lies inside one thawed interval.
func (h *Handle) covered(lo, hi uint64) bool {
	for _, iv := range h.cov {
		if iv.lo <= lo && hi <= iv.hi {
			return true
		}
	}
	return false
}

// touches reports whether two inclusive intervals overlap or are
// adjacent. Merging such intervals is exact for coverage: chunks were
// restored for their union, which then is one gapless interval.
func touches(a, b keyIval) bool {
	if a.lo > b.hi { // b entirely below a (b.hi < ^0, so +1 is safe)
		return b.hi+1 == a.lo
	}
	if b.lo > a.hi {
		return a.hi+1 == b.lo
	}
	return true
}

// addCov records [lo, hi] as thawed, merging overlapping or adjacent
// intervals.
func (h *Handle) addCov(lo, hi uint64) {
	merged := keyIval{lo, hi}
	out := h.cov[:0]
	for _, iv := range h.cov {
		if touches(iv, merged) {
			merged.lo = min(merged.lo, iv.lo)
			merged.hi = max(merged.hi, iv.hi)
			continue
		}
		out = append(out, iv)
	}
	h.cov = append(out, merged)
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
	h.file = filepath.Join(m.dir, fmt.Sprintf("%03d-%s.spill", m.nextID, sanitize(label)))
	m.nextID++
	m.all = append(m.all, h)
	m.addResident(h.bytes)
	m.balanceLocked()
	return h
}

// Pin makes the handle's structure fully resident (thawing it if frozen
// or partially thawed) and protects it from eviction until the matching
// Unpin. Pins nest.
func (h *Handle) Pin() error { return h.pin(nil, 0, ^uint64(0), false) }

// PinCtx is Pin with cancellation: a wait for another entry's in-flight
// freeze/thaw (or for pins to drain before a widening top-up) returns
// ctx.Err() as soon as the context is cancelled, instead of blocking until
// the transition completes. I/O already in flight for *this* call runs to
// completion either way — the spill file stays consistent — but a
// cancelled query stops queuing behind other entries' transitions.
func (h *Handle) PinCtx(ctx context.Context) error { return h.pin(ctx, 0, ^uint64(0), false) }

// PinRangeCtx is PinRange with cancellation, like PinCtx.
func (h *Handle) PinRangeCtx(ctx context.Context, lo, hi uint64) error {
	return h.pin(ctx, lo, hi, true)
}

// PinRange is Pin for a consumer that will only query keys in [lo, hi]:
// if the structure is frozen and supports range thawing, only the chunks
// that range touches are restored. The pin protects the entry like Pin.
//
// Later PinRange/Pin calls *from other consumers* widen the resident
// portion in place — a widening top-up waits for the current pins to
// drain first. For that reason a caller must NOT try to widen an entry
// while still holding its own pin on it (the wait would be for itself):
// release the pin before re-pinning with a wider range, or take a full
// Pin up front. Re-pinning within the already covered range is always
// fine. Callers pinning several handles should acquire them in Seq order
// (see Handle.Seq).
func (h *Handle) PinRange(lo, hi uint64) error { return h.pin(nil, lo, hi, true) }

func (h *Handle) pin(ctx context.Context, lo, hi uint64, ranged bool) error {
	m := h.m
	if ctx != nil {
		// A cancelled context must wake the cond waits below; the waiters
		// themselves then notice ctx.Err() and bail out.
		stop := context.AfterFunc(ctx, func() {
			m.mu.Lock()
			m.cond.Broadcast()
			m.mu.Unlock()
		})
		defer stop()
	}
	ctxErr := func() error {
		if ctx == nil {
			return nil
		}
		return ctx.Err()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h.lastUse = m.tick()
	for {
		for h.state == stFreezing || h.state == stThawing {
			if err := ctxErr(); err != nil {
				return err
			}
			m.cond.Wait()
		}
		if err := ctxErr(); err != nil {
			return err
		}
		if h.dropped {
			return fmt.Errorf("spill: pin %s: intermediate was dropped", h.label)
		}
		if h.state == stFrozen {
			if err := m.thawLocked(h, lo, hi, ranged); err != nil {
				return err
			}
			break
		}
		if h.partial && !(ranged && h.covered(lo, hi)) {
			// The entry needs a wider restore. Topping up writes leaf
			// chunks in place, so it must not run while readers hold
			// pins: wait for them to drain. Callers pinning several
			// handles acquire them in Seq order, keeping this cycle-free.
			if h.pins > 0 {
				m.cond.Wait()
				continue
			}
			if err := m.thawLocked(h, lo, hi, ranged); err != nil {
				return err
			}
			break
		}
		break // fully resident, or partial with the range already covered
	}
	h.pins++
	// The thaw may have pushed residency over budget; evict colder entries.
	m.balanceLocked()
	return nil
}

// Unpin releases one Pin. The structure becomes evictable again once all
// pins are released.
func (h *Handle) Unpin() {
	m := h.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if h.pins > 0 {
		h.pins--
	}
	if h.pins == 0 {
		m.cond.Broadcast() // a range top-up may be waiting for the drain
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
	h.partial = false
	h.cov = nil
	if h.fileValid {
		os.Remove(h.file)
		h.fileValid = false
	}
	m.forgetLocked(h)
}

// Detach permanently removes the entry from the managed set while leaving
// its structure fully resident and self-contained: the structure is thawed
// if frozen or partial and the spill file deleted. A plan running
// against a session-scoped manager detaches its *result* index this way —
// the result must outlive the plan, but the manager must not keep
// budgeting (or re-evicting) an index it can never see consumed again.
func (h *Handle) Detach() error {
	//qpptvet:ignore pinbalance balanced by the direct pins-- below, under m.mu where Unpin would deadlock
	if err := h.Pin(); err != nil { // fully resident + transitions drained
		return err
	}
	m := h.m
	m.mu.Lock()
	defer m.mu.Unlock()
	h.pins--
	if h.dropped {
		return nil
	}
	if h.fileValid {
		os.Remove(h.file)
		h.fileValid = false
	}
	m.addResident(-h.bytes)
	h.dropped = true // never evictable or thawable again; storage is the caller's
	h.state = stResident
	m.forgetLocked(h)
	m.cond.Broadcast()
	return nil
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

// Partial reports whether the structure is resident only for part of its
// key space (see PinRange).
func (h *Handle) Partial() bool {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	return h.partial
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Close deletes all spill state. Frozen entries become unusable; callers
// must Pin (thaw) anything they still need — typically the plan's result
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
			if h.state != stResident || h.failed || h.dropped || h.pins > 0 {
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
	var err error
	if !h.fileValid {
		m.mu.Unlock()
		err = writeSnapshotFile(h.file, h.obj)
		m.mu.Lock()
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
	h.partial = false
	h.cov = nil
	h.spills++
	m.stats.Spills++
	m.stats.SpillBytes += h.bytes
	m.addResident(-h.bytes)
	m.cond.Broadcast()
}

// writeSnapshotFile writes one sequential snapshot of obj to path,
// removing the file again on any error.
func writeSnapshotFile(path string, obj Freezer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := obj.WriteSnapshot(bw); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}

// thawLocked restores one entry from its spill file — fully, or partially
// for a range-restricted consumer — with the manager lock released around
// the I/O. The spill file stays on disk and valid, so a later re-eviction
// of the (read-only) structure is free.
func (m *Manager) thawLocked(h *Handle, lo, hi uint64, ranged bool) error {
	fromFrozen := h.state == stFrozen
	wasBytes := h.bytes
	if !fromFrozen {
		// Partially resident: widening top-up via the range thaw path.
		ranged = true
	}
	h.state = stThawing
	m.mu.Unlock()

	var (
		bytesRead int64
		full      = true
	)
	f, err := os.Open(h.file)
	if err == nil {
		if rt, ok := h.obj.(RangeThawer); ok && ranged {
			bytesRead, full, err = rt.ThawRange(f, lo, hi)
		} else if err = h.obj.Thaw(bufio.NewReaderSize(f, 1<<20)); err == nil {
			if fi, serr := f.Stat(); serr == nil {
				bytesRead = fi.Size()
			}
		}
		f.Close()
	}

	m.mu.Lock()
	if err != nil {
		if fromFrozen {
			h.state = stFrozen
		} else {
			h.state = stResident // top-up failed; previous portion intact
		}
		m.cond.Broadcast()
		return fmt.Errorf("spill: restore %s: %w", h.label, err)
	}
	h.state = stResident
	h.partial = !full
	if full {
		h.cov = nil
	} else {
		h.addCov(lo, hi)
	}
	h.bytes = int64(h.size())
	m.stats.RestoreBytesRead += bytesRead
	if !full || !fromFrozen {
		m.stats.PartialRestores++
	}
	if fromFrozen {
		h.restores++
		m.stats.Restores++
		m.stats.RestoreBytes += h.bytes
		m.addResident(h.bytes)
	} else {
		m.addResident(h.bytes - wasBytes)
	}
	m.cond.Broadcast()
	return nil
}

// sanitize keeps spill file names to a portable character set.
func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
		if len(out) >= 48 {
			break
		}
	}
	return string(out)
}
