package spill

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"qppt/internal/arena"
	"qppt/internal/prefixtree"
)

// fakeIndex is a minimal Freezer: a Slots arena plus a payload count, so
// the manager's byte accounting and freeze/thaw plumbing can be tested
// without dragging in a whole tree.
type fakeIndex struct {
	slots arena.Slots
	size  uint64 // bytes of the last snapshot
}

func newFakeIndex(blocks int, seed uint32) *fakeIndex {
	fi := &fakeIndex{slots: arena.MakeSlots(16)}
	for i := 0; i < blocks; i++ {
		blk := fi.slots.Block(fi.slots.Alloc())
		for j := range blk {
			blk[j] = seed + uint32(i*len(blk)+j)
		}
	}
	return fi
}

func (f *fakeIndex) WriteSnapshot(out io.Writer) error {
	f.size = f.slots.SnapshotLen()
	w := arena.Writer{W: out}
	f.slots.WriteChunks(&w)
	return w.Err
}
func (f *fakeIndex) Release() { f.slots.Detach() }
func (f *fakeIndex) Thaw(r io.Reader) error {
	return f.slots.ReadChunks(&arena.Reader{R: r}, f.size)
}
func (f *fakeIndex) Bytes() int { return f.slots.Bytes() }

func (f *fakeIndex) verify(t *testing.T, blocks int, seed uint32) {
	t.Helper()
	for i := 0; i < blocks; i++ {
		blk := f.slots.Block(uint32(i))
		for j, v := range blk {
			if v != seed+uint32(i*len(blk)+j) {
				t.Fatalf("block %d slot %d = %d after restore", i, j, v)
			}
		}
	}
}

func TestManagerEvictsLRUAndRestores(t *testing.T) {
	const blocks = 64 // 64 blocks × 16 slots × 4 B = 4 KiB < one chunk ⇒ Bytes = 256 KiB
	a := newFakeIndex(blocks, 1000)
	oneIdx := int64(a.Bytes())
	// Budget fits one index but not two: registering the second must
	// freeze the first (the least recently used).
	m, err := New(oneIdx+oneIdx/2, "")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ha := m.Register("a", a, a.Bytes)
	if ha.Frozen() {
		t.Fatal("sole index frozen while under budget")
	}
	b := newFakeIndex(blocks, 2000)
	hb := m.Register("b", b, b.Bytes)
	if !ha.Frozen() {
		t.Fatal("LRU entry not frozen when the second index broke the budget")
	}
	if hb.Frozen() {
		t.Fatal("most recent entry frozen instead of the LRU one")
	}
	if a.Bytes() != 0 {
		t.Fatalf("frozen index still resident (%d bytes)", a.Bytes())
	}

	// Pinning the frozen entry must thaw it byte-identically and evict
	// the other one instead.
	if err := ha.PinCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	a.verify(t, blocks, 1000)
	if !hb.Frozen() {
		t.Fatal("thaw did not rebalance onto the unpinned entry")
	}
	// A pinned entry must never be evicted, however cold.
	c := newFakeIndex(blocks, 3000)
	m.Register("c", c, c.Bytes)
	if ha.Frozen() {
		t.Fatal("pinned entry was evicted")
	}
	ha.Unpin()

	st := m.Stats()
	if st.Spills < 2 || st.Restores != 1 {
		t.Fatalf("stats = %+v, want >=2 spills and 1 restore", st)
	}
	if st.SpillBytes < oneIdx || st.RestoreBytes != oneIdx {
		t.Fatalf("byte counters = %+v", st)
	}
	if s, r := ha.Counts(); s < 1 || r != 1 {
		t.Fatalf("handle a counts = %d/%d", s, r)
	}
}

func TestManagerUnlimitedBudgetNeverSpills(t *testing.T) {
	m, err := New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 4; i++ {
		fi := newFakeIndex(32, uint32(i))
		if h := m.Register(fmt.Sprint(i), fi, fi.Bytes); h.Frozen() {
			t.Fatal("spilled without a budget")
		}
	}
	if st := m.Stats(); st.Spills != 0 || st.Resident == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestManagerCloseRemovesOwnDir(t *testing.T) {
	m, err := New(1, "") // everything spills
	if err != nil {
		t.Fatal(err)
	}
	fi := newFakeIndex(32, 9)
	h := m.Register("x", fi, fi.Bytes)
	if !h.Frozen() {
		t.Fatal("not frozen under 1-byte budget")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(m.dir); !os.IsNotExist(err) {
		t.Fatalf("spill dir survived Close: %v", err)
	}
}

func TestManagerExplicitDirKeepsDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spills")
	m, err := New(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	fi := newFakeIndex(32, 9)
	m.Register("x", fi, fi.Bytes)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("caller-owned dir removed: %v", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("spill files survived Close: %d entries", len(ents))
	}
}

// Concurrent pin/unpin traffic from several goroutines (the shape the
// plan executor generates when branches resolve in parallel) must stay
// race-free and leave every index restorable.
func TestManagerConcurrentPinUnpin(t *testing.T) {
	m, err := New(1, "") // maximal pressure: everything evictable spills
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const n = 8
	idxs := make([]*fakeIndex, n)
	handles := make([]*Handle, n)
	for i := range idxs {
		idxs[i] = newFakeIndex(16, uint32(100*i))
		handles[i] = m.Register(fmt.Sprint(i), idxs[i], idxs[i].Bytes)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 40; r++ {
				h := handles[(w*13+r)%n]
				if err := h.PinCtx(context.Background()); err != nil {
					t.Errorf("pin: %v", err)
					return
				}
				idxs[(w*13+r)%n].verify(t, 16, uint32(100*((w*13+r)%n)))
				h.Unpin()
			}
		}(w)
	}
	wg.Wait()
	if st := m.Stats(); st.Spills == 0 || st.Restores == 0 {
		t.Fatalf("no spill traffic under pressure: %+v", st)
	}
}

// failingIndex errors partway through its snapshot — the shape of a
// disk-full or mid-shard failure.
type failingIndex struct {
	fakeIndex
	calls int
}

func (f *failingIndex) WriteSnapshot(w io.Writer) error {
	f.calls++
	if err := f.fakeIndex.WriteSnapshot(w); err != nil {
		return err
	}
	return fmt.Errorf("synthetic write failure")
}

// A failed freeze must leave the index resident and fully usable — the
// manager may only detach storage after the snapshot is safely on disk —
// and must not be retried in a hot loop.
func TestFailedFreezeKeepsIndexResident(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spills")
	m, err := New(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	fi := &failingIndex{fakeIndex: *newFakeIndex(32, 500)}
	h := m.Register("flaky", fi, fi.Bytes)
	if h.Frozen() {
		t.Fatal("failed freeze marked the entry frozen")
	}
	if fi.Bytes() == 0 {
		t.Fatal("failed freeze detached the index storage")
	}
	fi.verify(t, 32, 500) // data intact, index still queryable
	if fi.calls != 1 {
		t.Fatalf("freeze retried %d times after failing", fi.calls)
	}
	// Further pressure must not retry the failed entry.
	other := newFakeIndex(32, 600)
	m.Register("ok", other, other.Bytes)
	if fi.calls != 1 {
		t.Fatalf("failed entry retried under later pressure (%d calls)", fi.calls)
	}
	if err := h.PinCtx(context.Background()); err != nil { // resident: pin is a no-op thaw-wise
		t.Fatal(err)
	}
	fi.verify(t, 32, 500)
	h.Unpin()

	// The manager reuses its I/O buffers, and the failures above left one
	// holding the bytes of a snapshot nobody kept. Neither that nor a freeze
	// that cannot even create its file (the spill directory is gone) may
	// reach the next freeze: once the directory is back, a new entry must
	// freeze and come back bit-identical.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	lost := newFakeIndex(32, 700)
	if hl := m.Register("nodir", lost, lost.Bytes); hl.Frozen() || lost.Bytes() == 0 {
		t.Fatal("freeze without a spill directory did not keep the index resident")
	}
	lost.verify(t, 32, 700)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	next := newFakeIndex(32, 800)
	hn := m.Register("next", next, next.Bytes)
	if !hn.Frozen() || next.Bytes() != 0 {
		t.Fatal("entry registered after the failures was not frozen")
	}
	if st, err := os.Stat(hn.file); err != nil {
		t.Fatal(err)
	} else if st.Size() != int64(next.size) {
		t.Fatalf("spill file holds %d bytes, snapshot is %d: a reused buffer leaked into it", st.Size(), next.size)
	}
	if err := hn.PinCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	next.verify(t, 32, 800)
	hn.Unpin()
}

// PinSet must treat an operator's inputs as a unit: with a budget that holds
// one index, pinning two frozen ones thaws each exactly once — no member is
// evicted to make room for a sibling — and runs over budget rather than
// thrash; UnpinSet then leaves the eviction to the next balance. A failing
// member leaves nothing pinned.
func TestPinSetThawsEachMemberOnce(t *testing.T) {
	const blocks = 64
	a, b, c := newFakeIndex(blocks, 1000), newFakeIndex(blocks, 2000), newFakeIndex(blocks, 3000)
	one := int64(a.Bytes())
	m, err := New(one+one/2, "")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ha := m.Register("a", a, a.Bytes)
	hb := m.Register("b", b, b.Bytes) // freezes a
	hc := m.Register("c", c, c.Bytes) // freezes b
	if !ha.Frozen() || !hb.Frozen() || hc.Frozen() {
		t.Fatal("set-up: a and b should be frozen, c resident")
	}
	set := []*Handle{ha, hb}
	if err := m.PinSet(nil, set); err != nil {
		t.Fatal(err)
	}
	a.verify(t, blocks, 1000)
	b.verify(t, blocks, 2000)
	if st := m.Stats(); st.Restores != 2 || st.Spills != 3 || !hc.Frozen() {
		t.Fatalf("pinning {a, b}: %+v, c frozen=%v; want 2 restores, c evicted by the one balance", st, hc.Frozen())
	}
	m.UnpinSet(set)
	if st := m.Stats(); st.Spills != 3 || ha.Frozen() || hb.Frozen() {
		t.Fatalf("UnpinSet balanced: %+v", st)
	}
	hb.Drop()
	if err := m.PinSet(nil, []*Handle{ha, hb}); err == nil {
		t.Fatal("PinSet over a dropped member succeeded")
	}
	hd := m.Register("d", newFakeIndex(blocks, 4000), func() int { return int(one) })
	if !ha.Frozen() || hd.Frozen() {
		t.Fatal("a failed PinSet left its first member pinned")
	}
}

// One freeze→thaw cycle allocates what names the file and frames the
// stream, not the buffers the bytes go through: those are the manager's,
// and the chunks come back from the recycler. (Each cycle used to make a
// 1 MiB writer and a 1 MiB or per-section 256 KiB reader.)
func TestSpillCycleAllocBudget(t *testing.T) {
	// An entry that is never frozen costs its Handle: no file name is built
	// for a file that is never written.
	idle, err := New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	fi := newFakeIndex(4, 1)
	size := fi.Bytes
	if n := testing.AllocsPerRun(100, func() { idle.Register("σ→never frozen", fi, size).Drop() }); n > 1 {
		t.Errorf("Register → Drop of a never-frozen entry makes %v allocations, want the Handle alone", n)
	}
	m, err := New(1, "") // everything unpinned spills
	if err != nil {
		t.Fatal(err)
	}
	rec := arena.NewRecycler()
	row := make([]uint64, 1)
	cycle := func() {
		tr := prefixtree.MustNew(prefixtree.Config{PrefixLen: 4, KeyBits: 32, PayloadWidth: 1, Recycler: rec})
		for i := 0; i < 2000; i++ {
			row[0] = uint64(i) * 3
			tr.Insert(uint64(i), row)
		}
		h := m.Register("cycle", tr, tr.Bytes)
		if !h.Frozen() {
			t.Fatal("not frozen under a 1-byte budget")
		}
		if err := h.PinCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		checkTreeRange(t, tr, 100, 200)
		h.Unpin()
		h.Drop()
		tr.Release()
	}
	cycle() // warm-up: the manager makes its buffers, the pool its chunks
	const cycles = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&m1)
	// About 2 KiB in practice: the tree header, the file name, two
	// os.Files, the chunk directory.
	const budget = 16 << 10
	perCycle := (m1.TotalAlloc - m0.TotalAlloc) / cycles
	t.Logf("%d B per freeze→thaw cycle", perCycle)
	if perCycle > budget {
		t.Errorf("one freeze→thaw cycle allocates %d B, budget %d", perCycle, budget)
	}
	if st := m.Stats(); st.Spills < cycles || st.Restores < cycles {
		t.Fatalf("cycles did not spill and restore: %+v", st)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// buildTree returns a prefix tree of n sequential keys; *prefixtree.Tree
// implements Freezer directly, so the manager-level restore path can be
// tested against the real structure.
func buildTree(n int) *prefixtree.Tree {
	tr := prefixtree.MustNew(prefixtree.Config{PrefixLen: 4, KeyBits: 32, PayloadWidth: 1})
	for i := 0; i < n; i++ {
		tr.Insert(uint64(i), []uint64{uint64(i) * 3})
	}
	return tr
}

func checkTreeRange(t *testing.T, tr *prefixtree.Tree, lo, hi uint64) {
	t.Helper()
	got := 0
	tr.Range(lo, hi, func(lf *prefixtree.Leaf) bool {
		if lf.Vals.First()[0] != lf.Key*3 {
			t.Fatalf("key %d: wrong payload", lf.Key)
		}
		got++
		return true
	})
	if got != int(hi-lo+1) {
		t.Fatalf("range [%d,%d] visited %d keys", lo, hi, got)
	}
}

// A restore from a damaged spill file must fail with the codec's typed
// error through the manager's wrap, leave the entry frozen and holding
// nothing (no bytes escape the budget), and succeed once the file is
// intact again. The restored entry stays re-evictable without rewriting,
// and survives Close with a pin held.
func TestManagerRestoreFailureAndRecovery(t *testing.T) {
	m, err := New(1, "")
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	tr := buildTree(n)
	h := m.Register("idx", tr, tr.Bytes)
	if !h.Frozen() {
		t.Fatal("not frozen")
	}
	intact, err := os.ReadFile(h.file)
	if err != nil {
		t.Fatal(err)
	}
	badMagic := append([]byte{0xff}, intact[1:]...)
	for _, tc := range []struct {
		name string
		file []byte
		want error
	}{
		{"truncated", intact[:len(intact)/2], io.ErrUnexpectedEOF},
		{"bad magic", badMagic, arena.ErrCorruptSnapshot},
	} {
		if err := os.WriteFile(h.file, tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		err := h.PinCtx(context.Background())
		if err == nil {
			h.Unpin()
		}
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: pin error %v, want %v", tc.name, err, tc.want)
		}
		if !h.Frozen() || !tr.Frozen() || tr.Bytes() != 0 {
			t.Fatalf("%s: failed restore left frozen=%v/%v with %d bytes", tc.name, h.Frozen(), tr.Frozen(), tr.Bytes())
		}
		if st := m.Stats(); st.Resident != 0 || st.Restores != 0 {
			t.Fatalf("%s: failed restore booked %+v", tc.name, st)
		}
	}
	if err := os.WriteFile(h.file, intact, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := h.PinCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkTreeRange(t, tr, 0, n-1)

	// Unpin → refreeze (no rewrite needed: the file is still valid) →
	// thaw again.
	if err := os.Chmod(h.file, 0o444); err != nil {
		t.Fatal(err)
	}
	h.Unpin()
	if !h.Frozen() {
		t.Fatal("unpinned entry not re-frozen under pressure")
	}
	if err := h.PinCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Close with the pin held: the spill file goes away, the data must not.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	checkTreeRange(t, tr, 0, n-1)
}

// Drop must delete the spill file and make further pins fail, while the
// handle's counters stay readable.
func TestHandleDrop(t *testing.T) {
	m, err := New(1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tr := buildTree(5000)
	h := m.Register("dead", tr, tr.Bytes)
	if !h.Frozen() {
		t.Fatal("not frozen")
	}
	file := h.file
	if _, err := os.Stat(file); err != nil {
		t.Fatalf("spill file missing before drop: %v", err)
	}
	h.Drop()
	if _, err := os.Stat(file); !os.IsNotExist(err) {
		t.Fatalf("spill file survived drop: %v", err)
	}
	if err := h.PinCtx(context.Background()); err == nil {
		t.Fatal("pin on a dropped entry succeeded")
	}
	if s, _ := h.Counts(); s != 1 {
		t.Fatalf("spill count lost after drop: %d", s)
	}
}

// Dropped handles must leave the managed slice — a
// session-lifetime manager would otherwise accumulate one dead handle per
// intermediate per query forever.
func TestDropForgetsHandle(t *testing.T) {
	m, err := New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 10; i++ {
		fi := newFakeIndex(4, uint32(i))
		m.Register(fmt.Sprintf("e%d", i), fi, fi.Bytes).Drop()
	}
	m.mu.Lock()
	n := len(m.all)
	m.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d dead handles retained by the manager", n)
	}
}
