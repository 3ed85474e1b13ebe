package spill

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
	if err := ha.Pin(); err != nil {
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
				if err := h.Pin(); err != nil {
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
	m, err := New(1, "")
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
	if err := h.Pin(); err != nil { // resident: pin is a no-op thaw-wise
		t.Fatal(err)
	}
	fi.verify(t, 32, 500)
	h.Unpin()
}

// buildTree returns a prefix tree of n sequential keys; *prefixtree.Tree
// implements Freezer, RangeThawer and MappedThawer directly, so the
// manager-level restore paths can be tested against the real structure.
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

// PinRange on a frozen entry must restore only part of the structure
// (partial counters move, plain restore counters behave like a thaw),
// serve in-range queries, and a later full Pin must complete it in place.
func TestManagerPinRangePartialThaw(t *testing.T) {
	m, err := New(1, "") // everything unpinned spills
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tr := buildTree(40000)
	h := m.Register("sel", tr, tr.Bytes)
	if !h.Frozen() {
		t.Fatal("entry not frozen under 1-byte budget")
	}
	if err := h.PinRange(1000, 2000); err != nil {
		t.Fatal(err)
	}
	if !h.Partial() || !tr.Partial() {
		t.Fatal("narrow PinRange did not leave the entry partial")
	}
	checkTreeRange(t, tr, 1000, 2000)
	st := m.Stats()
	if st.PartialRestores == 0 || st.Restores != 1 {
		t.Fatalf("stats = %+v", st)
	}
	partialRead := st.RestoreBytesRead
	if partialRead == 0 {
		t.Fatal("no restore bytes recorded")
	}

	// A covered range re-pins without extra I/O, even while pinned.
	if err := h.PinRange(1200, 1300); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().RestoreBytesRead; got != partialRead {
		t.Fatalf("covered PinRange read %d more bytes", got-partialRead)
	}
	h.Unpin()
	h.Unpin()

	// A full Pin tops the entry up in place.
	if err := h.Pin(); err != nil {
		t.Fatal(err)
	}
	if h.Partial() || tr.Partial() {
		t.Fatal("full Pin left the entry partial")
	}
	checkTreeRange(t, tr, 0, 39999)
	if got := m.Stats().RestoreBytesRead; got <= partialRead {
		t.Fatal("top-up read no further bytes")
	}
	h.Unpin()
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
		name   string
		file   []byte
		want   error
		ranged bool
	}{
		{"truncated", intact[:len(intact)/2], io.ErrUnexpectedEOF, false},
		{"truncated, range pin", intact[:len(intact)/2], io.ErrUnexpectedEOF, true},
		{"bad magic", badMagic, arena.ErrCorruptSnapshot, false},
		{"bad magic, range pin", badMagic, arena.ErrCorruptSnapshot, true},
	} {
		if err := os.WriteFile(h.file, tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		var err error
		if tc.ranged {
			err = h.PinRange(10, 20)
		} else {
			err = h.Pin()
		}
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
	if err := h.Pin(); err != nil {
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
	//qpptvet:ignore pinbalance the test deliberately closes the manager with this pin held
	if err := h.Pin(); err != nil {
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
	if err := h.Pin(); err == nil {
		t.Fatal("pin on a dropped entry succeeded")
	}
	if s, _ := h.Counts(); s != 1 {
		t.Fatalf("spill count lost after drop: %d", s)
	}
}

// Detach must pull an entry out of the managed set with its structure
// fully resident and its spill state gone — the shared-manager path for a
// plan's result index.
func TestHandleDetach(t *testing.T) {
	m, err := New(1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	fi := newFakeIndex(64, 7)
	h := m.Register("result", fi, fi.Bytes)
	if !h.Frozen() {
		t.Fatal("1-byte budget did not freeze the entry")
	}
	file := h.file
	if err := h.Detach(); err != nil {
		t.Fatal(err)
	}
	fi.verify(t, 64, 7) // thawed and usable without any pin
	if _, err := os.Stat(file); !os.IsNotExist(err) {
		t.Fatalf("spill file survived detach: %v", err)
	}
	if got := m.Stats().Resident; got != 0 {
		t.Fatalf("detached entry still tracked: resident=%d", got)
	}
	// The manager no longer owns the entry: registering more load must
	// not re-evict it (nothing to evict — it left the set), and Close
	// must not touch its storage.
	other := newFakeIndex(64, 9)
	m.Register("other", other, other.Bytes)
	fi.verify(t, 64, 7)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	fi.verify(t, 64, 7)
}

// Dropped and detached handles must leave the managed slice — a
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
		h := m.Register(fmt.Sprintf("e%d", i), fi, fi.Bytes)
		if i%2 == 0 {
			h.Drop()
		} else if err := h.Detach(); err != nil {
			t.Fatal(err)
		}
	}
	m.mu.Lock()
	n := len(m.all)
	m.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d dead handles retained by the manager", n)
	}
}
