package freeze_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"qppt/internal/arena"
	"qppt/internal/arena/arenatest"
	"qppt/internal/freeze"
)

// goldenStreams pins the SHA-256 of every fixture's freeze stream
// (prefix-tree format 3, KISS format 4). A hash that moves is a format
// change: bump the tree's magic.
var goldenStreams = map[string]string{
	"prefix/w0":   "5a5997f33f6f1a35b8fcfc0eb44b18f12d5c98d9d82fb8529f249f3bac1ba6c8",
	"prefix/w1":   "1d0acb9caa88c170b4ca6bb675a63b7a335f7eb2f143699be54c0a4743c52ad7",
	"prefix/w3":   "8d07702781d03cbd373c57794029bfce77f83706036c89a5a3c74dd2dcde199a",
	"prefix/fold": "820c332687507d926800eceeb5503e9c7a7aa3a377eabb8e6f6c3f54e14017d9",
	"kiss/w0":     "4766fec88266a0f5e30ebc912184a7a964860b49c2c4a7386b8de94577e04241",
	"kiss/w1":     "284d530b8501f1a54952afacc9a94ab3faa42213c24e27b2932dfc6af2ca37d7",
	"kiss/w3":     "db2e96cb80a1e73d8457323779583057e44a356306001bdc28b7112a8c84a82e",
}

func TestGoldenStreams(t *testing.T) {
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		t.Skip("chunks are dumped in native byte order; the hashes are little-endian")
	}
	for _, fx := range fixtures {
		var buf bytes.Buffer
		if err := freezeTo(fx.build(nil), &buf); err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != goldenStreams[fx.name] {
			t.Errorf("%s: freeze stream hashes to %s, want %s", fx.name, got, goldenStreams[fx.name])
		}
	}
}

// frozen returns the fixture's tree built against rec and frozen, its
// stream, and the content the tree must hold whenever it is resident.
func (fx fixture) frozen(t testing.TB, rec *arena.Recycler) (tree, []byte, map[uint64][][]uint64) {
	t.Helper()
	tr := fx.build(rec)
	want := content(tr)
	var buf bytes.Buffer
	if err := freezeTo(tr, &buf); err != nil {
		t.Fatalf("%s: %v", fx.name, err)
	}
	return tr, buf.Bytes(), want
}

func content(tr tree) map[uint64][][]uint64 {
	m := make(map[uint64][][]uint64, tr.Keys())
	tr.Iterate(func(lf *freeze.Leaf) bool {
		m[lf.Key] = lf.Vals.Rows()
		return true
	})
	return m
}

// layout walks a stream's framing: the offset of every interior section's
// length prefix, of the leaf count, and of the first leaf.
func (fx fixture) layout(b []byte) (sections []int, leafCount, leaves int) {
	off := 8
	for range fx.sections {
		sections = append(sections, off)
		off += 8 + int(binary.LittleEndian.Uint64(b[off:]))
	}
	nChunks := int(binary.LittleEndian.Uint64(b[off+8:]))
	return sections, off, off + 16 + 24*nChunks
}

// cuts returns the offsets to truncate a stream at: inside the magic, at
// both ends and the middle of every length prefix, section, and the leaf
// directory, and inside the first, a middle and the last leaf.
func (fx fixture) cuts(b []byte) []int {
	sections, leafCount, leaves := fx.layout(b)
	out := []int{0, 4}
	for i, off := range sections {
		end := leafCount
		if i+1 < len(sections) {
			end = sections[i+1]
		}
		out = append(out, off, off+8, (off+8+end)/2)
	}
	out = append(out, leafCount, leafCount+8, leafCount+16, (leafCount+16+leaves)/2,
		leaves, leaves+8, leaves+20, (leaves+len(b))/2+4, len(b)-4)
	slices.Sort(out)
	return slices.Compact(out)
}

// checkRolledBack asserts the one failure rule of a fresh thaw: the tree
// is frozen again, holds nothing, and every chunk it drew from rec is back
// (a stream that lies about its counts may have it draw, and hand back, a
// chunk more than the pool held).
func checkRolledBack(t testing.TB, what string, tr tree, rec *arena.Recycler, pooled int64) {
	t.Helper()
	if !tr.Frozen() || tr.Bytes() != 0 {
		t.Fatalf("%s: failed thaw left Frozen() = %v with %d bytes", what, tr.Frozen(), tr.Bytes())
	}
	if got := rec.Stats().PooledBytes; got < pooled {
		t.Fatalf("%s: pool holds %d bytes after the failed thaw, %d before", what, got, pooled)
	}
}

// A stream cut anywhere — at a section boundary, inside a section, inside
// a leaf — fails Thaw with io.ErrUnexpectedEOF, rolls the tree back to
// frozen with its chunks in the pool, and the intact stream then restores
// the full content.
func TestTruncatedThawRollsBack(t *testing.T) {
	arenatest.CheckZeroHandouts(t)
	for _, fx := range fixtures {
		rec := arena.NewRecycler()
		tr, stream, want := fx.frozen(t, rec)
		pooled := rec.Stats().PooledBytes
		for _, cut := range fx.cuts(stream) {
			what := fmt.Sprintf("%s cut at %d of %d", fx.name, cut, len(stream))
			err := tr.Thaw(bytes.NewReader(stream[:cut]))
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s: error %v, want io.ErrUnexpectedEOF", what, err)
			}
			checkRolledBack(t, what, tr, rec, pooled)
			if got := rec.Stats().PooledBytes; got != pooled {
				t.Fatalf("%s: pool grew from %d to %d bytes", what, pooled, got)
			}
		}
		if err := tr.Thaw(bytes.NewReader(stream)); err != nil {
			t.Fatalf("%s: Thaw of the intact stream: %v", fx.name, err)
		}
		if !reflect.DeepEqual(content(tr), want) {
			t.Fatalf("%s: restored content differs", fx.name)
		}
	}
}

// mutant is one damaged stream: patch written over the fixture's stream at
// off, then cut to cut bytes (no cut beyond the end).
type mutant struct {
	off   uint32
	patch []byte
	cut   uint32
}

func (m mutant) apply(stream []byte) []byte {
	b := bytes.Clone(stream)
	if len(m.patch) > 0 {
		copy(b[int(m.off)%len(b):], m.patch)
	}
	return b[:min(int(m.cut), len(b))]
}

// inflated returns the count-inflated mutants of a stream: every length
// prefix and every count behind one, the leaf and chunk counts, the first
// directory entry's min key and byte length, and the first leaf's row
// count, each overwritten with a small lie, a huge one and all ones. (A
// min key raised above the chunk's smallest key excludes that leaf.)
func (fx fixture) inflated(b []byte) []mutant {
	sections, leafCount, leaves := fx.layout(b)
	var offs []int
	for i, off := range sections {
		offs = append(offs, off)
		for _, c := range fx.sections[i].counts {
			offs = append(offs, off+c)
		}
	}
	offs = append(offs, leafCount, leafCount+8, leafCount+16, leafCount+32)
	lies := func(off int, vs ...uint64) (out []mutant) {
		for _, v := range vs {
			out = append(out, mutant{uint32(off), binary.LittleEndian.AppendUint64(nil, v), ^uint32(0)})
		}
		return out
	}
	var out []mutant
	for _, off := range offs {
		out = append(out, lies(off, binary.LittleEndian.Uint64(b[off:])+1, 1<<40, ^uint64(0))...)
	}
	if fx.width == 0 {
		// Existence-only rows take no bytes: any count an int holds is one
		// the stream can carry.
		return append(out, lies(leaves+8, ^uint64(0))...)
	}
	return append(out, lies(leaves+8, binary.LittleEndian.Uint64(b[leaves+8:])+1, 1<<40, ^uint64(0))...)
}

// checkHostile thaws one damaged stream. The thaw may succeed (not every
// byte is a count) unless the damage is a lie about a count; it never
// panics, never allocates more than a small multiple of the stream, fails
// only with the two typed errors, and a failure rolls back.
func checkHostile(t testing.TB, fx fixture, tr tree, rec *arena.Recycler, b []byte, lie bool) {
	t.Helper()
	pooled := rec.Stats().PooledBytes
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := tr.Thaw(bytes.NewReader(b))
	runtime.ReadMemStats(&m1)
	if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(8*len(b)+8<<20); got > limit {
		t.Fatalf("%s: allocated %d bytes for a %d-byte stream", fx.name, got, len(b))
	}
	if err == nil {
		if lie {
			t.Fatalf("%s: thawed", fx.name)
		}
		tr.Release()
		return
	}
	if !errors.Is(err, arena.ErrCorruptSnapshot) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("%s: untyped error %v", fx.name, err)
	}
	checkRolledBack(t, fx.name, tr, rec, pooled)
}

// Every inflated count must be caught: none of them describes the stream
// it sits in.
func TestInflatedCountsAreCorrupt(t *testing.T) {
	for _, fx := range fixtures {
		rec := arena.NewRecycler()
		tr, stream, _ := fx.frozen(t, rec)
		for _, m := range fx.inflated(stream) {
			t.Logf("%s: word at %d set to %x", fx.name, m.off, m.patch)
			checkHostile(t, fx, tr, rec, m.apply(stream), true)
		}
	}
}

// fuzzTrees holds one frozen tree per fixture for the life of a fuzz
// worker; every execution leaves them frozen again.
var fuzzTrees struct {
	sync.Once
	rec     *arena.Recycler
	trees   []tree
	streams [][]byte
}

// FuzzThaw damages a fixture's stream — kind picks the fixture, patch
// lands at off, cut truncates — and thaws it. The seed
// corpus under testdata holds, per tree kind, the intact stream, cuts and
// inflated counts.
func FuzzThaw(f *testing.F) {
	f.Add(uint8(0), uint32(0), []byte{}, ^uint32(0))
	f.Fuzz(func(t *testing.T, kind uint8, off uint32, patch []byte, cut uint32) {
		ft := &fuzzTrees
		ft.Do(func() {
			ft.rec = arena.NewRecycler()
			for _, fx := range fixtures {
				tr, stream, _ := fx.frozen(t, ft.rec)
				ft.trees, ft.streams = append(ft.trees, tr), append(ft.streams, stream)
			}
		})
		i := int(kind) % len(fixtures)
		checkHostile(t, fixtures[i], ft.trees[i], ft.rec, mutant{off, patch, cut}.apply(ft.streams[i]), false)
	})
}
