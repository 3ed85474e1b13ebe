package freeze_test

import (
	"io"
	"math/rand"

	"qppt/internal/arena"
	"qppt/internal/freeze"
	"qppt/internal/kisstree"
	"qppt/internal/prefixtree"
)

// tree is what both tree kinds offer the codec tests.
type tree interface {
	Insert(key uint64, row []uint64)
	Keys() int
	Bytes() int
	Frozen() bool
	WriteSnapshot(w io.Writer) error
	Thaw(r io.Reader) error
	Iterate(visit func(*freeze.Leaf) bool) bool
	Release()
}

// A fixture is one fixed tree whose freeze stream the tests pin, cut and
// mutate; sections is what a test needs to walk the stream's framing.
type fixture struct {
	name     string
	sections []section
	width    int
	new      func(rec *arena.Recycler) tree
}

// A section is the shape of one interior section: the offsets behind its
// byte-length prefix of the words that are counts or indexes, not content.
type section struct {
	counts []int
}

var (
	slots          = section{[]int{8}} // blocks
	prefixSections = []section{slots}
	// root pages (page count, first page's index), node slots
	kissSections = []section{{[]int{8, 16}}, slots}
)

func sum(dst, src []uint64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

var fixtures = []fixture{
	{"prefix/w0", prefixSections, 0, func(rec *arena.Recycler) tree {
		return prefixtree.MustNew(prefixtree.Config{KeyBits: 32, Recycler: rec})
	}},
	{"prefix/w1", prefixSections, 1, func(rec *arena.Recycler) tree {
		return prefixtree.MustNew(prefixtree.Config{KeyBits: 40, PayloadWidth: 1, Recycler: rec})
	}},
	{"prefix/w3", prefixSections, 3, func(rec *arena.Recycler) tree {
		return prefixtree.MustNew(prefixtree.Config{PrefixLen: 8, KeyBits: 32, PayloadWidth: 3, Recycler: rec})
	}},
	{"prefix/fold", prefixSections, 1, func(rec *arena.Recycler) tree {
		return prefixtree.MustNew(prefixtree.Config{KeyBits: 32, PayloadWidth: 1, Fold: sum, Recycler: rec})
	}},
	{"kiss/w0", kissSections, 0, func(rec *arena.Recycler) tree {
		return kisstree.MustNew(kisstree.Config{Recycler: rec})
	}},
	{"kiss/w1", kissSections, 1, func(rec *arena.Recycler) tree {
		return kisstree.MustNew(kisstree.Config{PayloadWidth: 1, Recycler: rec})
	}},
	{"kiss/w3", kissSections, 3, func(rec *arena.Recycler) tree {
		return kisstree.MustNew(kisstree.Config{PayloadWidth: 3, Recycler: rec})
	}},
}

// build returns the fixture's tree with its fixed content: 9000 random
// keys below 2^24 (several leaf chunks and KISS root pages), a second row
// on every third key, and a far cluster of 200 keys above 2^31.
func (fx fixture) build(rec *arena.Recycler) tree {
	t := fx.new(rec)
	rng := rand.New(rand.NewSource(42))
	row := make([]uint64, fx.width)
	insert := func(k uint64) {
		for j := range row {
			row[j] = 3*k + uint64(j)
		}
		t.Insert(k, row)
	}
	for i := 0; i < 9000; i++ {
		k := uint64(rng.Int63n(1 << 24))
		insert(k)
		if i%3 == 0 {
			insert(k)
		}
	}
	for i := uint64(0); i < 200; i++ {
		insert(1<<31 + i)
	}
	return t
}

// freezeTo writes tr's snapshot to w and releases its storage.
func freezeTo(tr tree, w io.Writer) error {
	if err := tr.WriteSnapshot(w); err != nil {
		return err
	}
	tr.Release()
	return nil
}
