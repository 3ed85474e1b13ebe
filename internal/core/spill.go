package core

import (
	"io"

	"qppt/internal/spill"
)

// Spill support for intermediate indexes (paper motivation: QPPT builds an
// index per operator, so total intermediate-index footprint — not the base
// tables — caps the runnable scale factor). The index adapters forward the
// trees' freeze/thaw chunk hooks, and the executor registers every
// non-base operator output with the Env's spill.Manager when
// EnvConfig.MemBudget is set.

func (p ptIndex) WriteSnapshot(w io.Writer) error { return p.t.WriteSnapshot(w) }
func (p ptIndex) Release()                        { p.t.Release() }
func (p ptIndex) Thaw(r io.Reader) error          { return p.t.Thaw(r) }

func (k kissIndex) WriteSnapshot(w io.Writer) error { return k.t.WriteSnapshot(w) }
func (k kissIndex) Release()                        { k.t.Release() }
func (k kissIndex) Thaw(r io.Reader) error          { return k.t.Thaw(r) }

// WriteSnapshot writes every shard into one stream, in shard order; the
// merge bounds, key ranges and counters stay resident. Because no shard
// detaches until Release, an error midway through the stream leaves every
// shard intact. Thaw restores the shards in the same order.
func (s *shardedIndex) WriteSnapshot(w io.Writer) error {
	for _, sh := range s.shards {
		if err := sh.(spill.Freezer).WriteSnapshot(w); err != nil {
			return err
		}
	}
	return nil
}

func (s *shardedIndex) Release() {
	for _, sh := range s.shards {
		sh.(spill.Freezer).Release()
	}
}

// Thaw restores the shards in stream order. A shard that fails has rolled
// itself back to frozen (package freeze); releasing the ones restored
// before it returns the whole index to the frozen state a retry requires,
// and their bytes to the budget accounting.
func (s *shardedIndex) Thaw(r io.Reader) error {
	for _, sh := range s.shards {
		if err := sh.(spill.Freezer).Thaw(r); err != nil {
			s.Release()
			return err
		}
	}
	return nil
}

// freezerOf returns the index's spill hook, or nil for index kinds that
// cannot detach their storage (none of the built-in kinds today; the
// check keeps custom Index implementations safely resident).
func freezerOf(idx Index) spill.Freezer {
	switch v := idx.(type) {
	case *shardedIndex:
		for _, sh := range v.shards {
			if freezerOf(sh) == nil {
				return nil
			}
		}
		return v
	case spill.Freezer:
		return v
	}
	return nil
}
