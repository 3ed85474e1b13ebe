package core

import "io"

// Spill support for intermediate indexes (paper motivation: QPPT builds an
// index per operator, so total intermediate-index footprint — not the base
// tables — caps the runnable scale factor). Every Index is a spill.Freezer:
// the trees carry their own freeze/thaw chunk hooks, and the sharded index
// below chains its shards'. The executor registers every non-base operator
// output with the Env's spill.Manager when EnvConfig.MemBudget is set.

// WriteSnapshot writes every shard into one stream, in shard order; the
// merge bounds, key ranges and counters stay resident. Because no shard
// detaches until Release, an error midway through the stream leaves every
// shard intact. Thaw restores the shards in the same order.
func (s *shardedIndex) WriteSnapshot(w io.Writer) error {
	for _, sh := range s.shards {
		if err := sh.WriteSnapshot(w); err != nil {
			return err
		}
	}
	return nil
}

func (s *shardedIndex) Release() {
	for _, sh := range s.shards {
		sh.Release()
	}
}

// Thaw restores the shards in stream order. A shard that fails has rolled
// itself back to frozen (package freeze); releasing the ones restored
// before it returns the whole index to the frozen state a retry requires,
// and their bytes to the budget accounting.
func (s *shardedIndex) Thaw(r io.Reader) error {
	for _, sh := range s.shards {
		if err := sh.Thaw(r); err != nil {
			s.Release()
			return err
		}
	}
	return nil
}
