package core

import "sort"

// A shardedIndex presents several disjoint-key-range sub-indexes as one
// Index. It is the output shape of the parallel partition-wise merge
// (paper Section 7): because a key's position in a prefix tree is
// deterministic, disjoint output key ranges never touch the same subtree,
// so each shard can be built by a different pool worker with no
// synchronization at all — the shards *are* the disjoint subtrees, just
// materialized as separate trees.
//
// Shards are ordered by key range and together cover the full key space
// (the first shard's range is extended down to 0 and the last one's up to
// the key-width maximum), so every Index operation routes totally:
// point operations dispatch to the owning shard, ordered scans visit the
// shards in range order, which preserves the ascending key order the rest
// of the engine relies on.
type shardedIndex struct {
	shards []Index
	los    []uint64 // inclusive lower bound per shard
	his    []uint64 // inclusive upper bound per shard
	bits   uint
}

// newShardedIndex wraps pre-built shards. bounds must be sorted, disjoint
// and contiguous; shards[i] must only contain keys in [los[i], his[i]].
func newShardedIndex(shards []Index, los, his []uint64, bits uint) *shardedIndex {
	return &shardedIndex{shards: shards, los: los, his: his, bits: bits}
}

// shard returns the ordinal of the shard owning key. A key above the last
// shard's bound clamps to the last shard: its range is documented as
// extended up to the key-space maximum, and probe keys can exceed even
// that (e.g. a probe attribute wider than the index key), which must read
// as a miss in the last shard — not an out-of-range panic.
func (s *shardedIndex) shard(key uint64) int {
	if i := sort.Search(len(s.his), func(i int) bool { return key <= s.his[i] }); i < len(s.his) {
		return i
	}
	return len(s.his) - 1
}

func (s *shardedIndex) Insert(key uint64, row []uint64) {
	s.shards[s.shard(key)].Insert(key, row)
}

func (s *shardedIndex) InsertBatch(keys []uint64, rows [][]uint64) {
	for i, k := range keys {
		if rows == nil {
			s.shards[s.shard(k)].Insert(k, nil)
		} else {
			s.shards[s.shard(k)].Insert(k, rows[i])
		}
	}
}

func (s *shardedIndex) Lookup(key uint64) *Leaf {
	return s.shards[s.shard(key)].Lookup(key)
}

// LookupBatch groups the probe keys by shard so the per-shard batches keep
// the level-synchronized lookup kernels effective.
func (s *shardedIndex) LookupBatch(keys []uint64, visit func(i int, lf *Leaf)) {
	if len(keys) == 0 {
		return
	}
	subKeys := make([][]uint64, len(s.shards))
	subPos := make([][]int, len(s.shards))
	for i, k := range keys {
		si := s.shard(k)
		subKeys[si] = append(subKeys[si], k)
		subPos[si] = append(subPos[si], i)
	}
	for si, sk := range subKeys {
		if len(sk) == 0 {
			continue
		}
		pos := subPos[si]
		s.shards[si].LookupBatch(sk, func(j int, lf *Leaf) {
			visit(pos[j], lf)
		})
	}
}

func (s *shardedIndex) Iterate(visit func(lf *Leaf) bool) bool {
	for _, sh := range s.shards {
		if !sh.Iterate(visit) {
			return false
		}
	}
	return true
}

func (s *shardedIndex) Range(lo, hi uint64, visit func(lf *Leaf) bool) bool {
	if lo > hi {
		return true
	}
	for i, sh := range s.shards {
		if s.los[i] > hi || s.his[i] < lo {
			continue
		}
		if !sh.Range(max(lo, s.los[i]), min(hi, s.his[i]), visit) {
			return false
		}
	}
	return true
}

func (s *shardedIndex) Keys() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Keys()
	}
	return n
}

func (s *shardedIndex) Rows() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Rows()
	}
	return n
}

func (s *shardedIndex) PayloadWidth() int { return s.shards[0].PayloadWidth() }
func (s *shardedIndex) KeyBits() uint     { return s.bits }

func (s *shardedIndex) Bytes() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Bytes()
	}
	return n
}

func (s *shardedIndex) Min() (uint64, bool) {
	for _, sh := range s.shards {
		if k, ok := sh.Min(); ok {
			return k, true
		}
	}
	return 0, false
}

func (s *shardedIndex) Max() (uint64, bool) {
	for i := len(s.shards) - 1; i >= 0; i-- {
		if k, ok := s.shards[i].Max(); ok {
			return k, true
		}
	}
	return 0, false
}
