package qppt

import (
	"container/list"
	"sync"
)

// DefaultStmtCacheSize is the per-Conn prepared-statement cache capacity:
// comfortably more than any workload's distinct statement population (the
// SSB suite has 13) while bounding a client that generates unbounded
// distinct SQL texts.
const DefaultStmtCacheSize = 64

// StmtCacheStats aggregates every Conn's prepared-statement cache
// traffic in Engine.Stats. Hits are PrepareCached calls (a wire Query
// each) that skipped planning entirely; Evicted counts LRU evictions under the per-Conn capacity;
// Cached is the number of statements currently held across all Conns.
type StmtCacheStats struct {
	Hits    int64
	Misses  int64
	Evicted int64
	Cached  int64
}

// A stmtCache is one Conn's LRU of prepared statements, keyed by SQL
// text. Counters aggregate on the owning engine so Engine.Stats reports
// cache traffic across every Conn. A plan depends on its SQL text alone,
// so the text is the key.
type stmtCache struct {
	eng *Engine

	mu     sync.Mutex
	ll     *list.List // front = most recently used
	byText map[string]*list.Element
}

// stmtEntry is one cached statement.
type stmtEntry struct {
	text string
	stmt *Stmt
}

func newStmtCache(eng *Engine) *stmtCache {
	return &stmtCache{eng: eng, ll: list.New(), byText: make(map[string]*list.Element)}
}

// lookup returns the cached statement for the text, promoting it to
// most-recently-used, and counts the hit or miss.
func (c *stmtCache) lookup(text string) (*Stmt, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byText[text]
	if !ok {
		c.eng.stmtMisses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.eng.stmtHits.Add(1)
	return el.Value.(*stmtEntry).stmt, true
}

// add caches a freshly planned statement, evicting the least recently
// used entry beyond capacity.
func (c *stmtCache) add(text string, stmt *Stmt) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byText[text]; ok {
		return // a concurrent PrepareCached of the same text won the race
	}
	c.byText[text] = c.ll.PushFront(&stmtEntry{text: text, stmt: stmt})
	c.eng.stmtCached.Add(1)
	for c.ll.Len() > DefaultStmtCacheSize {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.byText, last.Value.(*stmtEntry).text)
		c.eng.stmtCached.Add(-1)
		c.eng.stmtEvicted.Add(1)
	}
}

// drop empties the cache when its Conn closes, keeping the engine-wide
// Cached gauge honest.
func (c *stmtCache) drop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.eng.stmtCached.Add(-int64(c.ll.Len()))
	c.ll.Init()
	c.byText = make(map[string]*list.Element)
}
