package hashbase

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestChainedMapOracle(t *testing.T) {
	f := func(ops []uint32) bool {
		m := NewChainedMap(0)
		oracle := map[uint64]uint64{}
		for i, op := range ops {
			k := uint64(op % 5000)
			v := uint64(i)
			m.Insert(k, v)
			oracle[k] = v
		}
		if m.Len() != len(oracle) {
			return false
		}
		for k, v := range oracle {
			got, ok := m.Lookup(k)
			if !ok || got != v {
				return false
			}
		}
		_, ok := m.Lookup(999999)
		return !ok
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestOpenMapOracle(t *testing.T) {
	f := func(ops []uint32) bool {
		m := NewOpenMap(0)
		oracle := map[uint64]uint64{}
		for i, op := range ops {
			k := uint64(op % 5000)
			v := uint64(i)
			m.Insert(k, v)
			oracle[k] = v
		}
		if m.Len() != len(oracle) {
			return false
		}
		for k, v := range oracle {
			got, ok := m.Lookup(k)
			if !ok || got != v {
				return false
			}
		}
		_, ok := m.Lookup(999999)
		return !ok
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMapsGrow(t *testing.T) {
	cm := NewChainedMap(0)
	om := NewOpenMap(0)
	const n = 100000
	for i := uint64(0); i < n; i++ {
		cm.Insert(i*7, i)
		om.Insert(i*7, i)
	}
	if cm.Len() != n || om.Len() != n {
		t.Fatalf("Len = %d/%d", cm.Len(), om.Len())
	}
	for i := uint64(0); i < n; i += 997 {
		if v, ok := cm.Lookup(i * 7); !ok || v != i {
			t.Fatalf("chained lost key %d", i*7)
		}
		if v, ok := om.Lookup(i * 7); !ok || v != i {
			t.Fatalf("open lost key %d", i*7)
		}
	}
}

func TestMultiMap(t *testing.T) {
	m := NewMultiMap(8)
	for i := uint32(0); i < 1000; i++ {
		m.Insert(uint64(i%10), i)
	}
	if len(m.entries) != 1000 {
		t.Fatalf("%d entries", len(m.entries))
	}
	for k := uint64(0); k < 10; k++ {
		var got []uint32
		m.ForEach(k, func(v uint32) { got = append(got, v) })
		if len(got) != 100 {
			t.Fatalf("key %d has %d values", k, len(got))
		}
		for _, v := range got {
			if uint64(v%10) != k {
				t.Fatalf("key %d got foreign value %d", k, v)
			}
		}
		if !m.Contains(k) {
			t.Fatalf("Contains(%d) = false", k)
		}
	}
	if m.Contains(11) {
		t.Fatal("Contains(11) = true")
	}
	m.ForEach(42, func(uint32) { t.Fatal("visited value for absent key") })
}
