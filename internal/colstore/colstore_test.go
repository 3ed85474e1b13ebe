package colstore

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestAddTableValidation(t *testing.T) {
	db := NewDB()
	if _, err := db.AddTable("t", map[string][]uint64{"a": {1, 2}, "b": {1}}); err == nil {
		t.Fatal("ragged table accepted")
	}
	if _, err := db.AddTable("t", map[string][]uint64{"a": {1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddTable("t", nil); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if db.Table("t") == nil || db.Table("zz") != nil {
		t.Fatal("table lookup broken")
	}
}

func TestSelectAndRefine(t *testing.T) {
	col := []uint64{5, 1, 9, 3, 7, 3, 0}
	got := SelectRange(col, 3, 7)
	want := []uint32{0, 3, 4, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SelectRange = %v, want %v", got, want)
	}
	other := []uint64{1, 1, 1, 2, 2, 2, 1}
	got = RefineRange(other, got, 2, 2)
	if !reflect.DeepEqual(got, []uint32{3, 4, 5}) {
		t.Fatalf("RefineRange = %v", got)
	}
	got = SelectIn(col, map[uint64]bool{9: true, 0: true})
	if !reflect.DeepEqual(got, []uint32{2, 6}) {
		t.Fatalf("SelectIn = %v", got)
	}
}

func TestFetch(t *testing.T) {
	col := []uint64{10, 20, 30, 40}
	if got := Fetch(col, []uint32{3, 0, 2}); !reflect.DeepEqual(got, []uint64{40, 10, 30}) {
		t.Fatalf("Fetch = %v", got)
	}
}

func TestJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	build := make([]uint64, 300)
	probe := make([]uint64, 1000)
	for i := range build {
		build[i] = uint64(rng.Intn(100))
	}
	for i := range probe {
		probe[i] = uint64(rng.Intn(150))
	}
	ht := BuildJoin(build, nil)
	pOut, bOut := ProbeJoin(probe, nil, ht)
	type pair struct{ p, b uint32 }
	got := map[pair]bool{}
	for i := range pOut {
		got[pair{pOut[i], bOut[i]}] = true
	}
	want := map[pair]bool{}
	for p, pv := range probe {
		for b, bv := range build {
			if pv == bv {
				want[pair{uint32(p), uint32(b)}] = true
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("join produced %d pairs, nested loop %d", len(got), len(want))
	}
}

func TestJoinWithBuildSelection(t *testing.T) {
	build := []uint64{7, 8, 7, 9}
	oids := []uint32{0, 2} // only the two 7s
	ht := BuildJoin(build, oids)
	p, b := ProbeJoin([]uint64{7, 9}, []uint32{100, 200}, ht)
	if len(p) != 2 || p[0] != 100 || p[1] != 100 {
		t.Fatalf("probe oids = %v", p)
	}
	seen := map[uint32]bool{}
	for _, x := range b {
		seen[x] = true
	}
	if !seen[0] || !seen[2] || len(seen) != 2 {
		t.Fatalf("build oids = %v", b)
	}
}

func TestSemiJoin(t *testing.T) {
	ht := BuildJoin([]uint64{1, 2, 3}, nil)
	got := SemiJoin([]uint64{0, 2, 2, 5, 3}, nil, ht)
	if !reflect.DeepEqual(got, []uint32{1, 2, 4}) {
		t.Fatalf("SemiJoin = %v", got)
	}
	got = SemiJoin([]uint64{0, 2}, []uint32{10, 20}, ht)
	if !reflect.DeepEqual(got, []uint32{20}) {
		t.Fatalf("SemiJoin with oids = %v", got)
	}
}

func TestGroupSum(t *testing.T) {
	keys := []uint64{1, 2, 1, 3, 2, 1}
	meas := []uint64{10, 20, 30, 40, 50, 60}
	got := GroupSum(keys, meas)
	want := map[uint64]uint64{1: 100, 2: 70, 3: 40}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("GroupSum = %v", got)
	}
}
