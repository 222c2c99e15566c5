package relational

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestProjectDistinctFullValue: keys differ only above the low 40 bits
// must stay distinct — dedup keys on the whole Value.
func TestProjectDistinctFullValue(t *testing.T) {
	hi := Value(1) << 40
	in := []Tuple{{1, 7}, {1 + hi, 7}, {1, 8}, {1 + hi, 9}, {1 << 62, 7}}
	got := ProjectDistinct(in, []int{0})
	want := []Tuple{{1}, {1 + hi}, {1 << 62}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ProjectDistinct = %v, want %v", got, want)
	}
}

// TestKeySetMatchesMap checks ids, first-insertion order and growth
// against a map oracle over random keys of several widths.
func TestKeySetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, width := range []int{0, 1, 2, 3} {
		s := NewKeySet(width)
		ids := map[string]int{}
		var order []Tuple
		for i := 0; i < 5000; i++ {
			key := make(Tuple, width)
			for j := range key {
				key[j] = Value(rng.Intn(40)) << (rng.Intn(3) * 24)
			}
			id, added := s.Add(key)
			k := fmt.Sprint(key)
			want, seen := ids[k]
			if !seen {
				want = len(ids)
				ids[k] = want
				order = append(order, key)
			}
			if id != want || added == seen {
				t.Fatalf("width %d: Add(%v) = %d,%v; want %d,%v", width, key, id, added, want, !seen)
			}
		}
		if s.Len() != len(order) {
			t.Fatalf("width %d: %d keys, want %d", width, s.Len(), len(order))
		}
		for id, key := range order {
			if !slices.Equal(s.Key(id), key) {
				t.Fatalf("width %d: key %d = %v, want %v", width, id, s.Key(id), key)
			}
		}
	}
}

func TestSortTuples(t *testing.T) {
	in := []Tuple{{2, 1}, {1, 5}, {1, 2}, {2, 0}}
	SortTuples(in)
	if want := []Tuple{{1, 2}, {1, 5}, {2, 0}, {2, 1}}; !reflect.DeepEqual(in, want) {
		t.Fatalf("SortTuples = %v, want %v", in, want)
	}
}
