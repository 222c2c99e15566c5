package relational

import "slices"

// KeySet numbers distinct fixed-width Value keys densely in first-insertion
// order: the set behind projection dedup and GROUP BY. Keys are stored
// back to back in one flat array and indexed by an open-addressing table
// over the full 64-bit Values, so an insert allocates nothing beyond the
// amortized growth of those two arrays.
type KeySet struct {
	width int
	keys  []Value // key id i is keys[i*width : (i+1)*width]
	n     int
	slots []int32 // linear probing; id+1, 0 = empty
}

// NewKeySet returns an empty set of width-Value keys. Width 0 is allowed:
// every key is the empty key, so the set holds at most one.
func NewKeySet(width int) *KeySet {
	return &KeySet{width: width, slots: make([]int32, 16)}
}

// Len reports the number of distinct keys added.
func (s *KeySet) Len() int { return s.n }

// Add returns key's id, inserting a copy of key when it is new (added
// reports which). len(key) must equal the set's width.
func (s *KeySet) Add(key []Value) (id int, added bool) {
	mask := uint64(len(s.slots) - 1)
	for i := HashKey(key) & mask; ; i = (i + 1) & mask {
		slot := s.slots[i]
		if slot == 0 {
			break
		}
		if id := int(slot - 1); slices.Equal(s.Key(id), key) {
			return id, false
		}
	}
	id = s.n
	s.n++
	s.keys = append(s.keys, key...)
	if 2*s.n > len(s.slots) {
		s.rehash(2 * len(s.slots))
	} else {
		s.place(id)
	}
	return id, true
}

// Key returns the id-th key. The slice aliases the set's storage and has
// no spare capacity, so appending to it copies.
func (s *KeySet) Key(id int) Tuple {
	lo, hi := id*s.width, (id+1)*s.width
	return s.keys[lo:hi:hi]
}

// Tuples returns every key in id order as tuples sharing the set's
// storage (see Key).
func (s *KeySet) Tuples() []Tuple {
	out := make([]Tuple, s.n)
	for id := range out {
		out[id] = s.Key(id)
	}
	return out
}

func (s *KeySet) place(id int) {
	mask := uint64(len(s.slots) - 1)
	i := HashKey(s.Key(id)) & mask
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = int32(id + 1)
}

func (s *KeySet) rehash(size int) {
	s.slots = make([]int32, size)
	for id := 0; id < s.n; id++ {
		s.place(id)
	}
}

// ProjectDistinct projects tuples onto the positions cols and keeps the
// first occurrence of every distinct projected tuple, in input order. The
// results share one flat backing array.
func ProjectDistinct(tuples []Tuple, cols []int) []Tuple {
	set := NewKeySet(len(cols))
	key := make([]Value, len(cols))
	for _, t := range tuples {
		for i, c := range cols {
			key[i] = t[c]
		}
		set.Add(key)
	}
	return set.Tuples()
}

// SortTuples sorts tuples ascending, lexicographically by Value. Input
// that is already in order — the generic join's emission order, at any
// parallelism — costs one linear pass.
func SortTuples(tuples []Tuple) {
	if !slices.IsSortedFunc(tuples, slices.Compare[Tuple]) {
		slices.SortFunc(tuples, slices.Compare[Tuple])
	}
}
