package main

import (
	"reflect"
	"testing"
)

// The hand-made trace used below, with its answers worked out by hand:
//
//	index: 0 1 2 3 4 5 6 7
//	key:   a b a c b a d c
//
// next access: a@0 -> 2, b@1 -> 4, a@2 -> 5, c@3 -> 7, b@4 none,
// a@5 none, d@6 none, c@7 none.
var handKeys = []uint64{'a', 'b', 'a', 'c', 'b', 'a', 'd', 'c'}

func TestRefNextAccess(t *testing.T) {
	want := []int{2, 4, 5, 7, -1, -1, -1, -1}
	if got := refNextAccess(handKeys); !reflect.DeepEqual(got, want) {
		t.Fatalf("next access = %v, want %v", got, want)
	}
}

func TestRefOneTime(t *testing.T) {
	next := refNextAccess(handKeys)
	// Reaccess distances: 2, 3, 3, 4, -, -, -, -.
	cases := map[int][]bool{
		// M=2: only a@0 (distance 2) comes back in time.
		2: {false, true, true, true, true, true, true, true},
		// M=3: a@0, b@1 and a@2 come back in time; c@3 is 4 away.
		3: {false, false, false, true, true, true, true, true},
		// M=4: every key with a next access comes back in time.
		4: {false, false, false, false, true, true, true, true},
	}
	for m, want := range cases {
		if got := refOneTime(next, m); !reflect.DeepEqual(got, want) {
			t.Errorf("M=%d: one-time = %v, want %v", m, got, want)
		}
	}
}

func TestRefFirstAccess(t *testing.T) {
	first, distinct := refFirstAccess(handKeys)
	want := []bool{true, true, false, true, false, false, true, false}
	if !reflect.DeepEqual(first, want) || distinct != 4 {
		t.Fatalf("first = %v distinct = %d, want %v and 4", first, distinct, want)
	}
}

func TestRefLRU(t *testing.T) {
	// Sizes: a=2, b=3, c=4, d=10 (larger than the cache), capacity 7.
	size := map[uint64]int64{'a': 2, 'b': 3, 'c': 4, 'd': 10}
	sizes := make([]int64, len(handKeys))
	for i, k := range handKeys {
		sizes[i] = size[k]
	}
	// Step by step (cache listed most recent first, bytes used):
	//   0 a miss, write        [a]      2
	//   1 b miss, write        [b a]    5
	//   2 a hit                [a b]    5
	//   3 c miss, evict b      [c a]    6
	//   4 b miss, evict a      [b c]    7
	//   5 a miss, evict c      [a b]    5
	//   6 d miss, too large    [a b]    5
	//   7 c miss, evict b      [c a]    6
	got := refLRU(handKeys, sizes, 7)
	want := lruResult{
		Requests: 8, Hits: 1, Writes: 6,
		Bytes: 2 + 3 + 2 + 4 + 3 + 2 + 10 + 4, HitBytes: 2, WriteByte: 2 + 3 + 4 + 3 + 2 + 4,
	}
	if got != want {
		t.Fatalf("refLRU = %+v, want %+v", got, want)
	}
	if got.hitRatio() != 1.0/8 || got.writeRatio() != 6.0/8 {
		t.Fatalf("ratios = %v, %v", got.hitRatio(), got.writeRatio())
	}
}
