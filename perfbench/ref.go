package main

import "container/list"

// The reference computations below are the benchmark's own, written
// apart from the program so its outputs can be checked against them.
// They work on plain key and size slices; ref_test.go pins each on
// hand-made traces.

// refNextAccess returns, for each request, the index of the next
// request for the same key, or -1 when the key is not requested again.
func refNextAccess(keys []uint64) []int {
	next := make([]int, len(keys))
	seen := make(map[uint64]int, len(keys)/4)
	for i := len(keys) - 1; i >= 0; i-- {
		if j, ok := seen[keys[i]]; ok {
			next[i] = j
		} else {
			next[i] = -1
		}
		seen[keys[i]] = i
	}
	return next
}

// refOneTime labels request i one-time when its key is not requested
// again within m requests: the next access is absent or more than m
// requests ahead.
func refOneTime(next []int, m int) []bool {
	out := make([]bool, len(next))
	for i, n := range next {
		out[i] = n < 0 || n-i > m
	}
	return out
}

// refFirstAccess marks each request that is its key's first appearance
// and counts the distinct keys.
func refFirstAccess(keys []uint64) (first []bool, distinct int) {
	first = make([]bool, len(keys))
	seen := make(map[uint64]struct{}, len(keys)/4)
	for i, k := range keys {
		if _, ok := seen[k]; !ok {
			seen[k] = struct{}{}
			first[i] = true
		}
	}
	return first, len(seen)
}

// lruResult is what refLRU counts.
type lruResult struct {
	Requests, Hits, Writes     int64
	Bytes, HitBytes, WriteByte int64
}

func (r lruResult) hitRatio() float64   { return frac(r.Hits, r.Requests) }
func (r lruResult) writeRatio() float64 { return frac(r.Writes, r.Requests) }

// refLRU replays the requests through an admit-all LRU cache holding at
// most capacity bytes: every miss is admitted (one write) after evicting
// least recently used objects until it fits; an object larger than the
// whole capacity is never admitted.
func refLRU(keys []uint64, sizes []int64, capacity int64) lruResult {
	type entry struct {
		key  uint64
		size int64
	}
	var r lruResult
	order := list.New() // front = most recently used
	where := make(map[uint64]*list.Element)
	var used int64
	for i, k := range keys {
		size := sizes[i]
		r.Requests++
		r.Bytes += size
		if e, ok := where[k]; ok {
			r.Hits++
			r.HitBytes += size
			order.MoveToFront(e)
			continue
		}
		if size > capacity {
			continue
		}
		for used+size > capacity {
			back := order.Back()
			old := back.Value.(entry)
			used -= old.size
			delete(where, old.key)
			order.Remove(back)
		}
		where[k] = order.PushFront(entry{k, size})
		used += size
		r.Writes++
		r.WriteByte += size
	}
	return r
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
