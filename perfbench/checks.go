package main

import (
	"otacache/internal/engine"
	"otacache/internal/trace"
)

// refFigures are the benchmark's own figures for one trace, computed
// apart from the program, against which each round is checked.
type refFigures struct {
	keys     []uint64
	next     []int
	distinct int
	lru      lruResult
	// oneTime labels each request under the trace's solved M, when the
	// workload solves one.
	oneTime []bool
}

// newRefFigures computes the reference figures for in and checks the
// inputs' preconditions: the program's next-access index agrees with the
// reference scan, and every object fits one shard's slice of the
// capacity (shardCap) and one flash segment, so that every admitted miss
// is a write.
func newRefFigures(rep *report, in *inputs, shardCap int64) *refFigures {
	f := &refFigures{keys: in.keys, next: refNextAccess(in.keys)}
	_, f.distinct = refFirstAccess(in.keys)
	f.lru = refLRU(in.keys, in.sizes, in.capacity)
	agree := len(in.next) == len(f.next)
	for i := 0; agree && i < len(f.next); i++ {
		n := in.next[i]
		if n == trace.NoNext {
			n = -1
		}
		agree = n == f.next[i]
	}
	rep.expect("next-access index matches reference scan", agree, "%d requests", len(f.next))
	var maxSize int64
	for _, s := range in.sizes {
		maxSize = max(maxSize, s)
	}
	rep.expect("objects fit a shard and a segment", maxSize <= shardCap && maxSize <= segmentSize,
		"largest object %d B, shard capacity %d B, segment %d B", maxSize, shardCap, int64(segmentSize))
	return f
}

// checkRound verifies one round's engine counters. hit, when not nil,
// is the per-request hit seen by the benchmark; flash reports whether a
// flash store was attached.
func (f *refFigures) checkRound(rep *report, m engine.Metrics, hit []bool, flash bool) {
	sent := int64(len(f.next))
	rep.expect("Requests equals requests sent", m.Requests == sent, "Requests %d, sent %d", m.Requests, sent)
	rep.expect("Hits + Misses == Requests", m.Hits+m.Misses == m.Requests,
		"%d + %d vs %d", m.Hits, m.Misses, m.Requests)
	rep.expect("Writes + Bypassed == Misses", m.Writes+m.Bypassed == m.Misses,
		"%d + %d vs %d", m.Writes, m.Bypassed, m.Misses)
	rep.expect("hits at most requests minus distinct keys", m.Hits <= sent-int64(f.distinct),
		"%d hits, %d requests, %d distinct keys", m.Hits, sent, f.distinct)
	if hit != nil {
		// With concurrent clients a key's first two requests may reach
		// the program in either order, so the property checked is the
		// order-free one: the first request served for each key, which
		// found the cache without it, missed.
		missed := make(map[uint64]struct{}, f.distinct)
		for i, h := range hit {
			if !h {
				missed[f.keys[i]] = struct{}{}
			}
		}
		rep.expect("every key misses at least once", len(missed) == f.distinct,
			"%d of %d keys missed", len(missed), f.distinct)
	}
	rep.expect("no faults, no degraded decisions",
		m.FlashReadErrors == 0 && m.FlashCorruptExtents == 0 && m.FlashRetiredBlocks == 0 && m.Degraded == 0,
		"read errors %d, corrupt %d, retired %d, degraded %d",
		m.FlashReadErrors, m.FlashCorruptExtents, m.FlashRetiredBlocks, m.Degraded)
	if flash {
		rep.expect("FlashHostBytes == WriteBytes", m.FlashHostBytes == m.WriteBytes,
			"host %d, written %d", m.FlashHostBytes, m.WriteBytes)
		rep.expect("flash WAF at least 1", m.FlashWAF() >= 1 && m.FlashHostBytes > 0,
			"WAF %.4f over %d host bytes", m.FlashWAF(), m.FlashHostBytes)
	}
}

// quality counts one-time predictions on misses against the reference
// labels (positive = one-time).
type quality struct{ tp, fp, fn, misses int64 }

func (q quality) add(o quality) quality {
	return quality{q.tp + o.tp, q.fp + o.fp, q.fn + o.fn, q.misses + o.misses}
}

func (q quality) precision() float64 { return frac(q.tp, q.tp+q.fp) }
func (q quality) recall() float64    { return frac(q.tp, q.tp+q.fn) }

// base is the share of one-time labels among misses: the precision of
// predicting one-time at random.
func (q quality) base() float64 { return frac(q.tp+q.fn, q.misses) }

// score counts the predictions seen on misses against f.oneTime.
func (f *refFigures) score(hit, predicted []bool) quality {
	var q quality
	for i, h := range hit {
		if h {
			continue
		}
		q.misses++
		switch {
		case predicted[i] && f.oneTime[i]:
			q.tp++
		case predicted[i]:
			q.fp++
		case f.oneTime[i]:
			q.fn++
		}
	}
	return q
}

// checkAdmission verifies the paper's claim for classifier admission
// against the reference admit-all LRU at the same capacity on the same
// trace (Figs 6 and 8), and the one-time predictions against the
// reference labels.
func (f *refFigures) checkAdmission(rep *report, m engine.Metrics, q quality) {
	rep.expect("write ratio below admit-all LRU", m.WriteRate() < f.lru.writeRatio(),
		"%.4f vs %.4f", m.WriteRate(), f.lru.writeRatio())
	rep.expect("hit ratio no lower than admit-all LRU", m.HitRate() >= f.lru.hitRatio(),
		"%.4f vs %.4f", m.HitRate(), f.lru.hitRatio())
	rep.expect("one-time precision above the one-time share of misses", q.precision() > q.base(),
		"precision %.4f, share %.4f", q.precision(), q.base())
	rep.expect("one-time recall above 0", q.recall() > 0, "recall %.4f", q.recall())
}
