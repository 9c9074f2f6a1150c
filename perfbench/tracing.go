package main

import (
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"otacache/internal/cache"
	"otacache/internal/core"
	"otacache/internal/engine"
	"otacache/internal/flash"
	"otacache/internal/obs"
)

// The traced variant of a workload wraps every layer boundary it can
// reach from outside the program in the decorators below. Each records
// a span (kind, start, end, key) into one in-memory recorder; spans are
// reduced to per-layer figures when the run ends. A span's parent is
// the span of the next layer up that has the same key and contains it
// in time, so a request's spans share its key and nest by time.

type spanKind uint8

const (
	spanClient  spanKind = iota // one client round trip
	spanHandler                 // the daemon's HTTP handler
	spanLookup                  // engine.Server.Lookup
	spanGet                     // cache.Policy.Get
	spanAdmit                   // cache.Policy.Admit
	spanDecide                  // core.Filter.Decide
)

type span struct {
	start, end int64 // nanoseconds since the recorder's base
	key        uint64
	kind       spanKind
}

// recorder keeps spans in a fixed array: it records at most len(spans)
// of them and drops the rest, so tracing never grows memory without
// bound. Calls carrying a tick are recorded only
// when tick&mask == 0, which samples whole requests on the workloads
// whose request rate would otherwise overflow the array.
type recorder struct {
	base     time.Time
	mask     uint64
	n        atomic.Int64
	spans    []span
	contains atomic.Int64
}

func newRecorder(capacity int, mask uint64) *recorder {
	return &recorder{base: time.Now(), mask: mask, spans: make([]span, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) sampled(tick int) bool { return uint64(tick)&r.mask == 0 }

func (r *recorder) add(kind spanKind, key uint64, start, end int64) {
	if i := r.n.Add(1) - 1; i < int64(len(r.spans)) {
		r.spans[i] = span{start: start, end: end, key: key, kind: kind}
	}
}

// recorded returns the spans kept. Call only after every recording
// goroutine has finished.
func (r *recorder) recorded() []span {
	n := r.n.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// durations returns the lengths of the spans of one kind.
func durations(spans []span, kind spanKind) []int64 {
	var out []int64
	for _, s := range spans {
		if s.kind == kind {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// selfTimes returns, for every span of kind parent, its length minus the
// length of the span of kind child with the same key inside it: the
// parent layer's self time. Parents without such a child are skipped.
func selfTimes(spans []span, parent, child spanKind) []int64 {
	children := map[uint64][]int{}
	for i, s := range spans {
		if s.kind == child {
			children[s.key] = append(children[s.key], i)
		}
	}
	var out []int64
	for _, p := range spans {
		if p.kind != parent {
			continue
		}
		for _, ci := range children[p.key] {
			c := spans[ci]
			if c.start >= p.start && c.end <= p.end {
				out = append(out, (p.end-p.start)-(c.end-c.start))
				break
			}
		}
	}
	return out
}

// tracedPolicy times Get and Admit and counts Contains, which the flash
// collector's liveness scan calls. It forwards the optional interfaces
// the program type-asserts on a policy.
type tracedPolicy struct {
	cache.Policy
	rec *recorder
}

func (p tracedPolicy) Get(key uint64, tick int) bool {
	if !p.rec.sampled(tick) {
		return p.Policy.Get(key, tick)
	}
	start := p.rec.now()
	ok := p.Policy.Get(key, tick)
	p.rec.add(spanGet, key, start, p.rec.now())
	return ok
}

func (p tracedPolicy) Admit(key uint64, size int64, tick int) {
	if !p.rec.sampled(tick) {
		p.Policy.Admit(key, size, tick)
		return
	}
	start := p.rec.now()
	p.Policy.Admit(key, size, tick)
	p.rec.add(spanAdmit, key, start, p.rec.now())
}

func (p tracedPolicy) Contains(key uint64) bool {
	p.rec.contains.Add(1)
	return p.Policy.Contains(key)
}

// Remove forwards cache.Remover; every policy the benchmark wraps
// implements it.
func (p tracedPolicy) Remove(key uint64) bool {
	return p.Policy.(cache.Remover).Remove(key)
}

// Range forwards cache.Ranger, as Remove does.
func (p tracedPolicy) Range(fn func(key uint64, size int64) bool) {
	p.Policy.(cache.Ranger).Range(fn)
}

// tracedFilter times Decide. Primary lets the server find the
// classifier admission behind it, as it does behind the breaker.
type tracedFilter struct {
	core.Filter
	rec *recorder
}

func (f tracedFilter) Decide(key uint64, tick int, feat []float64) core.Decision {
	if !f.rec.sampled(tick) {
		return f.Filter.Decide(key, tick, feat)
	}
	start := f.rec.now()
	d := f.Filter.Decide(key, tick, feat)
	f.rec.add(spanDecide, key, start, f.rec.now())
	return d
}

func (f tracedFilter) Primary() core.Filter { return f.Filter }

// tracedServer times engine.Server.Lookup.
type tracedServer struct {
	engine.Server
	rec *recorder
}

func (s tracedServer) Lookup(key uint64, size int64, tick int, feat []float64) engine.Outcome {
	if !s.rec.sampled(tick) {
		return s.Server.Lookup(key, size, tick, feat)
	}
	start := s.rec.now()
	out := s.Server.Lookup(key, size, tick, feat)
	s.rec.add(spanLookup, key, start, s.rec.now())
	return out
}

// rewrap rebuilds each shard engine of srv around traced decorators of
// its policy and filter, the way otacached rebuilds shards around the
// circuit breaker, and returns the reassembled server (ringSeed keeps a
// sharded server's routing). wrapFilter, when set, is applied to each
// shard's filter before the decorator.
func rewrap(srv engine.Server, rec *recorder, ringSeed uint64, wrapFilter func(core.Filter) (core.Filter, error)) (engine.Server, error) {
	shards := srv.Shards()
	wrapped := make([]*engine.Engine, len(shards))
	for i, sh := range shards {
		var pol cache.Policy = sh.Policy()
		filter := sh.Filter()
		if wrapFilter != nil {
			var err error
			if filter, err = wrapFilter(filter); err != nil {
				return nil, err
			}
		}
		if rec != nil {
			pol = tracedPolicy{Policy: pol, rec: rec}
			filter = tracedFilter{Filter: filter, rec: rec}
		}
		var err error
		if wrapped[i], err = engine.New(pol, filter); err != nil {
			return nil, err
		}
	}
	if len(wrapped) == 1 {
		return wrapped[0], nil
	}
	return engine.NewShardedEngine(wrapped, ringSeed)
}

// tracedHandler times the daemon's handler for object requests.
type tracedHandler struct {
	h   http.Handler
	rec *recorder
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rest, ok := strings.CutPrefix(r.URL.Path, "/object/")
	key, err := strconv.ParseUint(rest, 10, 64)
	if !ok || err != nil {
		t.h.ServeHTTP(w, r)
		return
	}
	start := t.rec.now()
	t.h.ServeHTTP(w, r)
	t.rec.add(spanHandler, key, start, t.rec.now())
}

// countingListener counts accepted connections and the bytes they carry
// in both directions.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
	bytes    atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.accepted.Add(1)
	return countingConn{Conn: c, bytes: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// flashTimes merges the flash observers the benchmark attached.
type flashTimes struct{ read, program, gc *obs.Histogram }

func newFlashTimes() *flashTimes {
	return &flashTimes{read: obs.NewHistogram(), program: obs.NewHistogram(), gc: obs.NewHistogram()}
}

// observeFlash attaches an observer timing every call to each shard's
// store; collect folds the observers into ft once the round is done.
func observeFlash(srv engine.Server) []*flash.Observer {
	var out []*flash.Observer
	for _, sh := range srv.Shards() {
		if fs := sh.Flash(); fs != nil {
			o := flash.NewObserver(time.Now, 1)
			fs.SetObserver(o)
			out = append(out, o)
		}
	}
	return out
}

func (ft *flashTimes) collect(obsv []*flash.Observer) {
	for _, o := range obsv {
		ft.read.Merge(o.Read)
		ft.program.Merge(o.Program)
		ft.gc.Merge(o.GC)
	}
}

// usQuantile reads a quantile of a nanosecond histogram in microseconds
// (0 when nothing was recorded).
func usQuantile(h *obs.Histogram, q float64) float64 {
	s := h.Snapshot()
	if s.Count == 0 {
		return 0
	}
	return s.Quantile(q) / 1e3
}
