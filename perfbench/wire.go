package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"otacache/internal/core"
	"otacache/internal/engine"
	"otacache/internal/features"
	"otacache/internal/flash"
	"otacache/internal/server"
	"otacache/internal/tier"
)

// wire-proposal: the daemon as `otacached -mode proposal` assembles it —
// CART admission behind the circuit breaker, the history table, the
// /metrics instruments, a live retrainer on the request path (its daily
// loop is not started; the replay requests a retrain at each trace day's
// 05:00 instead) — over a flash store, served on a loopback listener and
// replayed by a closed loop of `clients` connections. Each round
// assembles a fresh daemon from one trace and replays the whole trace
// once.

// wireRound is what one round measured.
type wireRound struct {
	id              roundID
	setup, measured time.Duration
	layerBuild      time.Duration
	genDur, nextDur time.Duration
	extractNs       float64
	rtt             []int64 // per request, ns
	hit, oneTime    []bool  // per request: client-seen hit and one-time prediction
	failed          int64   // lookups and retrains that failed
	retrains        int64
	m               engine.Metrics
	q               quality
	shardRequests   []int64
	tableLen        int
	// traced rounds only
	spans              []span
	contains           int64
	wireBytes, conns   int64
	observeNs, routeNs float64
	mem                memDelta
}

func runWire(cfg runConfig) (*report, error) {
	rep := newReport()
	refs := map[int]*refFigures{}
	var rs []*wireRound
	var ml *mlFigures
	ft := newFlashTimes()
	err := forRounds(cfg, func(id roundID) (time.Duration, error) {
		r, in, m, err := wireOnce(id, cfg.photos, ft)
		if err != nil {
			return 0, err
		}
		ref := refs[id.sub]
		if ref == nil {
			ref = newRefFigures(rep, in, in.capacity/int64(2*runtime.GOMAXPROCS(0)))
			ref.oneTime = refOneTime(ref.next, m)
			refs[id.sub] = ref
		}
		if id.traced && ml == nil {
			if ml, err = probeML(in); err != nil {
				return 0, err
			}
		}
		ref.checkRound(rep, r.m, r.hit, true)
		r.q = ref.score(r.hit, r.oneTime)
		ref.checkAdmission(rep, r.m, r.q)
		rep.expect("client hits equal server Hits", int64(count(r.hit)) == r.m.Hits,
			"client saw %d hits, server counted %d", count(r.hit), r.m.Hits)
		r.hit, r.oneTime = nil, nil // checked and scored; only counts are kept
		rs = append(rs, r)
		return r.measured, nil
	})
	if err != nil {
		return nil, err
	}
	var primary []*wireRound // the first cycle, in the run's mode
	var sum engine.Metrics
	var q quality
	for _, r := range rs {
		rep.attempted += int64(len(r.rtt)) + r.retrains
		rep.failed += r.failed
		if r.id.cycle == 0 && r.id.traced == cfg.traced {
			primary = append(primary, r)
			sum = sum.Add(r.m)
			q = q.add(r.q)
		}
	}
	noteRounds(rep, sum, len(rs), len(primary))
	noteQuality(rep, q)
	rep.note("flash_bytes_per_req_byte", frac(sum.FlashHostBytes+sum.FlashGCBytes, sum.TotalBytes), "ratio")

	var plain []*wireRound
	for _, r := range rs {
		if !r.id.traced {
			plain = append(plain, r)
		}
	}
	if !cfg.traced {
		var p50, p90, p99, setups []float64
		for _, r := range plain {
			p50 = append(p50, nsQuantile(r.rtt, 0.5)/1e3)
			p90 = append(p90, nsQuantile(r.rtt, 0.9)/1e3)
			p99 = append(p99, nsQuantile(r.rtt, 0.99)/1e3)
			setups = append(setups, r.setup.Seconds())
		}
		rep.set("throughput_rps", wireRate(plain))
		rep.set("latency_p50_us", median(p50))
		rep.set("latency_p90_us", median(p90))
		rep.note("latency_p99_us", median(p99), "us")
		setRatios(rep, sum)
		rep.set("setup_s", median(setups))
		rep.set("peak_rss_mb", peakRSSMiB())
		return rep, nil
	}

	// Traced: per-layer figures from the first cycle's traced rounds.
	var reqs, contains, wireBytes, conns, retrains int64
	var mem memDelta
	var observe, route, extract, gen, next, build, load []float64
	tableLen := 0
	for _, r := range primary {
		reqs += int64(len(r.rtt))
		contains += r.contains
		wireBytes += r.wireBytes
		conns += r.conns
		retrains += r.retrains
		mem.add(r.mem)
		observe = append(observe, r.observeNs)
		route = append(route, r.routeNs)
		extract = append(extract, r.extractNs)
		gen = append(gen, ms(r.genDur))
		next = append(next, ms(r.nextDur))
		build = append(build, ms(r.layerBuild))
		load = append(load, maxOverMean(r.shardRequests))
		tableLen += r.tableLen
	}
	n := float64(len(primary))
	spans := primary[0].spans
	rep.set("server.handler_us_p50", nsQuantile(durations(spans, spanHandler), 0.5)/1e3)
	rep.set("server.handler_us_p90", nsQuantile(durations(spans, spanHandler), 0.9)/1e3)
	rep.set("server.self_us_p50", nsQuantile(selfTimes(spans, spanHandler, spanLookup), 0.5)/1e3)
	rep.set("server.transport_us_p50", nsQuantile(selfTimes(spans, spanClient, spanHandler), 0.5)/1e3)
	rep.set("server.wire_bytes_per_req", float64(wireBytes)/float64(reqs))
	rep.set("server.conns_accepted", float64(conns)/n)
	rep.set("server.observe_ns_p50", median(observe))
	setEngineLayers(rep, spans, sum, len(primary), contains, median(route), median(load), float64(tableLen)/n)
	rep.set("core.onetime_precision", q.precision())
	rep.set("core.onetime_recall", q.recall())
	setFlashLayers(rep, sum, ft)
	ml.set(rep, 1+float64(retrains)/n)
	rep.set("features.extract_ns", median(extract))
	rep.set("labeling.solve_ms", ml.solveMs)
	rep.set("trace.generate_ms", median(gen))
	rep.set("trace.next_access_ms", median(next))
	rep.set("tier.build_layer_ms", median(build))
	zeroLayers(rep, "sim.")
	setRuntimeLayers(rep, mem, reqs)
	var firstTraced []*wireRound
	for _, r := range rs {
		if r.id.traced && r.id.sub == 0 {
			firstTraced = append(firstTraced, r)
		}
	}
	rep.set("tracing.overhead_ratio", wireRate(plain)/wireRate(firstTraced))
	return rep, nil
}

// wireRate is the median over rounds of requests completed per second.
func wireRate(rs []*wireRound) float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, float64(len(r.rtt))/r.measured.Seconds())
	}
	return median(xs)
}

// wireOnce assembles a daemon from the round's trace, replays the trace
// against it over loopback and tears it down. It also returns the inputs
// and the solved criteria's M.
func wireOnce(id roundID, photos int, ft *flashTimes) (r *wireRound, in *inputs, m int, err error) {
	r = &wireRound{id: id}
	start := time.Now()
	if in, err = generate(id.seed, photos); err != nil {
		return nil, nil, 0, err
	}
	r.genDur, r.nextDur = in.genDur, in.nextDur
	fstart := time.Now()
	feats := projectedFeatures(in.tr)
	r.extractNs = float64(time.Since(fstart).Nanoseconds()) / float64(len(feats))
	bstart := time.Now()
	layer, err := tier.BuildLayer(in.tr, in.next, tier.Config{SamplesPerMinute: 100, Seed: id.seed}, tier.LayerConfig{
		Policy:     "lru",
		CacheBytes: in.capacity,
		Filter:     tier.Classifier,
		Shards:     2 * runtime.GOMAXPROCS(0), // otacached's -shards default
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("build layer: %w", err)
	}
	r.layerBuild = time.Since(bstart)

	var rec *recorder
	if id.traced {
		rec = newRecorder(8*len(in.keys), 0)
	}
	// otacached's breaker defaults: admit-all fallback, 3 failures,
	// 1 s cooldown, no latency budget.
	eng, err := rewrap(layer.Server, rec, id.seed, func(f core.Filter) (core.Filter, error) {
		return engine.NewBreaker(f, engine.BreakerConfig{FailureThreshold: 3, Cooldown: time.Second})
	})
	if err != nil {
		return nil, nil, 0, err
	}
	if err := engine.AttachFlashOpts(eng, engine.FlashOptions{SegmentSize: segmentSize, Overprovision: overprovision}); err != nil {
		return nil, nil, 0, err
	}
	var observers []*flash.Observer
	served := eng
	if id.traced {
		observers = observeFlash(eng)
		served = tracedServer{Server: eng, rec: rec}
	}
	adms := server.Admissions(eng)
	srv := server.New(served, server.Config{RequestTimeout: 5 * time.Second, NumFeatures: len(features.PaperSelected())})
	// The replay compresses the trace's days into seconds, so the
	// sampling budget (per wall-clock minute) is lifted to sample every
	// request, as 100 per trace minute would at this trace's rate.
	rtCfg := server.RetrainerConfig{M: layer.Criteria.M, CostV: core.CostV(in.capacity), SamplesPerMinute: 1 << 30}
	srv.AttachRetrainer(server.NewRetrainer(adms, rtCfg))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, 0, err
	}
	cl := &countingListener{Listener: ln}
	done := make(chan error, 1)
	var hs *http.Server
	if id.traced {
		hs = &http.Server{Handler: tracedHandler{h: srv.Handler(), rec: rec}, ReadHeaderTimeout: 5 * time.Second}
		go func() { done <- hs.Serve(cl) }()
	} else {
		go func() { done <- srv.Serve(ln) }()
	}
	client := server.NewClient("http://"+ln.Addr().String(), clients)
	client.SetRetry(server.RetryConfig{MaxAttempts: 1})
	r.setup = time.Since(start)
	runtime.GC() // the measured window starts on a collected heap

	// Retraining happens where the trace crosses 05:00 of each day after
	// the first (otacached's default hour), requested over the admin
	// endpoint by whichever connection draws that request.
	retrainAt := make([]bool, len(in.keys))
	for j, next := 0, int64(86400+5*3600); j < len(in.keys); j++ {
		if in.tr.Requests[j].Time >= next {
			retrainAt[j] = true
			next += 86400
		}
	}
	n := len(in.keys)
	r.rtt = make([]int64, n)
	r.hit = make([]bool, n)
	r.oneTime = make([]bool, n)
	var cursor, failed, retrains atomic.Int64
	var wg sync.WaitGroup
	if id.traced {
		r.mem.start()
	}
	mstart := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(cursor.Add(1) - 1)
				if j >= n {
					return
				}
				if retrainAt[j] {
					retrains.Add(1)
					if res, err := client.Retrain(); err != nil || !res.Retrained {
						failed.Add(1)
					}
				}
				var cs int64
				if rec != nil {
					cs = rec.now()
				}
				t0 := time.Now()
				res, err := client.Lookup(in.keys[j], in.sizes[j], feats[j])
				r.rtt[j] = int64(time.Since(t0))
				if rec != nil {
					rec.add(spanClient, in.keys[j], cs, rec.now())
				}
				if err != nil {
					failed.Add(1)
					continue
				}
				r.hit[j], r.oneTime[j] = res.Hit, res.PredictedOneTime
			}
		}()
	}
	wg.Wait()
	r.measured = time.Since(mstart)
	if id.traced {
		r.mem.stop()
	}
	r.failed, r.retrains = failed.Load(), retrains.Load()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if id.traced {
		err = hs.Shutdown(ctx)
	} else {
		err = srv.Shutdown(ctx)
	}
	if serr := <-done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("shut down daemon: %w", err)
	}

	r.m = eng.Snapshot()
	for _, sh := range eng.Shards() {
		r.shardRequests = append(r.shardRequests, sh.Snapshot().Requests)
	}
	for _, a := range adms {
		if t := a.Table(); t != nil {
			r.tableLen += t.Len()
		}
	}
	if id.traced {
		ft.collect(observers)
		if id.sub == 0 { // the span figures come from the first trace only
			r.spans = append([]span(nil), rec.recorded()...)
		}
		r.contains = rec.contains.Load()
		r.wireBytes, r.conns = cl.bytes.Load(), cl.accepted.Load()
		r.observeNs = probeObserve(adms, rtCfg, in.keys, feats)
		r.routeNs = probeRoute(eng, in.keys)
	}
	return r, in, layer.Criteria.M, nil
}

// probeObserve replays the round's (key, tick, features) stream into a
// fresh retrainer and returns the median Observe time in nanoseconds.
func probeObserve(adms []*core.ClassifierAdmission, cfg server.RetrainerConfig, keys []uint64, feats [][]float64) float64 {
	rt := server.NewRetrainer(adms, cfg)
	ns := make([]int64, len(keys))
	for i, k := range keys {
		t0 := time.Now()
		rt.Observe(k, i, feats[i])
		ns[i] = int64(time.Since(t0))
	}
	return nsQuantile(ns, 0.5)
}

// probeRoute times ShardFor over the round's keys, in nanoseconds per call.
func probeRoute(eng engine.Server, keys []uint64) float64 {
	t0 := time.Now()
	sink := 0
	for _, k := range keys {
		sink += eng.ShardFor(k)
	}
	d := time.Since(t0)
	routeSink += sink
	return float64(d.Nanoseconds()) / float64(len(keys))
}

// routeSink keeps probeRoute's calls from being optimised away.
var routeSink int

func count(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func maxOverMean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, mx int64
	for _, x := range xs {
		sum += x
		mx = max(mx, x)
	}
	return frac(mx*int64(len(xs)), sum)
}
