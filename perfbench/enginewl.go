package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"otacache/internal/engine"
	"otacache/internal/flash"
	"otacache/internal/tier"
)

// engine-original: admit-all (otacached -mode original) over
// engineShards engine shards, each holding an inner cache.Sharded, with
// flash attached, driven in process by `clients` goroutines calling
// engine.Server.Lookup directly. Every miss is a device write, so the
// policy locks, the ring routing and the flash collector do the work and
// HTTP does none. Each round assembles a fresh engine from one trace and
// replays the whole trace once.

const engineShards = 2

// engineRound is what one round measured.
type engineRound struct {
	id              roundID
	setup, measured time.Duration
	layerBuild      time.Duration
	genDur, nextDur time.Duration
	lat             []int64 // per request, ns
	hit             []bool
	m               engine.Metrics
	shardRequests   []int64
	// traced rounds only
	spans    []span
	contains int64
	routeNs  float64
	mem      memDelta
}

func runEngine(cfg runConfig) (*report, error) {
	rep := newReport()
	refs := map[int]*refFigures{}
	var rs []*engineRound
	ft := newFlashTimes()
	innerCaps := int64(engineShards * 2 * runtime.GOMAXPROCS(0))
	err := forRounds(cfg, func(id roundID) (time.Duration, error) {
		r, in, err := engineOnce(id, cfg.photos, ft)
		if err != nil {
			return 0, err
		}
		ref := refs[id.sub]
		if ref == nil {
			ref = newRefFigures(rep, in, in.capacity/innerCaps)
			refs[id.sub] = ref
		}
		ref.checkRound(rep, r.m, r.hit, true)
		rep.expect("admit-all bypasses nothing", r.m.Bypassed == 0, "Bypassed %d", r.m.Bypassed)
		r.hit = nil
		rs = append(rs, r)
		return r.measured, nil
	})
	if err != nil {
		return nil, err
	}
	var primary, plain, traced []*engineRound
	var sum engine.Metrics
	for _, r := range rs {
		rep.attempted += int64(len(r.lat))
		if r.id.cycle == 0 && r.id.traced == cfg.traced {
			primary = append(primary, r)
			sum = sum.Add(r.m)
		}
		switch {
		case !r.id.traced:
			plain = append(plain, r)
		case r.id.sub == 0:
			traced = append(traced, r) // the twin of the untraced first trace
		}
	}
	noteRounds(rep, sum, len(rs), len(primary))
	rep.note("flash_bytes_per_req_byte", frac(sum.FlashHostBytes+sum.FlashGCBytes, sum.TotalBytes), "ratio")
	rep.note("flash_waf", sum.FlashWAF(), "ratio")

	if !cfg.traced {
		var p50, p90, p99, setups []float64
		for _, r := range plain {
			p50 = append(p50, nsQuantile(r.lat, 0.5)/1e3)
			p90 = append(p90, nsQuantile(r.lat, 0.9)/1e3)
			p99 = append(p99, nsQuantile(r.lat, 0.99)/1e3)
			setups = append(setups, r.setup.Seconds())
		}
		rep.set("throughput_rps", engineRate(plain))
		rep.set("latency_p50_us", median(p50))
		rep.set("latency_p90_us", median(p90))
		rep.note("latency_p99_us", median(p99), "us")
		setRatios(rep, sum)
		rep.set("setup_s", median(setups))
		rep.set("peak_rss_mb", peakRSSMiB())
		return rep, nil
	}

	var reqs, contains int64
	var mem memDelta
	var route, load, gen, next, build []float64
	for _, r := range primary {
		reqs += int64(len(r.lat))
		contains += r.contains
		mem.add(r.mem)
		route = append(route, r.routeNs)
		load = append(load, maxOverMean(r.shardRequests))
		gen = append(gen, ms(r.genDur))
		next = append(next, ms(r.nextDur))
		build = append(build, ms(r.layerBuild))
	}
	// No daemon; admit-all predicts nothing and runs no ML pipeline.
	zeroLayers(rep, "server.", "core.onetime", "ml.", "features.", "labeling.", "sim.")
	setEngineLayers(rep, primary[0].spans, sum, len(primary), contains, median(route), median(load), 0)
	setFlashLayers(rep, sum, ft)
	rep.set("trace.generate_ms", median(gen))
	rep.set("trace.next_access_ms", median(next))
	rep.set("tier.build_layer_ms", median(build))
	setRuntimeLayers(rep, mem, reqs)
	rep.set("tracing.overhead_ratio", engineRate(plain)/engineRate(traced))
	return rep, nil
}

// engineRate is the median over rounds of lookups completed per second.
func engineRate(rs []*engineRound) float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, float64(len(r.lat))/r.measured.Seconds())
	}
	return median(xs)
}

// engineSpanMask samples one request in eight into the span recorder:
// this workload runs about a million lookups per second.
const engineSpanMask = 7

// engineOnce assembles the engine from the round's trace, replays the
// trace through Lookup from `clients` goroutines and returns what the
// round measured, with its inputs.
func engineOnce(id roundID, photos int, ft *flashTimes) (*engineRound, *inputs, error) {
	r := &engineRound{id: id}
	start := time.Now()
	in, err := generate(id.seed, photos)
	if err != nil {
		return nil, nil, err
	}
	r.genDur, r.nextDur = in.genDur, in.nextDur
	bstart := time.Now()
	layer, err := tier.BuildLayer(in.tr, in.next, tier.Config{Seed: id.seed}, tier.LayerConfig{
		Policy:       "lru",
		CacheBytes:   in.capacity,
		Filter:       tier.AdmitAll,
		Shards:       2 * runtime.GOMAXPROCS(0),
		EngineShards: engineShards,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("build layer: %w", err)
	}
	r.layerBuild = time.Since(bstart)
	eng := layer.Server
	var rec *recorder
	if id.traced {
		rec = newRecorder(5*len(in.keys)/(engineSpanMask+1)+1024, engineSpanMask)
		if eng, err = rewrap(eng, rec, id.seed, nil); err != nil {
			return nil, nil, err
		}
	}
	if err := engine.AttachFlashOpts(eng, engine.FlashOptions{SegmentSize: segmentSize, Overprovision: overprovision}); err != nil {
		return nil, nil, err
	}
	var observers []*flash.Observer
	served := eng
	if id.traced {
		observers = observeFlash(eng)
		served = tracedServer{Server: eng, rec: rec}
	}
	r.setup = time.Since(start)
	runtime.GC() // the measured window starts on a collected heap

	n := len(in.keys)
	r.lat = make([]int64, n)
	r.hit = make([]bool, n)
	var cursor atomic.Int64
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
				tick := served.NextTick()
				t0 := time.Now()
				out := served.Lookup(in.keys[j], in.sizes[j], tick, nil)
				r.lat[j] = int64(time.Since(t0))
				r.hit[j] = out.Hit
			}
		}()
	}
	wg.Wait()
	r.measured = time.Since(mstart)
	if id.traced {
		r.mem.stop()
	}
	r.m = eng.Snapshot()
	for _, sh := range eng.Shards() {
		r.shardRequests = append(r.shardRequests, sh.Snapshot().Requests)
	}
	if id.traced {
		ft.collect(observers)
		if id.sub == 0 { // the span figures come from the first trace only
			r.spans = append([]span(nil), rec.recorded()...)
		}
		r.contains = rec.contains.Load()
		r.routeNs = probeRoute(eng, in.keys)
	}
	return r, in, nil
}
