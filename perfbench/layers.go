package main

import (
	"fmt"
	"strings"
	"time"

	"otacache/internal/core"
	"otacache/internal/engine"
	"otacache/internal/features"
	"otacache/internal/labeling"
	"otacache/internal/mlcore"
)

// setEngineLayers sets the engine, cluster, cache and core figures of a
// traced run from its spans and the counters summed over its traced
// rounds; the engine counts are per round. contains is the number of
// Contains calls the policies served; routeNs and load are the cluster
// probe's ShardFor time and the busiest shard's request count over the
// mean.
func setEngineLayers(rep *report, spans []span, m engine.Metrics, rounds int, contains int64, routeNs, load, tableLen float64) {
	lookup := durations(spans, spanLookup)
	decide := durations(spans, spanDecide)
	rep.set("engine.lookup_ns_p50", nsQuantile(lookup, 0.5))
	rep.set("engine.lookup_ns_p99", nsQuantile(lookup, 0.99))
	per := func(n int64) float64 { return float64(n) / float64(rounds) }
	rep.set("engine.hits", per(m.Hits))
	rep.set("engine.misses", per(m.Misses))
	rep.set("engine.writes", per(m.Writes))
	rep.set("engine.bypassed", per(m.Bypassed))
	rep.set("engine.rectified", per(m.Rectified))
	rep.set("engine.degraded", per(m.Degraded))
	rep.set("cluster.route_ns", routeNs)
	rep.set("cluster.shard_load_max_over_mean", load)
	rep.set("cache.get_ns_p50", nsQuantile(durations(spans, spanGet), 0.5))
	rep.set("cache.admit_ns_p50", nsQuantile(durations(spans, spanAdmit), 0.5))
	rep.set("cache.contains_per_write", frac(contains, m.Writes))
	rep.set("core.decide_ns_p50", nsQuantile(decide, 0.5))
	rep.set("core.decide_ns_p99", nsQuantile(decide, 0.99))
	rep.set("core.bypass_per_miss", frac(m.Bypassed, m.Misses))
	rep.set("core.rectified_per_miss", frac(m.Rectified, m.Misses))
	rep.set("core.history_table_len", tableLen)
}

// noteRounds prints the round counts and the engine counts per round of
// the first cycle (summed in m over primary rounds), which a traced
// run's engine.* figures are compared against.
func noteRounds(rep *report, m engine.Metrics, rounds, primary int) {
	rep.note("rounds", float64(rounds), "count")
	for _, c := range []struct {
		name string
		n    int64
	}{{"hits", m.Hits}, {"misses", m.Misses}, {"writes", m.Writes}, {"bypassed", m.Bypassed}, {"rectified", m.Rectified}} {
		rep.note(c.name+"_per_round", float64(c.n)/float64(primary), "count")
	}
}

// noteQuality prints the one-time prediction quality.
func noteQuality(rep *report, q quality) {
	rep.note("onetime_precision", q.precision(), "ratio")
	rep.note("onetime_recall", q.recall(), "ratio")
	rep.note("onetime_share_of_misses", q.base(), "ratio")
}

// setFlashLayers sets the flash figures from summed counters and the
// attached observers' histograms.
func setFlashLayers(rep *report, m engine.Metrics, ft *flashTimes) {
	rep.set("flash.waf", m.FlashWAF())
	rep.set("flash.erases_per_gib_host", float64(m.FlashErases)/(float64(m.FlashHostBytes)/(1<<30)))
	rep.set("flash.bytes_per_req_byte", frac(m.FlashHostBytes+m.FlashGCBytes, m.TotalBytes))
	rep.set("flash.gc_us_p50", usQuantile(ft.gc, 0.5))
	rep.set("flash.gc_us_p99", usQuantile(ft.gc, 0.99))
	rep.set("flash.program_us_p99", usQuantile(ft.program, 0.99))
	rep.set("flash.read_us_p50", usQuantile(ft.read, 0.5))
}

// setRuntimeLayers sets the allocation figures of reqs requests.
func setRuntimeLayers(rep *report, mem memDelta, reqs int64) {
	rep.set("runtime.alloc_bytes_per_req", float64(mem.bytes)/float64(reqs))
	rep.set("runtime.allocs_per_req", float64(mem.mallocs)/float64(reqs))
	rep.set("runtime.gc_cycles", float64(mem.gcs))
}

// zeroLayers sets to 0 the per-layer figures whose names start with one
// of the prefixes: the layers a workload does not run.
func zeroLayers(rep *report, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.Name, p) {
				rep.set(d.Name, 0)
			}
		}
	}
}

// mlFigures is the ML probe: the program's criteria solve, feature
// extraction and tree training, called through their public functions
// on one trace the way the simulator calls them.
type mlFigures struct {
	feats     [][]float64
	solveMs   float64
	extractMs float64 // the whole trace
	bootMs    float64 // the bootstrap's first-day extraction and training
	trainMs   []float64
	predictNs float64
	tree      mlcore.Classifier // the last tree trained
	bootTree  mlcore.Classifier // the day-0 bootstrap tree
}

// probeML times, on in's trace: the criteria solve (hit-rate estimate
// included), feature extraction, one core.TrainTree per daily sample set
// (the bootstrap on day 0, then one per day at the default 05:00
// retraining hour, 100 samples per minute) and prediction.
func probeML(in *inputs) (*mlFigures, error) {
	f := &mlFigures{}
	t0 := time.Now()
	h := labeling.EstimateHitRate(in.tr, in.capacity, 0)
	crit := labeling.Solve(in.tr, in.next, in.capacity, h, 3)
	f.solveMs = ms(time.Since(t0))
	labels := labeling.Labels(in.next, crit)

	t0 = time.Now()
	f.feats = projectedFeatures(in.tr)
	f.extractMs = ms(time.Since(t0))

	v := core.CostV(in.capacity)
	reqs := in.tr.Requests
	train := func(d *mlcore.Dataset) error {
		t := time.Now()
		tree, err := core.TrainTree(d, v)
		if err != nil {
			return fmt.Errorf("train tree on %d samples: %w", d.Len(), err)
		}
		f.trainMs = append(f.trainMs, ms(time.Since(t)))
		f.tree = tree
		return nil
	}

	t0 = time.Now()
	boot := core.NewSampleBuffer(100, 24*3600)
	limit := min(int64(86400), in.tr.Horizon)
	ex := features.NewExtractor(in.tr)
	cols := features.PaperSelected()
	var full [features.NumFeatures]float64
	row := make([]float64, len(cols))
	for i := 0; i < len(reqs) && reqs[i].Time < limit; i++ {
		ex.NextInto(i, full[:])
		for j, c := range cols {
			row[j] = full[c]
		}
		boot.Offer(reqs[i].Time, row, labels[i])
	}
	if err := train(boot.Dataset(limit, nil)); err != nil {
		return nil, err
	}
	f.bootMs = ms(time.Since(t0))
	f.bootTree = f.tree

	daily := core.NewSampleBuffer(100, 24*3600)
	nextRetrain := int64(86400 + 5*3600)
	for i := range reqs {
		daily.Offer(reqs[i].Time, f.feats[i], labels[i])
		if reqs[i].Time >= nextRetrain {
			if d := daily.Dataset(reqs[i].Time, nil); d.Len() >= 100 {
				if err := train(d); err != nil {
					return nil, err
				}
			}
			nextRetrain += 86400
		}
	}

	t0 = time.Now()
	pos := 0
	for _, x := range f.feats {
		if f.tree.Predict(x) == mlcore.Positive {
			pos++
		}
	}
	f.predictNs = float64(time.Since(t0).Nanoseconds()) / float64(len(f.feats))
	predictSink += pos
	return f, nil
}

// predictSink keeps probeML's predictions from being optimised away.
var predictSink int

// set records the ML figures; trainings is the number of trees the
// workload itself trains.
func (f *mlFigures) set(rep *report, trainings float64) {
	rep.set("ml.train_ms_p50", median(append([]float64(nil), f.trainMs...)))
	rep.set("ml.trainings", trainings)
	rep.set("ml.predict_ns", f.predictNs)
}
