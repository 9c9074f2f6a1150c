package main

import (
	"fmt"
	"runtime"
	"time"

	"otacache/internal/cache"
	"otacache/internal/core"
	"otacache/internal/engine"
	"otacache/internal/labeling"
	"otacache/internal/mlcore"
	"otacache/internal/sim"
)

// sim-proposal: the paper's trace-driven experiment as otasim runs it:
// sim.Runner.Run over LRU in proposal mode with daily retraining, single
// threaded. Each round generates one trace, builds the runner (set-up)
// and times one Run; every count repeats exactly whenever a trace is
// replayed again. A round's "request latency" is the Run's wall time
// divided by the trace's requests.

// simRound is what one round measured.
type simRound struct {
	id              roundID
	setup, measured time.Duration
	genDur, nextDur time.Duration
	res             *sim.Result
	m               engine.Metrics
	q               quality
	mem             memDelta
}

func runSim(cfg runConfig) (*report, error) {
	rep := newReport()
	refs := map[int]*refFigures{}
	firsts := map[int]*simRound{}
	var rs []*simRound
	var probe *simProbe
	err := forRounds(cfg, func(id roundID) (time.Duration, error) {
		r, in, runner, err := simOnce(id, cfg.photos)
		if err != nil {
			return 0, err
		}
		ref := refs[id.sub]
		if ref == nil {
			ref = newRefFigures(rep, in, in.capacity)
			refs[id.sub] = ref
			want := refOneTime(ref.next, r.res.Criteria.M)
			got := labeling.Labels(runner.NextAccess(), r.res.Criteria)
			agree := len(got) == len(want)
			for j := 0; agree && j < len(got); j++ {
				agree = (got[j] == mlcore.Positive) == want[j]
			}
			rep.expect("one-time labels match reference scan", agree, "M=%d", r.res.Criteria.M)
		}
		ref.checkRound(rep, r.m, nil, false)
		ref.checkAdmission(rep, r.m, r.q)
		if first := firsts[id.sub]; first == nil {
			firsts[id.sub] = r
		} else {
			rep.expect("every replay of a trace repeats its first exactly", first.m == r.m && first.q == r.q,
				"trace seed %d: %d vs %d hits, %d vs %d writes", id.seed, r.m.Hits, first.m.Hits, r.m.Writes, first.m.Writes)
		}
		if id.traced && probe == nil {
			if probe, err = probeSim(in, r.res.Criteria); err != nil {
				return 0, err
			}
			probe.runMs = ms(r.measured)
		}
		rs = append(rs, r)
		return r.measured, nil
	})
	if err != nil {
		return nil, err
	}
	var primary, plain, traced []*simRound
	var sum engine.Metrics
	var q quality
	for _, r := range rs {
		rep.attempted += int64(r.res.Requests)
		if r.id.cycle == 0 && r.id.traced == cfg.traced {
			primary = append(primary, r)
			sum = sum.Add(r.m)
			q = q.add(r.q)
		}
		switch {
		case !r.id.traced:
			plain = append(plain, r)
		case r.id.sub == 0:
			traced = append(traced, r) // the twin of the untraced first trace
		}
	}
	noteRounds(rep, sum, len(rs), len(primary))
	noteQuality(rep, q)
	rep.note("retrainings_per_round", float64(retrainings(primary))/float64(len(primary)), "count")

	if !cfg.traced {
		var per, setups []float64
		for _, r := range plain {
			per = append(per, r.measured.Seconds()*1e6/float64(r.res.Requests))
			setups = append(setups, r.setup.Seconds())
		}
		rep.set("throughput_rps", simRate(plain))
		rep.set("latency_p50_us", quantile(per, 0.5))
		rep.set("latency_p90_us", quantile(per, 0.9))
		setRatios(rep, sum)
		rep.set("setup_s", median(setups))
		rep.set("peak_rss_mb", peakRSSMiB())
		return rep, nil
	}

	var reqs int64
	var mem memDelta
	var gen, next []float64
	for _, r := range primary {
		reqs += int64(r.res.Requests)
		mem.add(r.mem)
		gen = append(gen, ms(r.genDur))
		next = append(next, ms(r.nextDur))
	}
	n := float64(len(primary))
	zeroLayers(rep, "server.", "flash.", "tier.") // no daemon, no flash store, no tier assembly
	setEngineLayers(rep, probe.spans, sum, len(primary), 0, 0, 0, float64(probe.tableLen))
	rep.set("cache.contains_per_write", frac(probe.contains, probe.writes))
	rep.set("core.onetime_precision", q.precision())
	rep.set("core.onetime_recall", q.recall())
	probe.ml.set(rep, 1+float64(retrainings(primary))/n)
	rep.set("features.extract_ns", probe.ml.extractMs*1e6/float64(len(probe.ml.feats)))
	rep.set("labeling.solve_ms", probe.ml.solveMs)
	rep.set("trace.generate_ms", median(gen))
	rep.set("trace.next_access_ms", median(next))
	rep.set("sim.unattributed_ms", probe.unattributedMs())
	setRuntimeLayers(rep, mem, reqs)
	rep.set("tracing.overhead_ratio", simRate(plain)/simRate(traced))
	return rep, nil
}

func retrainings(rs []*simRound) int {
	n := 0
	for _, r := range rs {
		n += r.res.Retrainings
	}
	return n
}

// simRate is the median over rounds of simulated requests per second of
// Runner.Run.
func simRate(rs []*simRound) float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, float64(r.res.Requests)/r.measured.Seconds())
	}
	return median(xs)
}

// simOnce generates the round's trace, builds the runner and times one
// proposal-mode Run, configured as otasim configures it.
func simOnce(id roundID, photos int) (*simRound, *inputs, *sim.Runner, error) {
	r := &simRound{id: id}
	start := time.Now()
	in, err := generate(id.seed, photos)
	if err != nil {
		return nil, nil, nil, err
	}
	r.genDur, r.nextDur = in.genDur, in.nextDur
	runner := sim.NewRunner(in.tr)
	r.setup = time.Since(start)
	runtime.GC() // the measured window starts on a collected heap
	if id.traced {
		r.mem.start()
	}
	mstart := time.Now()
	res, err := runner.Run(sim.Config{Policy: "lru", CacheBytes: in.capacity, Mode: sim.ModeProposal, Seed: id.seed})
	r.measured = time.Since(mstart)
	if id.traced {
		r.mem.stop()
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("run: %w", err)
	}
	r.res = res
	r.m = engine.Metrics{
		Requests:   int64(res.Requests),
		Hits:       res.FileHits,
		HitBytes:   res.ByteHits,
		Misses:     int64(res.Quality.Overall.Total()), // every miss is scored
		Writes:     res.FileWrites,
		WriteBytes: res.ByteWrites,
		Bypassed:   res.Bypassed,
		Rectified:  res.Rectified,
		TotalBytes: res.TotalBytes,
	}
	c := res.Quality.Overall
	r.q = quality{tp: int64(c.TP), fp: int64(c.FP), fn: int64(c.FN), misses: int64(c.Total())}
	return r, in, runner, nil
}

// simProbe is the decomposition of one Run: Runner.Run is a single
// call, so its parts are timed by calling the same public functions on
// the same inputs — the ML probe, and a replay of the trace through an
// engine assembled as the runner assembles it (LRU, classifier admission
// with the bootstrap tree and a history table), once plain for the
// attributed time and once under the span decorators.
type simProbe struct {
	ml       *mlFigures
	runMs    float64 // the traced round's Run on the probed trace
	replayMs float64
	spans    []span
	contains int64
	writes   int64
	tableLen int
}

// unattributedMs is the Run time the probed parts do not account for:
// sample offering, scoring and the loop around them.
func (p *simProbe) unattributedMs() float64 {
	daily := 0.0
	for _, t := range p.ml.trainMs[1:] {
		daily += t
	}
	return p.runMs - (p.ml.solveMs + p.ml.extractMs + p.ml.bootMs + daily + p.replayMs)
}

func probeSim(in *inputs, crit labeling.Criteria) (*simProbe, error) {
	ml, err := probeML(in)
	if err != nil {
		return nil, err
	}
	p := &simProbe{ml: ml}
	rec := newRecorder(5*len(in.keys)+1024, 0)
	for _, traced := range []bool{false, true} {
		pol, err := cache.New("lru", in.capacity, in.next)
		if err != nil {
			return nil, err
		}
		table := core.NewHistoryTable(core.TableCapacity(crit))
		var filter core.Filter
		if filter, err = core.NewClassifierAdmission(ml.bootTree, table, crit); err != nil {
			return nil, err
		}
		if traced {
			pol = tracedPolicy{Policy: pol, rec: rec}
			filter = tracedFilter{Filter: filter, rec: rec}
		}
		eng, err := engine.New(pol, filter)
		if err != nil {
			return nil, err
		}
		var srv engine.Server = eng
		if traced {
			srv = tracedServer{Server: eng, rec: rec}
		}
		t0 := time.Now()
		for i, k := range in.keys {
			srv.Lookup(k, in.sizes[i], i, ml.feats[i])
		}
		if !traced {
			p.replayMs = ms(time.Since(t0))
			continue
		}
		p.spans = rec.recorded()
		p.contains = rec.contains.Load()
		p.writes = eng.Snapshot().Writes
		p.tableLen = table.Len()
	}
	return p, nil
}
