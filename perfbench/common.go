package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"otacache/internal/engine"
	"otacache/internal/features"
	"otacache/internal/trace"
)

// Every workload serves a cache of capFraction of its trace's byte
// footprint, the otacached/otasim default, and the flash store of the
// workloads that attach one uses segmentSize erase blocks with
// overprovision spare capacity.
const (
	capFraction   = 0.15
	segmentSize   = 4 << 20
	overprovision = 1.15
	// clients is the number of load goroutines (and connections).
	clients = 2
	// wallBudget stops starting new rounds once a run has taken this
	// long, keeping every run well inside its time limit.
	wallBudget = 100 * time.Second
)

// inputs is one workload's generated trace and the plain request
// stream the benchmark's own checks work on.
type inputs struct {
	tr       *trace.Trace
	next     []int
	capacity int64
	keys     []uint64
	sizes    []int64
	genDur   time.Duration
	nextDur  time.Duration
}

// generate builds the trace for a seed and scale, timing each step.
func generate(seed uint64, photos int) (*inputs, error) {
	t0 := time.Now()
	tr, err := trace.Generate(trace.DefaultConfig(seed, photos))
	if err != nil {
		return nil, fmt.Errorf("generate trace: %w", err)
	}
	t1 := time.Now()
	next := trace.BuildNextAccess(tr)
	in := &inputs{
		tr:       tr,
		next:     next,
		capacity: int64(capFraction * float64(tr.TotalBytes())),
		genDur:   t1.Sub(t0),
		nextDur:  time.Since(t1),
	}
	in.keys = make([]uint64, len(tr.Requests))
	in.sizes = make([]int64, len(tr.Requests))
	for i, r := range tr.Requests {
		in.keys[i] = uint64(r.Photo)
		in.sizes[i] = tr.Photos[r.Photo].Size
	}
	return in, nil
}

// projectedFeatures extracts every request's feature vector, projected
// onto the paper's selected columns, in stream order.
func projectedFeatures(tr *trace.Trace) [][]float64 {
	cols := features.PaperSelected()
	ex := features.NewExtractor(tr)
	var full [features.NumFeatures]float64
	out := make([][]float64, len(tr.Requests))
	flat := make([]float64, len(tr.Requests)*len(cols))
	for i := range tr.Requests {
		ex.NextInto(i, full[:])
		row := flat[i*len(cols) : (i+1)*len(cols) : (i+1)*len(cols)]
		for j, c := range cols {
			row[j] = full[c]
		}
		out[i] = row
	}
	return out
}

// Every run cycles through subSeeds traces whose seeds derive from the
// run's seed as seed*maxSubSeeds+j. The ratio metrics average one cycle
// of distinct traces: a single trace's write ratio moves by a fifth from
// seed to seed with the trees its classifier happens to train, more than
// any bound that would catch a regression.
const maxSubSeeds = 64

// roundID identifies one round of a run: the sub-seed it replays (and
// the derived trace seed), the cycle it belongs to, and whether it is
// traced.
type roundID struct {
	sub, cycle int
	seed       uint64
	traced     bool
}

// forRounds runs whole cycles of rounds until the measured time the
// rounds report adds up to the run's measured time, or the wall budget
// is spent. A traced run's cycle replays the first sub-seed untraced and
// then every sub-seed traced: the per-layer figures cover the same
// traces as an untraced run, and the tracing overhead compares the two
// replays of the first trace. Each round starts on a collected heap, so
// no round pays for its predecessor's garbage and the peak RSS is that
// of one round.
func forRounds(cfg runConfig, round func(roundID) (time.Duration, error)) error {
	perCycle := cfg.subSeeds
	if cfg.traced {
		perCycle++
	}
	start := time.Now()
	var measured time.Duration
	for i := 0; i < perCycle || (measured < cfg.measure && time.Since(start) < wallBudget); i++ {
		id := roundID{sub: i % perCycle, cycle: i / perCycle}
		if cfg.traced {
			id.traced = id.sub > 0
			id.sub = max(id.sub-1, 0)
		}
		id.seed = cfg.seed*maxSubSeeds + uint64(id.sub)
		runtime.GC()
		d, err := round(id)
		if err != nil {
			return fmt.Errorf("round %d (trace seed %d): %w", i, id.seed, err)
		}
		measured += d
	}
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// nsQuantile is quantile over durations in nanoseconds.
func nsQuantile(ns []int64, q float64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v)
	}
	return quantile(xs, q)
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memDelta accumulates runtime.MemStats differences over measured
// windows.
type memDelta struct {
	bytes, mallocs uint64
	gcs            uint32
	before         runtime.MemStats
}

func (m *memDelta) start() { runtime.ReadMemStats(&m.before) }

func (m *memDelta) stop() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.bytes += after.TotalAlloc - m.before.TotalAlloc
	m.mallocs += after.Mallocs - m.before.Mallocs
	m.gcs += after.NumGC - m.before.NumGC
}

func (m *memDelta) add(o memDelta) {
	m.bytes += o.bytes
	m.mallocs += o.mallocs
	m.gcs += o.gcs
}

// setRatios sets the end-to-end cache ratios from summed counters.
func setRatios(rep *report, m engine.Metrics) {
	rep.set("hit_ratio", m.HitRate())
	rep.set("byte_hit_ratio", m.ByteHitRate())
	rep.set("write_ratio", m.WriteRate())
	rep.set("byte_write_ratio", m.ByteWriteRate())
}
