package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"streamline/internal/cache"
	"streamline/internal/serve"
	"streamline/internal/sim"
	"streamline/internal/workloads"
)

// simSpec is one request of the sim workload, named for the per-layer
// metrics.
type simSpec struct {
	name string
	spec serve.Spec
}

// simSpecs are four streamsim-shaped runs at a quarter of streamsim's
// default budget, so one pass over all four takes under a second and a run
// takes the median of many passes:
//   - base-lbm17: stride only, no temporal prefetcher; write-heavy
//     streaming, so writebacks and DRAM writes are exercised;
//   - streamline-sphinx06: a high-coverage pointer chase;
//   - triangel-mcf06: scans that pollute the metadata;
//   - streamline-pr-4c: four cores sharing the LLC and DRAM, so the
//     scheduler is exercised.
//
// Only the trace seeds come from the benchmark seed.
func simSpecs(seed int64) []simSpec {
	specs := []simSpec{
		{"base-lbm17", serve.Spec{Workload: "lbm17", L1: "stride", Temporal: "none"}},
		{"streamline-sphinx06", serve.Spec{Workload: "sphinx06", L1: "stride", Temporal: "streamline"}},
		{"triangel-mcf06", serve.Spec{Workload: "mcf06", L1: "stride", Temporal: "triangel"}},
		{"streamline-pr-4c", serve.Spec{Workload: "pr", L1: "stride", Temporal: "streamline", Cores: 4}},
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range specs {
		specs[i].spec.Warmup = serve.DefaultWarmup / 4
		specs[i].spec.Measure = serve.DefaultMeasure / 4
		specs[i].spec.Seed = 1 + rng.Int63n(1<<30)
		if err := specs[i].spec.Normalize(); err != nil {
			panic(err) // the specs above are constants
		}
	}
	return specs
}

// buildSystem is the streamsim path up to the run: Config and NewSystem.
// With a tracer, the interface-called layers are wrapped and every core's
// trace is replaced by a traced one built the way NewSystem builds it.
func buildSystem(sp serve.Spec, t *tracer) (*sim.System, error) {
	cfg, err := sp.Config()
	if err != nil {
		return nil, err
	}
	if t != nil {
		cfg = t.instrument(cfg)
	}
	sys, err := sp.NewSystem(cfg)
	if err != nil || t == nil {
		return sys, err
	}
	w, err := workloads.Get(sp.Workload)
	if err != nil {
		return nil, err
	}
	for c := 0; c < sp.Cores; c++ {
		tr := w.NewTrace(workloads.Scale{Footprint: sp.Footprint}, sp.Seed+int64(c))
		sys.SetTrace(c, &tracedTrace{inner: tr, t: t})
	}
	return sys, nil
}

// resultJSON is the document `streamsim -json` prints for a run.
func resultJSON(sp serve.Spec, res sim.Result) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(serve.BuildResult(sp, res)); err != nil {
		panic(err) // a Result holds only numbers and strings
	}
	return b.Bytes()
}

// simSetup builds every Spec's system.
func simSetup(specs []simSpec) ([]*sim.System, error) {
	systems := make([]*sim.System, len(specs))
	for i, s := range specs {
		sys, err := buildSystem(s.spec, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		systems[i] = sys
	}
	return systems, nil
}

// runSim is the sim workload's end-to-end measurement: set up the four
// systems, run them back to back, repeat until the time is up.
func runSim(b *bench) error {
	specs := simSpecs(b.seed)
	var passes []*passClock
	for iter := 0; iter < minIters || b.more(); iter++ {
		pc := newPassClock(1)
		systems, err := simSetup(specs)
		if err != nil {
			return err
		}
		pc.lap(setupPart)
		results := make([]sim.Result, len(systems))
		for i, sys := range systems {
			results[i] = sys.Run()
			pc.lap(timedPart)
		}
		passes = append(passes, pc)
		for i, s := range specs {
			b.check.digest("sim/"+s.name, resultJSON(s.spec, results[i]))
		}
	}
	b.endToEnd(passes)
	return nil
}

// simLayers is one traced run of a Spec: its wall time split into layer
// self times, timer cost and residual, all in ns.
type simLayers struct {
	records   uint64
	tracedNs  float64 // traced run wall
	nextNs    float64 // self times, timer cost removed
	l1Ns      float64
	l2Ns      float64
	temporal  float64
	metaNs    float64
	timerNs   float64 // what the wrappers themselves cost
	residual  float64 // the hierarchy: everything not in a wrapped layer
	t         tracer
	resultDoc []byte
}

// runTraced runs one Spec with every interface-called layer wrapped and
// splits its wall time into layer self times, timer cost and residual.
// inSpan and total are timerCost's figures.
func runTraced(sp serve.Spec, inSpan, total float64) (simLayers, error) {
	t := &tracer{}
	sys, err := buildSystem(sp, t)
	if err != nil {
		return simLayers{}, err
	}
	*t = tracer{} // drop the calls made while the system was built
	e := sys.Engine()
	t0 := time.Now()
	res := e.Finish()
	wall := float64(time.Since(t0))
	l := simLayers{records: e.Progress().Records, tracedNs: wall, t: *t, resultDoc: resultJSON(sp, res)}
	self := func(s span) float64 { return float64(s.ns) - inSpan*float64(s.calls) }
	l.nextNs = self(t.next)
	l.l1Ns = self(t.l1)
	l.l2Ns = self(t.l2)
	l.metaNs = self(t.meta)
	// Meta calls made inside a temporal call are that call's children: their
	// recorded time and the part of their timer cost outside their own span
	// both sit inside the temporal span.
	l.temporal = self(t.temporal) - float64(t.metaInTemporal.ns) -
		(total-inSpan)*float64(t.metaInTemporal.calls)
	calls := t.next.calls + t.l1.calls + t.l2.calls + t.temporal.calls + t.meta.calls
	l.timerNs = total * float64(calls)
	l.residual = wall - (l.nextNs + l.l1Ns + l.l2Ns + l.temporal + l.metaNs + l.timerNs)
	return l, nil
}

// closes reports whether the parts add back to the traced total.
func (l simLayers) closes() bool {
	sum := l.nextNs + l.l1Ns + l.l2Ns + l.temporal + l.metaNs + l.timerNs + l.residual
	return math.Abs(sum-l.tracedNs) <= 1e-6*l.tracedNs
}

// simTrace is the sim part of the traced run: untraced and traced passes
// alternate until the share of time is spent; the traced Results must equal
// the untraced ones, and per-layer figures are medians over the passes.
func simTrace(b *bench, deadline time.Time) error {
	specs := simSpecs(b.seed)
	inSpan, total := timerCost()
	b.add("trace.timer_in_span_ns", "ns", inSpan)
	b.add("trace.timer_ns_per_call", "ns", total)

	var untracedWalls, tracedWalls []float64
	per := make([][]simLayers, len(specs))
	plain := make([][]float64, len(specs)) // untraced run walls, ns
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		systems, err := simSetup(specs)
		if err != nil {
			return err
		}
		untraced := make([][]byte, len(specs))
		var untracedWall float64
		for i, sys := range systems {
			t0 := time.Now()
			res := sys.Run()
			d := float64(time.Since(t0))
			plain[i] = append(plain[i], d)
			untracedWall += d / 1e9
			untraced[i] = resultJSON(specs[i].spec, res)
		}
		untracedWalls = append(untracedWalls, untracedWall)
		var tracedWall float64
		for i, s := range specs {
			l, err := runTraced(s.spec, inSpan, total)
			if err != nil {
				return err
			}
			tracedWall += l.tracedNs / 1e9
			per[i] = append(per[i], l)
			b.check.digest("sim/"+s.name, untraced[i])
			b.check.equal("sim/"+s.name+" traced result", l.resultDoc, untraced[i])
			b.check.that("sim/"+s.name+" layer accounting closes", l.closes())
		}
		tracedWalls = append(tracedWalls, tracedWall)
	}
	b.add("trace_overhead.sim", "ratio", median(tracedWalls)/median(untracedWalls)-1)

	for i, s := range specs {
		ls := per[i]
		last := ls[len(ls)-1]
		recs := float64(last.records)
		perRec := func(f func(simLayers) float64) float64 {
			var xs []float64
			for _, l := range ls {
				xs = append(xs, f(l)/recs)
			}
			return median(xs)
		}
		perCall := func(f func(simLayers) float64, calls uint64) float64 {
			if calls == 0 {
				return 0
			}
			return perRec(f) * recs / float64(calls)
		}
		n := s.name
		b.add("sim."+n+".records", "count", recs)
		b.add("sim."+n+".ns_per_record", "ns", median(plain[i])/recs)
		b.add("sim."+n+".traced_ns_per_record", "ns", perRec(func(l simLayers) float64 { return l.tracedNs }))
		b.add("workloads."+n+".ns_per_next", "ns", perCall(func(l simLayers) float64 { return l.nextNs }, last.t.next.calls))
		b.add("prefetch.l1."+n+".trains", "count", float64(last.t.l1.calls))
		b.add("prefetch.l1."+n+".ns_per_train", "ns", perCall(func(l simLayers) float64 { return l.l1Ns }, last.t.l1.calls))
		b.add("trace."+n+".timer_ns_per_record", "ns", perRec(func(l simLayers) float64 { return l.timerNs }))
		b.add("hierarchy."+n+".residual_ns_per_record", "ns", perRec(func(l simLayers) float64 { return l.residual }))

		var res serve.Result
		if err := json.Unmarshal(last.resultDoc, &res); err != nil {
			return err
		}
		var l1d, l2 uint64
		accuracy := 0.0
		for _, c := range res.CoreResults {
			l1d += accesses(c.L1D)
			l2 += accesses(c.L2)
		}
		if useful, fills := temporalLifecycle(res); fills > 0 {
			accuracy = float64(useful) / float64(fills)
		}
		b.add("cache.l1d."+n+".accesses", "count", float64(l1d))
		b.add("cache.l2."+n+".accesses", "count", float64(l2))
		b.add("cache.llc."+n+".accesses", "count", float64(accesses(res.LLC)))
		b.add("dram."+n+".reads", "count", float64(res.DRAM.Reads))
		b.add("dram."+n+".writes", "count", float64(res.DRAM.Writes))
		b.add("dram."+n+".row_hit_rate", "ratio", res.DRAM.RowHitRate())

		if s.spec.Temporal == "none" {
			b.check.that("sim/"+n+" has no temporal or meta calls", last.t.temporal.calls == 0 && last.t.meta.calls == 0)
			b.check.that("sim/"+n+" trains its L1 prefetcher", last.t.l1.calls > 0)
			continue
		}
		b.check.that("sim/"+n+" trains every layer", last.t.l1.calls > 0 && last.t.trains > 0 && last.t.accesses > 0)
		b.add("prefetch.temporal."+n+".trains", "count", float64(last.t.trains))
		b.add("prefetch.temporal."+n+".ns_per_train", "ns", perCall(func(l simLayers) float64 { return l.temporal }, last.t.trains))
		b.add("prefetch.temporal."+n+".requests_per_train", "ratio", float64(last.t.requests)/float64(last.t.trains))
		b.add("prefetch.temporal."+n+".accuracy", "ratio", accuracy)
		b.add("meta."+n+".accesses", "count", float64(last.t.accesses))
		b.add("meta."+n+".ns_per_access", "ns", perCall(func(l simLayers) float64 { return l.metaNs }, last.t.meta.calls))
		b.add("meta."+n+".resizes", "count", float64(last.t.resizes))
	}
	return nil
}

// accesses counts a cache level's demand and prefetch lookups.
func accesses(s cache.Stats) uint64 { return s.DemandAccesses + s.PrefetchAccesses }

// temporalLifecycle sums the temporal engine's useful prefetches and fills
// over every core.
func temporalLifecycle(res serve.Result) (useful, fills uint64) {
	for _, c := range res.CoreResults {
		for _, p := range c.Prefetchers {
			if p.Source == "temporal" {
				useful += p.UsefulTimely + p.UsefulLate
				fills += p.Fills
			}
		}
	}
	return useful, fills
}
