package main

import (
	_ "unsafe" // for go:linkname

	"streamline/internal/dram"
	"streamline/internal/mem"
	"streamline/internal/meta"
	"streamline/internal/prefetch"
	"streamline/internal/sim"
	"streamline/internal/trace"
)

// This file holds the outside-in tracing of the sim workload: wrappers
// around the public interfaces the simulator calls (trace.Trace,
// prefetch.Prefetcher and meta.Bridge), installed through the factory fields
// of sim.Config. The hierarchy itself (cpu, cache, replacement, dram, mem)
// is concrete and cannot be wrapped; its cost is the residual.
//
// A wrapper only times and counts. It passes every argument and result
// through unchanged and exposes exactly the optional interfaces of the value
// it wraps, so a traced run produces the same sim.Result as an untraced one.

// nanotime is the runtime's monotonic clock in nanoseconds: one clock read,
// where time.Now makes two, which halves what a span costs the run it times.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64

// span accumulates one layer's calls and their inclusive host time.
type span struct {
	calls uint64
	ns    int64
}

func (s *span) add(t0 int64) {
	s.calls++
	s.ns += nanotime() - t0
}

// tracer collects the spans of one System. The engine steps every core on
// one goroutine, so the spans need no synchronization.
type tracer struct {
	next     span // trace.Trace calls (workload generation)
	l1, l2   span // regular prefetcher calls
	temporal span // temporal prefetcher calls, including the meta calls they make
	meta     span // meta.Bridge calls
	// metaInTemporal is the part of meta made from inside a temporal call;
	// it is subtracted from temporal to give the temporal self time.
	metaInTemporal span
	inTemporal     bool

	requests uint64 // prefetch requests returned by the temporal Train
	trains   uint64 // temporal Train calls (temporal.calls also counts observers)
	resizes  uint64 // ReserveWays calls
	accesses uint64 // MetaAccess calls
}

// storeProvider mirrors the unexported interface sim looks for on a temporal
// prefetcher whose metadata lives in a meta.Store.
type storeProvider interface {
	Store() *meta.Store
}

// instrument returns cfg with every layer the simulator calls through an
// interface wrapped by t.
func (t *tracer) instrument(cfg sim.Config) sim.Config {
	if f := cfg.L1DPrefetcher; f != nil {
		cfg.L1DPrefetcher = func() prefetch.Prefetcher { return t.wrap(f(), &t.l1, false) }
	}
	if f := cfg.L2Prefetcher; f != nil {
		cfg.L2Prefetcher = func() prefetch.Prefetcher { return t.wrap(f(), &t.l2, false) }
	}
	if f := cfg.Temporal; f != nil {
		cfg.Temporal = func(b meta.Bridge) prefetch.Prefetcher {
			return t.wrap(f(&tracedBridge{inner: b, t: t}), &t.temporal, true)
		}
	}
	if f := cfg.TemporalDRAM; f != nil {
		cfg.TemporalDRAM = func(d *dram.DRAM) prefetch.Prefetcher { return t.wrap(f(d), &t.temporal, true) }
	}
	return cfg
}

// tracedTrace times a workload's trace generation.
type tracedTrace struct {
	inner trace.Trace
	t     *tracer
}

func (w *tracedTrace) Next() (trace.Record, bool) {
	t0 := nanotime()
	r, ok := w.inner.Next()
	w.t.next.add(t0)
	return r, ok
}

func (w *tracedTrace) Reset() {
	t0 := nanotime()
	w.inner.Reset()
	w.t.next.add(t0)
}

// tracedBridge times a temporal prefetcher's metadata accesses.
type tracedBridge struct {
	inner meta.Bridge
	t     *tracer
}

func (b *tracedBridge) done(t0 int64) {
	d := nanotime() - t0
	b.t.meta.calls++
	b.t.meta.ns += d
	if b.t.inTemporal {
		b.t.metaInTemporal.calls++
		b.t.metaInTemporal.ns += d
	}
}

func (b *tracedBridge) MetaAccess(now uint64, kind mem.Kind) uint64 {
	t0 := nanotime()
	lat := b.inner.MetaAccess(now, kind)
	b.done(t0)
	b.t.accesses++
	return lat
}

func (b *tracedBridge) ReserveWays(set, ways int) {
	t0 := nanotime()
	b.inner.ReserveWays(set, ways)
	b.done(t0)
	b.t.resizes++
}

func (b *tracedBridge) Geometry() (int, int) {
	t0 := nanotime()
	sets, ways := b.inner.Geometry()
	b.done(t0)
	return sets, ways
}

// tracedPF times a prefetcher's Train. The optional interfaces are added by
// wrap through the embedding types below.
type tracedPF struct {
	inner    prefetch.Prefetcher
	sp       *span
	t        *tracer
	temporal bool
}

func (p *tracedPF) Name() string { return p.inner.Name() }

func (p *tracedPF) enter() int64 {
	if p.temporal {
		p.t.inTemporal = true
	}
	return nanotime()
}

func (p *tracedPF) leave(t0 int64) {
	p.sp.add(t0)
	p.t.inTemporal = false
}

func (p *tracedPF) Train(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
	n := len(out)
	t0 := p.enter()
	out = p.inner.Train(ev, out)
	p.leave(t0)
	if p.temporal {
		p.t.trains++
		p.t.requests += uint64(len(out) - n)
	}
	return out
}

// The optional interfaces sim asserts on a prefetcher. Observers are timed
// as the prefetcher's own work; MetaStats and Store are bookkeeping and are
// forwarded untimed.
type (
	accuracyFwd struct{ p *tracedPF }
	metaFwd     struct{ p *tracedPF }
	llcFwd      struct{ p *tracedPF }
	storeFwd    struct{ p *tracedPF }
)

func (f accuracyFwd) ObserveAccuracy(acc float64) {
	t0 := f.p.enter()
	f.p.inner.(prefetch.AccuracyConsumer).ObserveAccuracy(acc)
	f.p.leave(t0)
}

func (f metaFwd) MetaStats() meta.Stats { return f.p.inner.(prefetch.MetaReporter).MetaStats() }

func (f llcFwd) ObserveLLCData(set int, line mem.Line) {
	t0 := f.p.enter()
	f.p.inner.(prefetch.LLCDataObserver).ObserveLLCData(set, line)
	f.p.leave(t0)
}

func (f storeFwd) Store() *meta.Store { return f.p.inner.(storeProvider).Store() }

// One type per subset of {AccuracyConsumer, MetaReporter, LLCDataObserver,
// storeProvider}, so a wrapped prefetcher satisfies a type assertion exactly
// when the prefetcher it wraps does.
type (
	pf0 struct{ *tracedPF }
	pfA struct {
		*tracedPF
		accuracyFwd
	}
	pfM struct {
		*tracedPF
		metaFwd
	}
	pfAM struct {
		*tracedPF
		accuracyFwd
		metaFwd
	}
	pfL struct {
		*tracedPF
		llcFwd
	}
	pfAL struct {
		*tracedPF
		accuracyFwd
		llcFwd
	}
	pfML struct {
		*tracedPF
		metaFwd
		llcFwd
	}
	pfAML struct {
		*tracedPF
		accuracyFwd
		metaFwd
		llcFwd
	}
	pfS struct {
		*tracedPF
		storeFwd
	}
	pfAS struct {
		*tracedPF
		accuracyFwd
		storeFwd
	}
	pfMS struct {
		*tracedPF
		metaFwd
		storeFwd
	}
	pfAMS struct {
		*tracedPF
		accuracyFwd
		metaFwd
		storeFwd
	}
	pfLS struct {
		*tracedPF
		llcFwd
		storeFwd
	}
	pfALS struct {
		*tracedPF
		accuracyFwd
		llcFwd
		storeFwd
	}
	pfMLS struct {
		*tracedPF
		metaFwd
		llcFwd
		storeFwd
	}
	pfAMLS struct {
		*tracedPF
		accuracyFwd
		metaFwd
		llcFwd
		storeFwd
	}
)

// wrap returns inner traced into sp, implementing exactly the optional
// interfaces inner implements.
func (t *tracer) wrap(inner prefetch.Prefetcher, sp *span, temporal bool) prefetch.Prefetcher {
	p := &tracedPF{inner: inner, sp: sp, t: t, temporal: temporal}
	a, m, l, s := accuracyFwd{p}, metaFwd{p}, llcFwd{p}, storeFwd{p}
	mask := 0
	if _, ok := inner.(prefetch.AccuracyConsumer); ok {
		mask |= 1
	}
	if _, ok := inner.(prefetch.MetaReporter); ok {
		mask |= 2
	}
	if _, ok := inner.(prefetch.LLCDataObserver); ok {
		mask |= 4
	}
	if _, ok := inner.(storeProvider); ok {
		mask |= 8
	}
	switch mask {
	case 1:
		return pfA{p, a}
	case 2:
		return pfM{p, m}
	case 3:
		return pfAM{p, a, m}
	case 4:
		return pfL{p, l}
	case 5:
		return pfAL{p, a, l}
	case 6:
		return pfML{p, m, l}
	case 7:
		return pfAML{p, a, m, l}
	case 8:
		return pfS{p, s}
	case 9:
		return pfAS{p, a, s}
	case 10:
		return pfMS{p, m, s}
	case 11:
		return pfAMS{p, a, m, s}
	case 12:
		return pfLS{p, l, s}
	case 13:
		return pfALS{p, a, l, s}
	case 14:
		return pfMLS{p, m, l, s}
	case 15:
		return pfAMLS{p, a, m, l, s}
	}
	return pf0{p}
}

// timerCost measures what the tracing itself costs per wrapped call, on a
// wrapped prefetch.Nil whose Train does nothing: inSpan is the part a span
// records for an empty call, total the whole cost the wrapper adds to its
// caller. The median of several rounds is returned.
func timerCost() (inSpan, total float64) {
	const calls = 200_000
	var ins, tots []float64
	for round := 0; round < 7; round++ {
		t := &tracer{}
		var direct prefetch.Prefetcher = prefetch.Nil{}
		wrapped := t.wrap(prefetch.Nil{}, &t.l1, false)
		buf := make([]prefetch.Request, 0, 4)
		t0 := nanotime()
		for i := 0; i < calls; i++ {
			buf = direct.Train(prefetch.Event{}, buf[:0])
		}
		d := nanotime() - t0
		t1 := nanotime()
		for i := 0; i < calls; i++ {
			buf = wrapped.Train(prefetch.Event{}, buf[:0])
		}
		w := nanotime() - t1
		ins = append(ins, float64(t.l1.ns)/calls)
		tots = append(tots, float64(w-d)/calls)
	}
	return median(ins), median(tots)
}
