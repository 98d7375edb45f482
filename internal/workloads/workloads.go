// Package workloads provides the synthetic benchmark suite used in place of
// the SPEC 2006, SPEC 2017, and GAP traces evaluated in the paper. Each
// workload reproduces the memory-access archetype that makes the
// corresponding real benchmark interesting for temporal prefetching:
// repeated irregular pointer chases (mcf, sphinx, omnetpp), graph analytics
// gathers (GAP), sparse algebra (soplex, milc), mixed scans, and regular
// streaming/strided kernels that temporal prefetchers should leave alone.
//
// Workloads are deterministic: a workload name plus a seed fully determines
// the generated trace, so experiments are reproducible run to run.
package workloads

import (
	"fmt"
	"math/rand"
	"sort"

	"streamline/internal/trace"
)

// Suite identifies the benchmark suite a workload imitates.
type Suite string

// The three suites evaluated in the paper.
const (
	SPEC06 Suite = "spec06"
	SPEC17 Suite = "spec17"
	GAP    Suite = "gap"
)

// Scale adjusts workload working-set sizes and per-lap lengths so the same
// definitions serve both quick benchmarks and paper-scale runs.
type Scale struct {
	// Footprint multiplies each workload's working-set size. 1.0 is the
	// calibrated default sized against the 2MB-per-core LLC of Table II.
	Footprint float64
}

// DefaultScale is the calibrated scale used by the experiment harness.
var DefaultScale = Scale{Footprint: 1.0}

func (s Scale) size(base int) int {
	if s.Footprint <= 0 {
		return base
	}
	n := int(float64(base) * s.Footprint)
	if n < 64 {
		n = 64
	}
	return n
}

// LapSource generates a workload one "lap" (outer iteration) at a time.
// Implementations rebuild all state in Reset and emit one lap of records per
// Lap call; the laps loop forever (the simulator bounds instructions).
type LapSource interface {
	// Reset rebuilds the workload's initial state from the given RNG.
	Reset(rng *rand.Rand)
	// Lap emits the records of the next outer iteration.
	Lap(emit func(trace.Record))
}

// Workload is a named, registered benchmark definition.
type Workload struct {
	// Name is the workload's short identifier (e.g. "mcf06", "pr").
	Name string
	// Suite is the benchmark suite the workload imitates.
	Suite Suite
	// Irregular marks membership in the paper's "irregular subset":
	// benchmarks with at least 5% headroom under an idealized temporal
	// prefetcher with unlimited metadata.
	Irregular bool
	// Build constructs the workload's lap source at the given scale.
	Build func(s Scale) LapSource
}

// lapTrace adapts a LapSource to trace.Trace, buffering one lap at a time so
// arbitrarily long traces use bounded memory. The lap lives in fixed-size
// chunks that later laps reuse, so a warmed trace allocates nothing and a
// long lap costs no regrowth copies.
type lapTrace struct {
	src    LapSource
	seed   int64
	emit   func(trace.Record) // push, bound once
	chunks [][]trace.Record   // lapChunk records each
	n      int                // records buffered for the current lap
	pos    int                // next buffered record Next returns
}

// lapShift sets the lap-buffer chunk size, lapChunk records.
const (
	lapShift = 12
	lapChunk = 1 << lapShift
)

// NewTrace returns an endless, resettable trace for the workload at the
// given scale and seed. Wrap it with trace.NewLimit to bound instructions.
func (w Workload) NewTrace(s Scale, seed int64) trace.Trace {
	lt := &lapTrace{src: w.Build(s), seed: seed}
	lt.emit = lt.push
	lt.Reset()
	return lt
}

func (t *lapTrace) Reset() {
	t.src.Reset(rand.New(rand.NewSource(t.seed)))
	t.n, t.pos = 0, 0
}

// push appends one record to the current lap, adding a chunk only when the
// lap outgrows every chunk earlier laps left behind.
func (t *lapTrace) push(r trace.Record) {
	c := t.n >> lapShift
	if c == len(t.chunks) {
		t.chunks = append(t.chunks, make([]trace.Record, lapChunk))
	}
	t.chunks[c][t.n&(lapChunk-1)] = r
	t.n++
}

func (t *lapTrace) Next() (trace.Record, bool) {
	for t.pos >= t.n {
		t.n, t.pos = 0, 0
		t.src.Lap(t.emit)
		if t.n == 0 {
			return trace.Record{}, false
		}
	}
	r := t.chunks[t.pos>>lapShift][t.pos&(lapChunk-1)]
	t.pos++
	return r, true
}

// registry of all workloads, populated by the generator files' init funcs.
var registry = map[string]Workload{}

func register(w Workload) {
	if _, dup := registry[w.Name]; dup {
		panic(fmt.Sprintf("workloads: duplicate registration of %q", w.Name))
	}
	registry[w.Name] = w
}

// Get returns the workload registered under name.
func Get(name string) (Workload, error) {
	w, ok := registry[name]
	if !ok {
		return Workload{}, fmt.Errorf("workloads: unknown workload %q", name)
	}
	return w, nil
}

// All returns every registered workload, sorted by name for determinism.
func All() []Workload {
	out := make([]Workload, 0, len(registry))
	for _, w := range registry {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// BySuite returns the workloads of one suite, sorted by name.
func BySuite(s Suite) []Workload {
	var out []Workload
	for _, w := range All() {
		if w.Suite == s {
			out = append(out, w)
		}
	}
	return out
}

// IrregularSubset returns the workloads in the paper's irregular subset.
func IrregularSubset() []Workload {
	var out []Workload
	for _, w := range All() {
		if w.Irregular {
			out = append(out, w)
		}
	}
	return out
}

// Names returns the names of the given workloads.
func Names(ws []Workload) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}

// Mix is a multi-programmed workload assignment: one workload name per core.
type Mix struct {
	// ID numbers the mix within its generated batch.
	ID int
	// Members lists the workload assigned to each core.
	Members []Workload
}

// Mixes generates count deterministic multi-programmed mixes of the
// memory-intensive workloads for the given core count, mirroring the
// paper's 150 random mixes per core count.
func Mixes(count, cores int, seed int64) []Mix {
	pool := All()
	rng := rand.New(rand.NewSource(seed))
	mixes := make([]Mix, count)
	for i := range mixes {
		members := make([]Workload, cores)
		for c := range members {
			members[c] = pool[rng.Intn(len(pool))]
		}
		mixes[i] = Mix{ID: i, Members: members}
	}
	return mixes
}
