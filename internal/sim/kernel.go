package sim

// This file defines the kernel benchmark scenarios: small, representative
// simulations used to track the per-trace-record cost of the simulation
// kernel (System.step -> demandAccess -> cache Lookup/Fill -> dram.Access ->
// prefetcher Train). They back the BenchmarkKernel suite and the
// allocation ceilings in bench_test.go, and serve as CPU/allocation
// profiling targets; end-to-end performance claims come from perfbench.

import (
	"fmt"

	"streamline/internal/core"
	"streamline/internal/meta"
	"streamline/internal/prefetch"
	"streamline/internal/prefetch/stride"
	"streamline/internal/prefetch/triangel"
	"streamline/internal/trace"
	"streamline/internal/workloads"
)

// KernelScenario is one representative kernel benchmark configuration: a
// core count, a workload per core, and instruction budgets on the scaled
// test hierarchy (the same ~8x-reduced geometry the sim tests use).
type KernelScenario struct {
	// Name identifies the scenario in benchmark output.
	Name string
	// Cores is the simulated core count.
	Cores int
	// Workloads assigns one workload per core.
	Workloads []string
	// Footprint scales the workloads' working sets (0.1 matches the
	// scaled-down hierarchy).
	Footprint float64
	// Seed makes the generated traces reproducible.
	Seed int64
	// Warmup and Measure are the per-core instruction budgets.
	Warmup, Measure uint64
	// Temporal selects the temporal prefetcher: "streamline", "triangel",
	// or "" for none. Non-empty scenarios also attach a stride L1D
	// prefetcher so the full Train/issuePrefetch path is exercised.
	Temporal string
}

// KernelScenarios returns the representative kernel benchmark set: a
// prefetcher-free single-core baseline (pure hierarchy cost), the paper's
// two temporal prefetchers single-core, and a 4-core multi-programmed mix
// (scheduler and shared-resource cost).
func KernelScenarios() []KernelScenario {
	return []KernelScenario{
		{
			Name: "1core-base-sphinx06", Cores: 1,
			Workloads: []string{"sphinx06"}, Footprint: 0.1, Seed: 1,
			Warmup: 50_000, Measure: 200_000,
		},
		{
			Name: "1core-streamline-sphinx06", Cores: 1,
			Workloads: []string{"sphinx06"}, Footprint: 0.1, Seed: 1,
			Warmup: 50_000, Measure: 200_000, Temporal: "streamline",
		},
		{
			Name: "1core-triangel-mcf06", Cores: 1,
			Workloads: []string{"mcf06"}, Footprint: 0.1, Seed: 1,
			Warmup: 50_000, Measure: 200_000, Temporal: "triangel",
		},
		{
			Name: "4core-streamline-mix", Cores: 4,
			Workloads: []string{"sphinx06", "mcf06", "bfs", "libquantum06"},
			Footprint: 0.1, Seed: 1,
			Warmup: 25_000, Measure: 100_000, Temporal: "streamline",
		},
	}
}

// KernelScenarioByName returns the named scenario.
func KernelScenarioByName(name string) (KernelScenario, error) {
	for _, k := range KernelScenarios() {
		if k.Name == name {
			return k, nil
		}
	}
	return KernelScenario{}, fmt.Errorf("sim: unknown kernel scenario %q", name)
}

// kernelConfig mirrors the scaled-down test hierarchy (smallConfig in the
// sim tests): the 0.1-footprint workloads stress it the way the full-size
// workloads stress the Table II hierarchy.
func (k KernelScenario) kernelConfig() Config {
	cfg := DefaultConfig(k.Cores)
	cfg.L2.Sets = 128  // 64KB
	cfg.LLC.Sets = 256 // 256KB per core
	cfg.WarmupInstructions = k.Warmup
	cfg.MeasureInstructions = k.Measure
	switch k.Temporal {
	case "streamline":
		cfg.L1DPrefetcher = func() prefetch.Prefetcher { return stride.New(stride.DefaultConfig) }
		cfg.Temporal = func(b meta.Bridge) prefetch.Prefetcher { return core.New(core.DefaultOptions(), b) }
	case "triangel":
		cfg.L1DPrefetcher = func() prefetch.Prefetcher { return stride.New(stride.DefaultConfig) }
		cfg.Temporal = func(b meta.Bridge) prefetch.Prefetcher { return triangel.New(triangel.DefaultConfig(), b) }
	}
	return cfg
}

// countingTrace counts the records the kernel consumes, so benchmark results
// can be normalized per record rather than per run.
type countingTrace struct {
	inner trace.Trace
	n     *uint64
}

func (c countingTrace) Next() (trace.Record, bool) {
	r, ok := c.inner.Next()
	if ok {
		*c.n++
	}
	return r, ok
}

func (c countingTrace) Reset() { c.inner.Reset() }

// Run executes the scenario once, returning the simulation result and the
// number of trace records the kernel executed (warmup plus measurement).
func (k KernelScenario) Run() (Result, uint64, error) {
	sys := New(k.kernelConfig())
	var records uint64
	for c := 0; c < k.Cores; c++ {
		w, err := workloads.Get(k.Workloads[c])
		if err != nil {
			return Result{}, 0, err
		}
		tr := w.NewTrace(workloads.Scale{Footprint: k.Footprint}, k.Seed+int64(c))
		sys.SetTrace(c, countingTrace{inner: tr, n: &records})
	}
	return sys.Run(), records, nil
}
