package sim

import (
	"io"
	"runtime"
	"testing"

	"streamline/internal/telemetry"
	"streamline/internal/workloads"
)

// BenchmarkKernel measures the per-trace-record cost of the simulation
// kernel on each representative scenario. Custom metrics normalize per
// record: ns/record and records/sec come from the wall clock, allocs/record
// from the allocator's Mallocs counter. Profile the kernel with
// `go test ./internal/sim -run=NONE -bench=Kernel -cpuprofile cpu.out`.
func BenchmarkKernel(b *testing.B) {
	for _, k := range KernelScenarios() {
		b.Run(k.Name, func(b *testing.B) {
			b.ReportAllocs()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			var records uint64
			for i := 0; i < b.N; i++ {
				_, recs, err := k.Run()
				if err != nil {
					b.Fatal(err)
				}
				records += recs
			}
			runtime.ReadMemStats(&ms1)
			if records == 0 {
				b.Fatal("kernel executed no records")
			}
			el := b.Elapsed()
			b.ReportMetric(float64(el.Nanoseconds())/float64(records), "ns/record")
			b.ReportMetric(float64(records)/el.Seconds(), "records/sec")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(records), "allocs/record")
		})
	}
}

// TestKernelAllocsPerRecordCeiling pins the allocation rate of each kernel
// scenario. Cache tags, metadata slots and targets, and the trace's lap
// buffer are preallocated or reused, so what remains is construction and
// first-use buffers amortized over the run (base 0.0012, streamline 0.0075,
// triangel 0.0062, 4-core 0.011 allocs/record). Each ceiling is about 3x
// its rate; an allocation on even one in twenty records exceeds it.
func TestKernelAllocsPerRecordCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("full kernel runs")
	}
	ceilings := map[string]float64{
		"1core-base-sphinx06":       0.004,
		"1core-streamline-sphinx06": 0.025,
		"1core-triangel-mcf06":      0.02,
		"4core-streamline-mix":      0.035,
	}
	for _, k := range KernelScenarios() {
		ceil, ok := ceilings[k.Name]
		if !ok {
			t.Errorf("%s: no allocs/record ceiling defined; add one", k.Name)
			continue
		}
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		_, records, err := k.Run()
		runtime.ReadMemStats(&ms1)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if records == 0 {
			t.Fatalf("%s: no records executed", k.Name)
		}
		got := float64(ms1.Mallocs-ms0.Mallocs) / float64(records)
		t.Logf("%s: %.4f allocs/record (ceiling %.3f)", k.Name, got, ceil)
		if got > ceil {
			t.Errorf("%s: %.4f allocs/record exceeds ceiling %.3f", k.Name, got, ceil)
		}
	}
}

// benchmarkRun measures a full simulation; newCollector nil benchmarks the
// disabled path (the overhead telemetry must not add), non-nil the
// instrumented one.
func benchmarkRun(b *testing.B, newCollector func() *telemetry.Collector) {
	w, err := workloads.Get("sphinx06")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := smallConfig(1)
		cfg.WarmupInstructions = 50_000
		cfg.MeasureInstructions = 200_000
		cfg.L1DPrefetcher = strideFactory
		cfg.Temporal = streamlineFactory
		var col *telemetry.Collector
		if newCollector != nil {
			col = newCollector()
			cfg.Telemetry = col
		}
		sys := New(cfg)
		sys.RunTrace(w.NewTrace(workloads.Scale{Footprint: 0.1}, 1))
		if col != nil {
			if err := col.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkRunTelemetryOff(b *testing.B) {
	benchmarkRun(b, nil)
}

func BenchmarkRunTelemetryOn(b *testing.B) {
	benchmarkRun(b, func() *telemetry.Collector {
		return telemetry.New(telemetry.NewSink(io.Discard), 50_000)
	})
}
