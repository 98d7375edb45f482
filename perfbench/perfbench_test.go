package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"streamline/internal/dram"
	"streamline/internal/meta"
	"streamline/internal/prefetch"
	"streamline/internal/serve"
	"streamline/internal/sim"
)

// TestTracedResultsEqualUntraced runs every sim Spec traced and untraced:
// the Results must be identical, every layer must see calls where it should
// and none where it should not, and the layer accounting must close.
func TestTracedResultsEqualUntraced(t *testing.T) {
	inSpan, total := timerCost()
	for _, s := range simSpecs(defaultSeed) {
		sys, err := buildSystem(s.spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := resultJSON(s.spec, sys.Run())
		l, err := runTraced(s.spec, inSpan, total)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(l.resultDoc, want) {
			t.Errorf("%s: traced result differs from untraced", s.name)
		}
		if !l.closes() {
			t.Errorf("%s: layer parts do not add back to the traced total", s.name)
		}
		if l.t.l1.calls == 0 || l.t.next.calls == 0 {
			t.Errorf("%s: L1 trains %d, trace calls %d; want both nonzero", s.name, l.t.l1.calls, l.t.next.calls)
		}
		temporal := s.spec.Temporal != "none"
		if got := l.t.trains > 0 && l.t.accesses > 0; got != temporal {
			t.Errorf("%s: temporal trains %d, meta accesses %d; want nonzero exactly when a temporal prefetcher is configured",
				s.name, l.t.trains, l.t.accesses)
		}
		if !temporal && (l.t.temporal.calls != 0 || l.t.meta.calls != 0) {
			t.Errorf("%s: %d temporal and %d meta calls without a temporal prefetcher", s.name, l.t.temporal.calls, l.t.meta.calls)
		}
	}
}

// optionalInterfaces lists the optional interfaces sim asserts that p
// implements.
func optionalInterfaces(p prefetch.Prefetcher) []string {
	var out []string
	if _, ok := p.(prefetch.AccuracyConsumer); ok {
		out = append(out, "AccuracyConsumer")
	}
	if _, ok := p.(prefetch.MetaReporter); ok {
		out = append(out, "MetaReporter")
	}
	if _, ok := p.(prefetch.LLCDataObserver); ok {
		out = append(out, "LLCDataObserver")
	}
	if _, ok := p.(storeProvider); ok {
		out = append(out, "Store")
	}
	return out
}

// TestWrapForwardsExactlyTheOptionalInterfaces wraps every prefetcher the
// Spec registry can build and compares the optional interfaces before and
// after wrapping.
func TestWrapForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	bridge := &meta.NullBridge{Sets: 256, Ways: 16, Latency: 20}
	check := func(name string, p prefetch.Prefetcher) {
		tr := &tracer{}
		w := tr.wrap(p, &tr.temporal, true)
		if got, want := strings.Join(optionalInterfaces(w), ","), strings.Join(optionalInterfaces(p), ","); got != want {
			t.Errorf("%s: wrapped implements [%s], engine implements [%s]", name, got, want)
		}
		if w.Name() != p.Name() {
			t.Errorf("%s: wrapped name %q, engine name %q", name, w.Name(), p.Name())
		}
	}
	check("nil", prefetch.Nil{})
	config := func(sp serve.Spec) sim.Config {
		if err := sp.Normalize(); err != nil {
			t.Fatal(err)
		}
		cfg, err := sp.Config()
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	for _, opt := range serve.L1Options[1:] {
		check("l1 "+opt, config(serve.Spec{Workload: "mcf06", L1: opt}).L1DPrefetcher())
	}
	for _, opt := range serve.L2Options[1:] {
		check("l2 "+opt, config(serve.Spec{Workload: "mcf06", L2: opt}).L2Prefetcher())
	}
	for _, opt := range serve.TemporalOptions[1:] {
		cfg := config(serve.Spec{Workload: "mcf06", Temporal: opt})
		if cfg.Temporal != nil {
			check("temporal "+opt, cfg.Temporal(bridge))
		} else {
			check("temporal "+opt, cfg.TemporalDRAM(dram.New(cfg.DRAM)))
		}
	}
}

// TestCorruptedDigestFails shows that an output whose digest does not match
// the pinned one is counted as a failed operation.
func TestCorruptedDigestFails(t *testing.T) {
	c := newChecker(true, map[string]string{"x": "0000"}, io.Discard)
	if c.digest("x", []byte("output")) || c.failed != 1 || c.attempted != 1 {
		t.Fatalf("corrupted digest: attempted %d, failed %d; want 1, 1", c.attempted, c.failed)
	}
	// A later output that differs from the first of its name fails too.
	c = newChecker(false, nil, io.Discard)
	c.digest("y", []byte("a"))
	if c.digest("y", []byte("b")) || c.failed != 1 {
		t.Fatalf("changed output: failed %d; want 1", c.failed)
	}

	// The same holds through a whole workload run.
	b := newBench(defaultSeed, time.Millisecond, t.TempDir(), io.Discard)
	corrupted := map[string]string{}
	for k, v := range golden {
		corrupted[k] = v
	}
	corrupted["sim/base-lbm17"] = strings.Repeat("0", 64)
	b.check = newChecker(true, corrupted, io.Discard)
	if err := runSim(b); err != nil {
		t.Fatal(err)
	}
	if b.check.failed != minIters {
		t.Fatalf("sim with a corrupted digest: %d failed operations; want %d", b.check.failed, minIters)
	}
}

// declared returns the metric names BENCHMARK.json declares under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(doc[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// resultLine runs the benchmark with args, checks that its last output line
// reports success, and returns the names of the metrics it prints.
func resultLine(t *testing.T, args ...string) (names []string) {
	t.Helper()
	var out, log bytes.Buffer
	args = append(args, "--seconds", "1", "--workdir", t.TempDir())
	if code := run(args, &out, &log); code != 0 {
		t.Fatalf("%v: exit %d\n%s", args, code, log.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%v: correct %v, attempted %d, failed %d\n%s", args, res.Correct, res.Attempted, res.Failed, log.String())
	}
	for name, m := range res.Metrics {
		names = append(names, name)
		if m.Unit == "" {
			t.Errorf("%v: metric %s has no unit", args, name)
		}
	}
	sort.Strings(names)
	return names
}

// TestResultLines runs every workload briefly at the default seed: each
// must pass every check and print exactly the metrics BENCHMARK.json
// declares.
func TestResultLines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e := strings.Join(declared(t, "end_to_end"), " ")
	for _, w := range []string{"sim", "sweep", "serve"} {
		if names := resultLine(t, "--workload", w, "--trace", "0"); strings.Join(names, " ") != e2e {
			t.Errorf("%s: metrics %v; BENCHMARK.json declares %s", w, names, e2e)
		}
	}
	layers := declared(t, "per_layer")
	if names := resultLine(t, "--workload", "sim", "--trace", "1"); strings.Join(names, " ") != strings.Join(layers, " ") {
		t.Errorf("traced run metrics %v; BENCHMARK.json declares %v", names, layers)
	}
}
