package workloads

import (
	"math/rand"
	"testing"

	"streamline/internal/mem"
	"streamline/internal/trace"
)

func newTestRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestRegistryComplete(t *testing.T) {
	if n := len(All()); n < 15 {
		t.Fatalf("only %d workloads registered, want >= 15", n)
	}
	for _, suite := range []Suite{SPEC06, SPEC17, GAP} {
		if len(BySuite(suite)) < 4 {
			t.Errorf("suite %s has %d workloads, want >= 4", suite, len(BySuite(suite)))
		}
	}
	if len(IrregularSubset()) < 6 {
		t.Errorf("irregular subset has %d workloads, want >= 6", len(IrregularSubset()))
	}
}

func TestGetKnownAndUnknown(t *testing.T) {
	if _, err := Get("pr"); err != nil {
		t.Errorf("Get(pr) failed: %v", err)
	}
	if _, err := Get("no-such-workload"); err == nil {
		t.Error("Get of unknown workload did not fail")
	}
}

func TestAllSortedAndUnique(t *testing.T) {
	names := Names(All())
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("All() not sorted/unique at %q >= %q", names[i-1], names[i])
		}
	}
}

// drain pulls n records from a fresh trace of w.
func drain(t *testing.T, w Workload, n int, seed int64) []trace.Record {
	t.Helper()
	tr := w.NewTrace(Scale{Footprint: 0.05}, seed)
	recs := make([]trace.Record, 0, n)
	for len(recs) < n {
		r, ok := tr.Next()
		if !ok {
			t.Fatalf("%s: trace ended after %d records", w.Name, len(recs))
		}
		recs = append(recs, r)
	}
	return recs
}

func TestEveryWorkloadGenerates(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			recs := drain(t, w, 5000, 42)
			pcs := map[mem.PC]bool{}
			lines := map[mem.Line]bool{}
			for _, r := range recs {
				if r.PC == 0 {
					t.Fatal("record with zero PC")
				}
				if r.Addr < 1<<32 {
					t.Fatalf("record address %#x below arena base", r.Addr)
				}
				pcs[r.PC] = true
				lines[mem.LineOf(r.Addr)] = true
			}
			if len(lines) < 16 {
				t.Errorf("only %d distinct lines in 5000 records", len(lines))
			}
		})
	}
}

func TestDeterminismAcrossInstances(t *testing.T) {
	for _, w := range All() {
		a := drain(t, w, 2000, 7)
		b := drain(t, w, 2000, 7)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: record %d differs between identically seeded traces", w.Name, i)
			}
		}
	}
}

func TestResetReplaysIdentically(t *testing.T) {
	w, err := Get("mcf06")
	if err != nil {
		t.Fatal(err)
	}
	tr := w.NewTrace(Scale{Footprint: 0.05}, 9)
	first := make([]trace.Record, 1000)
	for i := range first {
		r, ok := tr.Next()
		if !ok {
			t.Fatal("trace ended early")
		}
		first[i] = r
	}
	tr.Reset()
	for i := range first {
		r, ok := tr.Next()
		if !ok {
			t.Fatal("trace ended early after Reset")
		}
		if r != first[i] {
			t.Fatalf("record %d differs after Reset", i)
		}
	}
}

func TestSeedChangesTrace(t *testing.T) {
	w, _ := Get("pr")
	a := drain(t, w, 1000, 1)
	b := drain(t, w, 1000, 2)
	same := 0
	for i := range a {
		if a[i].Addr == b[i].Addr {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical traces")
	}
}

func TestChaseWorkloadsRepeatSequences(t *testing.T) {
	// A stable pointer chase must revisit the same line sequence across
	// laps: the fraction of (line -> next line) correlations from lap 1
	// that recur in lap 2 should be high. This is the property temporal
	// prefetchers rely on.
	w, _ := Get("sphinx06")
	src := w.Build(Scale{Footprint: 0.02})
	src.Reset(newTestRNG(3))
	lap := func() map[[2]mem.Line]bool {
		var prev mem.Line
		havePrev := false
		pairs := map[[2]mem.Line]bool{}
		src.Lap(func(r trace.Record) {
			l := mem.LineOf(r.Addr)
			if havePrev {
				pairs[[2]mem.Line{prev, l}] = true
			}
			prev, havePrev = l, true
		})
		return pairs
	}
	p1, p2 := lap(), lap()
	common := 0
	for k := range p1 {
		if p2[k] {
			common++
		}
	}
	if frac := float64(common) / float64(len(p1)); frac < 0.95 {
		t.Errorf("only %.1f%% of correlations repeat across laps, want >= 95%%", frac*100)
	}
}

func TestStreamingWorkloadIsSequential(t *testing.T) {
	w, _ := Get("libquantum06")
	recs := drain(t, w, 4000, 11)
	seq := 0
	for i := 1; i < len(recs); i++ {
		d := int64(mem.LineOf(recs[i].Addr)) - int64(mem.LineOf(recs[i-1].Addr))
		if d == 0 || d == 1 {
			seq++
		}
	}
	if frac := float64(seq) / float64(len(recs)-1); frac < 0.9 {
		t.Errorf("streaming workload only %.1f%% sequential", frac*100)
	}
}

func TestMixesDeterministicAndSized(t *testing.T) {
	a := Mixes(10, 4, 99)
	b := Mixes(10, 4, 99)
	if len(a) != 10 {
		t.Fatalf("got %d mixes, want 10", len(a))
	}
	for i := range a {
		if len(a[i].Members) != 4 {
			t.Fatalf("mix %d has %d members, want 4", i, len(a[i].Members))
		}
		for c := range a[i].Members {
			if a[i].Members[c].Name != b[i].Members[c].Name {
				t.Fatal("mixes are not deterministic")
			}
		}
	}
	c := Mixes(10, 4, 100)
	diff := false
	for i := range a {
		for j := range a[i].Members {
			if a[i].Members[j].Name != c[i].Members[j].Name {
				diff = true
			}
		}
	}
	if !diff {
		t.Error("different seeds produced identical mixes")
	}
}

func TestScaleSize(t *testing.T) {
	s := Scale{Footprint: 0.5}
	if got := s.size(1000); got != 500 {
		t.Errorf("size(1000) at 0.5 = %d, want 500", got)
	}
	if got := (Scale{}).size(1000); got != 1000 {
		t.Errorf("zero-value scale changed size: %d", got)
	}
	if got := (Scale{Footprint: 0.0001}).size(1000); got != 64 {
		t.Errorf("scale floor: got %d, want 64", got)
	}
}

// fixedLaps is a LapSource whose lap k emits lens[k%len(lens)] records
// drawn from the Reset RNG, so lap boundaries and lengths are known.
type fixedLaps struct {
	lens []int
	rng  *rand.Rand
	lap  int
}

func (f *fixedLaps) Reset(rng *rand.Rand) { f.rng, f.lap = rng, 0 }

func (f *fixedLaps) Lap(emit func(trace.Record)) {
	n := f.lens[f.lap%len(f.lens)]
	for i := 0; i < n; i++ {
		emit(trace.Record{PC: mem.PC(f.lap + 1), Addr: mem.Addr(f.rng.Int63()), IsWrite: i%3 == 0})
	}
	f.lap++
}

func fixedWorkload(lens ...int) Workload {
	return Workload{Name: "fixed", Build: func(Scale) LapSource { return &fixedLaps{lens: lens} }}
}

// directLaps returns the records of the first laps laps of a fresh source
// reset with seed, emitted by calling Lap directly.
func directLaps(w Workload, seed int64, laps int) []trace.Record {
	src := w.Build(Scale{})
	src.Reset(rand.New(rand.NewSource(seed)))
	var out []trace.Record
	for i := 0; i < laps; i++ {
		src.Lap(func(r trace.Record) { out = append(out, r) })
	}
	return out
}

func TestLapTraceMatchesDirectLaps(t *testing.T) {
	// Laps shorter than, longer than and exactly one buffer chunk, so chunk
	// reuse across laps of different lengths is exercised.
	w := fixedWorkload(3, 2*lapChunk+5, lapChunk, 1, lapChunk+7)
	want := directLaps(w, 5, 5)
	tr := w.NewTrace(Scale{}, 5)
	for pass := 0; pass < 2; pass++ {
		for i, rec := range want {
			got, ok := tr.Next()
			if !ok {
				t.Fatalf("pass %d: trace ended at record %d of %d", pass, i, len(want))
			}
			if got != rec {
				t.Fatalf("pass %d: record %d = %+v, want %+v", pass, i, got, rec)
			}
		}
		tr.Reset()
	}
}

func TestLapTraceEndsOnEmptyLap(t *testing.T) {
	tr := fixedWorkload(2, 0).NewTrace(Scale{}, 1)
	for i := 0; i < 2; i++ {
		if _, ok := tr.Next(); !ok {
			t.Fatalf("trace ended at record %d of the first lap", i)
		}
	}
	if _, ok := tr.Next(); ok {
		t.Fatal("trace continued past an empty lap")
	}
}

func TestLapTraceWarmLapAllocatesNothing(t *testing.T) {
	const lap = 2*lapChunk + 1
	tr := fixedWorkload(lap).NewTrace(Scale{}, 3)
	drainLap := func() {
		for i := 0; i < lap; i++ {
			if _, ok := tr.Next(); !ok {
				t.Fatal("trace ended")
			}
		}
	}
	drainLap() // the first lap sizes the chunk buffer
	if n := testing.AllocsPerRun(5, drainLap); n != 0 {
		t.Errorf("a warmed lap allocates %.1f objects, want 0", n)
	}
}
