package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"streamline/internal/exp"
	"streamline/internal/exp/runner"
	"streamline/internal/exp/store"
	"streamline/internal/metrics"
)

// sweepIDs are the sweep workload's experiments. Together they complete
// fewer jobs than alone, so the runner's memo has work to do, and fig11cd
// is the only place the regular L2 prefetchers IPCP, Bingo and SPP run.
var sweepIDs = []string{"fig9", "fig11cd", "fig14"}

// sweepScale trims exp.Small to one irregular and one regular workload and
// a shorter budget, so a checkpointed sweep takes a few seconds. Only the
// trace seed comes from the benchmark seed.
func sweepScale(seed int64) exp.Scale {
	sc := exp.Small
	sc.Name = "perfbench"
	sc.Workloads = []string{"sphinx06", "libquantum06"}
	sc.Warmup = 100_000
	sc.Measure = 300_000
	sc.MixCount = 1
	sc.Seed = 1 + rand.New(rand.NewSource(seed)).Int63n(1<<30)
	return sc
}

func sweepManifest(sc exp.Scale) store.Manifest {
	return store.Manifest{Version: store.Version, ScaleName: sc.Name, ScaleFP: sc.Fingerprint(), Seed: sc.Seed}
}

// sweepPass is one checkpointed sweep into a fresh store followed by a
// resumed sweep from it.
type sweepPass struct {
	checkpoint, resume time.Duration
	jobs, busy         float64 // runner accounting, traced passes only
	records, bytes     int
}

// newSweepRunner is cmd/experiments' runner wiring with Jobs = nproc.
func newSweepRunner(sc exp.Scale, st *store.Store) *exp.Runner {
	r := exp.NewRunner(sc)
	r.Jobs = nproc
	r.Store = st
	return r
}

// runExperiments runs sweepIDs on r and renders their tables, one lap of
// pc per experiment.
func runExperiments(r *exp.Runner, pc *passClock) string {
	var out strings.Builder
	for _, id := range sweepIDs {
		e, ok := exp.ByID(id)
		if !ok {
			panic("unknown experiment " + id) // sweepIDs are constants
		}
		for _, t := range e.Run(r) {
			out.WriteString(t.String())
		}
		pc.lap(timedPart)
	}
	return out.String()
}

// sweepOnce makes one pass in a fresh directory under b.dir, timing its
// parts with pc (nil in the traced run). With traced, the checkpoint runner
// carries the runner metrics.
func sweepOnce(b *bench, sc exp.Scale, pass int, traced bool, pc *passClock) (sweepPass, error) {
	var p sweepPass
	dir := filepath.Join(b.dir, fmt.Sprintf("sweep-%d", pass))
	defer os.RemoveAll(dir)
	man := sweepManifest(sc)

	st, err := store.Create(dir, man)
	if err != nil {
		return p, err
	}
	r := newSweepRunner(sc, st)
	var jm *runner.Metrics
	if traced {
		jm = r.EnableMetrics(metrics.NewRegistry())
	}
	pc.lap(setupPart)

	t1 := time.Now()
	tables := runExperiments(r, pc)
	p.checkpoint = time.Since(t1)
	fails := r.Failures()
	if jm != nil {
		p.jobs, p.busy = float64(jm.Completed.Value()), jm.Attempts.Sum()
	}
	p.records = st.Len()
	if err := st.Close(); err != nil {
		return p, err
	}
	if p.bytes, err = dirBytes(dir); err != nil {
		return p, err
	}
	pc.lap(untimed)

	st2, err := store.Open(dir, man)
	if err != nil {
		return p, err
	}
	r2 := newSweepRunner(sc, st2)
	pc.lap(setupPart)

	t3 := time.Now()
	resumed := runExperiments(r2, pc)
	p.resume = time.Since(t3)
	if err := st2.Close(); err != nil {
		return p, err
	}

	ck := b.check
	for _, f := range fails {
		ck.that("sweep job "+f.Key+": "+f.Err.Error(), false)
	}
	for i := 0; i < p.records; i++ {
		ck.that("sweep job", true)
	}
	ck.that("sweep resume replays every job", r2.ResumedJobs() == p.records && len(r2.Failures()) == 0)
	ck.digest("sweep/tables", []byte(tables))
	ck.equal("sweep resumed tables", []byte(resumed), []byte(tables))
	return p, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int, error) {
	n := 0
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += int(info.Size())
		}
		return err
	})
	return n, err
}

// runSweep is the sweep workload's end-to-end measurement.
func runSweep(b *bench) error {
	sc := sweepScale(b.seed)
	var passes []*passClock
	for pass := 0; pass < minIters || b.more(); pass++ {
		pc := newPassClock(nproc)
		if _, err := sweepOnce(b, sc, pass, false, pc); err != nil {
			return err
		}
		passes = append(passes, pc)
	}
	b.endToEnd(passes)
	return nil
}

// sweepTrace is the sweep part of the traced run: untraced and traced
// passes alternate until deadline.
func sweepTrace(b *bench, deadline time.Time) error {
	sc := sweepScale(b.seed)
	var plain, traced, ckpt, resume, busy, idle []float64
	var last sweepPass
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		u, err := sweepOnce(b, sc, 2*pass, false, nil)
		if err != nil {
			return err
		}
		t, err := sweepOnce(b, sc, 2*pass+1, true, nil)
		if err != nil {
			return err
		}
		plain = append(plain, (u.checkpoint + u.resume).Seconds())
		traced = append(traced, (t.checkpoint + t.resume).Seconds())
		ckpt = append(ckpt, u.checkpoint.Seconds(), t.checkpoint.Seconds())
		resume = append(resume, u.resume.Seconds(), t.resume.Seconds())
		busy = append(busy, t.busy)
		idle = append(idle, 1-t.busy/(float64(nproc)*t.checkpoint.Seconds()))
		last = t
	}
	b.add("trace_overhead.sweep", "ratio", median(traced)/median(plain)-1)
	b.add("runner.jobs", "count", last.jobs)
	b.add("runner.busy_s", "s", median(busy))
	b.add("runner.idle_share", "ratio", median(idle))
	b.add("store.records", "count", float64(last.records))
	b.add("store.bytes", "B", float64(last.bytes))
	b.add("sweep.checkpoint_s", "s", median(ckpt))
	b.add("sweep.resume_s", "s", median(resume))
	return nil
}
