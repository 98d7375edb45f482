// Command perfbench is the repository's benchmark. It drives the simulator
// only through its public entry points and times host work; every simulated
// statistic it produces is checked for byte-identity, never timed.
//
// Usage (from the repository root; see README.md in this directory):
//
//	bash perfbench/run.sh --workload sim|sweep|serve --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones of
// the named workload, measured untraced; with --trace 1 the process runs the
// traced measurement of every workload and prints the per-layer metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// defaultSeed is the seed whose outputs are pinned in golden.go.
const defaultSeed = 1

// minIters is the fewest timed iterations a run makes, however short
// --seconds is, so every median has something to take the middle of.
const minIters = 3

// nproc caps every source of parallelism: GOMAXPROCS, runner jobs, server
// workers and client connections.
var nproc = runtime.NumCPU()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to measure: sim, sweep or serve")
	seed := fs.Int64("seed", defaultSeed, "seed the workload inputs are generated from")
	seconds := fs.Int("seconds", 10, "how long the timed phase runs")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer measurement of every workload")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for stores and scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	measure, ok := measurements[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload sim|sweep|serve, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(nproc)
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, *workload+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := newBench(*seed, time.Duration(*seconds)*time.Second, dir, stderr)
	if *traced == 1 {
		err = traceAll(b)
	} else {
		err = measure(b)
		b.add("peak_rss_mb", "MB", peakRSSMB())
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b.print(stdout)
	return 0
}

// measurements maps each workload name to its end-to-end measurement.
var measurements = map[string]func(*bench) error{
	"sim":   runSim,
	"sweep": runSweep,
	"serve": runServe,
}

// traceAll is the traced run: each workload's traced measurement in turn,
// with an equal share of the time.
func traceAll(b *bench) error {
	share := b.budget / 3
	start := time.Now()
	for i, f := range []func(*bench, time.Time) error{simTrace, sweepTrace, serveTrace} {
		if err := f(b, start.Add(time.Duration(i+1)*share)); err != nil {
			return err
		}
	}
	return nil
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench carries one run's inputs, its correctness checker and its metrics.
type bench struct {
	seed    int64
	budget  time.Duration
	start   time.Time
	dir     string
	log     io.Writer
	check   *checker
	metrics map[string]metric
	order   []string
}

func newBench(seed int64, budget time.Duration, dir string, log io.Writer) *bench {
	return &bench{
		seed: seed, budget: budget, start: time.Now(), dir: dir, log: log,
		check:   newChecker(seed == defaultSeed, golden, log),
		metrics: map[string]metric{},
	}
}

// more reports whether the timed phase still has time left.
func (b *bench) more() bool { return time.Since(b.start) < b.budget }

// add records a metric; print lists them in the order first added.
func (b *bench) add(name, unit string, v float64) {
	if _, dup := b.metrics[name]; !dup {
		b.order = append(b.order, name)
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// endToEnd records the metrics every workload reports: medians over the
// passes, in reference-host seconds (see hostref.go). The raw host median
// of the wall time goes to the log.
func (b *bench) endToEnd(passes []*passClock) {
	var walls, cpus, setups, raw []float64
	for _, p := range passes {
		walls = append(walls, p.wall)
		cpus = append(cpus, p.cpu)
		setups = append(setups, p.setup)
		raw = append(raw, p.rawWall)
	}
	b.add("wall_s", "s", median(walls))
	b.add("cpu_s", "s", median(cpus))
	b.add("setup_s", "s", median(setups))
	fmt.Fprintf(b.log, "%d passes; raw host wall_s median %.5f\n", len(passes), median(raw))
}

// print writes every metric as a readable line, then the result line.
func (b *bench) print(w io.Writer) {
	for _, name := range b.order {
		m := b.metrics[name]
		fmt.Fprintf(w, "%-58s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", b.check.attempted, b.check.failed)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.check.failed == 0 && b.check.attempted > 0, b.check.attempted, b.check.failed, b.metrics})
	if err != nil {
		panic(err) // only finite numbers and strings
	}
	fmt.Fprintf(w, "%s\n", line)
}

// checker counts operations and the ones whose output was wrong.
type checker struct {
	useGolden bool
	golden    map[string]string
	first     map[string]string // digest of each output's first occurrence
	log       io.Writer

	attempted, failed int
}

func newChecker(useGolden bool, golden map[string]string, log io.Writer) *checker {
	return &checker{useGolden: useGolden, golden: golden, first: map[string]string{}, log: log}
}

// that counts one operation, failed unless ok.
func (c *checker) that(what string, ok bool) bool {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(c.log, "FAILED: %s\n", what)
	}
	return ok
}

// equal counts one operation whose output got must be want byte for byte.
func (c *checker) equal(what string, got, want []byte) bool {
	return c.that(what, string(got) == string(want))
}

// digest counts one operation producing the output named name. Its SHA-256
// must match every earlier output of that name in this run and, at the
// default seed, the pinned digest.
func (c *checker) digest(name string, out []byte) bool {
	sum := sha256.Sum256(out)
	got := hex.EncodeToString(sum[:])
	ok := true
	if prev, seen := c.first[name]; seen {
		ok = prev == got
	} else {
		c.first[name] = got
		fmt.Fprintf(c.log, "digest %s %s\n", name, got)
	}
	if want := c.golden[name]; c.useGolden && want != got {
		ok = false
	}
	return c.that(name+" digest", ok)
}

// median returns the middle of xs (the mean of the two middle values for an
// even count).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
