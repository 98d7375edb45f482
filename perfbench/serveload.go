package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"streamline/internal/exp/store"
	"streamline/internal/metrics"
	"streamline/internal/serve"
)

// The serve workload's sizes. Every request of one iteration is repeated
// identically by the next, so iterations do equal work.
const (
	hotSpecs      = 6    // computed during set-up; the hit phase repeats them
	coldRequests  = 50   // distinct Specs, each computed and persisted
	hitRequests   = 2500 // one client over the hot set
	storeRequests = 1000 // one client over every stored Spec
	// storeLRU is the fresh server's LRU size: smaller than the stored set,
	// so a request cycling over that set always misses it.
	storeLRU = 4
)

// l2Rotation is the L2 prefetcher of each cold Spec in turn.
var l2Rotation = []string{"ipcp", "bingo", "spp"}

// serveSpecs returns the hot set followed by the cold Specs: short
// single-core runs without a temporal prefetcher, distinct by trace seed.
func serveSpecs(seed int64) []serve.Spec {
	base := 1 + rand.New(rand.NewSource(seed)).Int63n(1<<30)
	specs := make([]serve.Spec, hotSpecs+coldRequests)
	for i := range specs {
		sp := serve.Spec{
			Workload: "sphinx06", L2: l2Rotation[i%len(l2Rotation)], Temporal: "none",
			Footprint: 0.05, Warmup: 20_000, Measure: 60_000, LLCSets: 64, MetaKB: 16,
			Seed: base + int64(i),
		}
		if err := sp.Normalize(); err != nil {
			panic(err) // the fields above are constants
		}
		specs[i] = sp
	}
	return specs
}

// daemon is one in-process streamd on a loopback listener.
type daemon struct {
	srv    *serve.Server
	reg    *metrics.Registry
	http   *http.Server
	url    string
	served chan error
}

func startDaemon(cfg serve.Config) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cfg.Metrics = metrics.NewRegistry()
	d := &daemon{srv: serve.New(cfg), reg: cfg.Metrics, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	d.http = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.http.Serve(ln) }()
	return d, nil
}

// stop closes the listener and connections, drains the server and waits
// for the serving goroutine to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if derr := d.srv.Drain(ctx); err == nil {
		err = derr
	}
	if serr := <-d.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// status reads /statusz over HTTP.
func (d *daemon) status(c *http.Client) (serve.Status, error) {
	var st serve.Status
	resp, err := c.Get(d.url + "/statusz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// hist is a histogram's count and sum at one instant.
type hist struct {
	count uint64
	sum   float64
}

// stageNames are the request stages streamd times.
var stageNames = []string{"decode", "lookup", "queue_wait", "simulate", "marshal", "persist"}

// histograms snapshots the request and stage histograms of d.
func (d *daemon) histograms() map[string]hist {
	out := map[string]hist{}
	h := d.reg.Histogram("streamd_request_seconds", "", metrics.LatencyBuckets)
	out["request"] = hist{h.Count(), h.Sum()}
	for _, s := range stageNames {
		h := d.reg.Histogram("streamd_request_stage_seconds", "", metrics.LatencyBuckets, metrics.L("stage", s))
		out[s] = hist{h.Count(), h.Sum()}
	}
	return out
}

// meanMs is the mean in milliseconds of what a histogram observed between
// two snapshots.
func meanMs(before, after map[string]hist, name string) float64 {
	n := after[name].count - before[name].count
	if n == 0 {
		return 0
	}
	return (after[name].sum - before[name].sum) / float64(n) * 1e3
}

// reply is one client-observed request.
type reply struct {
	spec   int // index into the Spec list
	status int
	tier   string
	body   []byte
	rtt    time.Duration
}

// post sends one Spec and reads the whole reply.
func post(c *http.Client, url string, specs []serve.Spec, i int) reply {
	req, err := json.Marshal(specs[i])
	if err != nil {
		panic(err) // a Spec holds only numbers and strings
	}
	t0 := time.Now()
	resp, err := c.Post(url+"/simulate", "application/json", bytes.NewReader(req))
	if err != nil {
		return reply{spec: i, rtt: time.Since(t0)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{spec: i, status: resp.StatusCode, tier: resp.Header.Get("X-Streamd-Cache"), body: body, rtt: time.Since(t0)}
	if err != nil {
		r.status = 0
	}
	return r
}

// closedLoop sends the Specs at idx from `clients` callers, each sending
// its next request only after its previous reply.
func closedLoop(c *http.Client, url string, specs []serve.Spec, idx []int, clients int) []reply {
	out := make([]reply, len(idx))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(idx) {
					return
				}
				out[j] = post(c, url, specs, idx[j])
			}
		}()
	}
	wg.Wait()
	return out
}

// servePass is one serve iteration's timings and samples.
type servePass struct {
	cold, hit, stored time.Duration        // phase walls
	lat               map[string][]float64 // per phase, ms
	layers            map[string]float64   // traced passes only
	hitRatio          float64
	tiers             serve.Counters
}

// serveRun holds what outlives one iteration: the reference bodies.
type serveRun struct {
	specs []serve.Spec
	want  [][]byte // reference body per Spec, from the first iteration
}

// check verifies every reply of a phase: status 200, the expected tier and,
// once a reference exists, the reference bytes.
func (s *serveRun) check(ck *checker, phase, tier string, rs []reply) {
	for _, r := range rs {
		ok := r.status == http.StatusOK && r.tier == tier
		if ok && s.want[r.spec] == nil {
			s.want[r.spec] = r.body
		}
		ok = ok && bytes.Equal(r.body, s.want[r.spec])
		ck.that(fmt.Sprintf("serve %s request %d (status %d, tier %q)", phase, r.spec, r.status, tier), ok)
	}
}

func seq(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}

// cycle returns n indices cycling over [0, period).
func cycle(n, period int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % period
	}
	return out
}

// rtts extracts the round trips of rs in milliseconds.
func rtts(rs []reply) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(r.rtt) / 1e6
	}
	return out
}

// serveOnce makes one iteration: set up a store, a server and its hot set;
// then the cold, hit and store phases, timed by pc (nil in the traced run).
// With traced, stage histograms and /statusz are read at the phase
// boundaries.
func serveOnce(b *bench, s *serveRun, pass int, traced bool, pc *passClock) (p servePass, err error) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: nproc, MaxConnsPerHost: nproc}}
	defer client.CloseIdleConnections()
	dir := filepath.Join(b.dir, fmt.Sprintf("serve-%d", pass))
	defer os.RemoveAll(dir)
	ck := b.check

	st, err := store.Create(dir, serve.ServiceManifest())
	if err != nil {
		return p, err
	}
	defer func() {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}()
	d, err := startDaemon(serve.Config{Workers: nproc, Store: st})
	if err != nil {
		return p, err
	}
	hot := closedLoop(client, d.url, s.specs, seq(0, hotSpecs), nproc)
	pc.lap(setupPart)
	s.check(ck, "hot-set", "none", hot)

	p.lat = map[string][]float64{}
	p.layers = map[string]float64{}
	var h0 map[string]hist
	if traced {
		h0 = d.histograms()
	}
	t1 := time.Now()
	cold := closedLoop(client, d.url, s.specs, seq(hotSpecs, coldRequests), nproc)
	p.cold = time.Since(t1)
	pc.lap(timedPart)
	var h1 map[string]hist
	if traced {
		h1 = d.histograms()
	}
	t2 := time.Now()
	hit := closedLoop(client, d.url, s.specs, cycle(hitRequests, hotSpecs), 1)
	p.hit = time.Since(t2)
	pc.lap(timedPart)
	s.check(ck, "cold", "none", cold)
	s.check(ck, "hit", "memory", hit)
	p.lat["cold"], p.lat["hit"] = rtts(cold), rtts(hit)
	if traced {
		h2 := d.histograms()
		for _, stage := range []string{"queue_wait", "simulate", "marshal", "persist"} {
			p.layers["cold."+stage] = meanMs(h0, h1, stage)
		}
		p.layers["cold.transport"] = mean(p.lat["cold"]) - meanMs(h0, h1, "request")
		p.layers["hit.decode"] = meanMs(h1, h2, "decode")
		p.layers["hit.lookup"] = meanMs(h1, h2, "lookup")
		p.layers["hit.transport"] = mean(p.lat["hit"]) - meanMs(h1, h2, "request")
		first, err := d.status(client)
		if err != nil {
			d.stop()
			return p, err
		}
		p.tiers = first.Counters
	}
	if err := d.stop(); err != nil {
		return p, err
	}

	// A fresh server over the same store: every answer comes from the store.
	d2, err := startDaemon(serve.Config{Workers: nproc, Store: st, CacheEntries: storeLRU})
	if err != nil {
		return p, err
	}
	var h3 map[string]hist
	if traced {
		h3 = d2.histograms()
	}
	pc.lap(untimed)
	t3 := time.Now()
	stored := closedLoop(client, d2.url, s.specs, cycle(storeRequests, len(s.specs)), 1)
	p.stored = time.Since(t3)
	pc.lap(timedPart)
	s.check(ck, "store", "store", stored)
	p.lat["store"] = rtts(stored)
	if traced {
		h4 := d2.histograms()
		p.layers["store.decode"] = meanMs(h3, h4, "decode")
		p.layers["store.lookup"] = meanMs(h3, h4, "lookup")
		p.layers["store.transport"] = mean(p.lat["store"]) - meanMs(h3, h4, "request")
		second, err := d2.status(client)
		if err != nil {
			d2.stop()
			return p, err
		}
		p.tiers.StoreHits = second.StoreHits
		c := p.tiers
		hits := c.MemoryHits + c.StoreHits + c.Collapsed
		p.hitRatio = float64(hits) / float64(hits+c.Computed+c.Failed+c.Canceled)
	}
	return p, d2.stop()
}

// verifyDirect checks the reference bodies against BuildResult of direct
// in-process runs: every hot Spec and every tenth cold one.
func (s *serveRun) verifyDirect(ck *checker) error {
	var all []byte
	for i, sp := range s.specs {
		all = append(all, s.want[i]...)
		if i >= hotSpecs && (i-hotSpecs)%10 != 0 {
			continue
		}
		sys, err := buildSystem(sp, nil)
		if err != nil {
			return err
		}
		body, err := json.Marshal(serve.BuildResult(sp, sys.Run()))
		if err != nil {
			return err
		}
		ck.equal(fmt.Sprintf("serve body %d equals a direct run", i), s.want[i], body)
	}
	ck.digest("serve/bodies", all)
	return nil
}

// runServe is the serve workload's end-to-end measurement.
func runServe(b *bench) error {
	s := &serveRun{specs: serveSpecs(b.seed)}
	s.want = make([][]byte, len(s.specs))
	var passes []*passClock
	for pass := 0; pass < minIters || b.more(); pass++ {
		pc := newPassClock(nproc)
		if _, err := serveOnce(b, s, pass, false, pc); err != nil {
			return err
		}
		passes = append(passes, pc)
	}
	if err := s.verifyDirect(b.check); err != nil {
		return err
	}
	b.endToEnd(passes)
	return nil
}

// serveTrace is the serve part of the traced run: untraced and traced
// iterations alternate until deadline. Latency percentiles pool the client
// round trips of both, since reading the histograms between phases adds
// nothing to a request.
func serveTrace(b *bench, deadline time.Time) error {
	s := &serveRun{specs: serveSpecs(b.seed)}
	s.want = make([][]byte, len(s.specs))
	var plain, traced []float64
	lat := map[string][]float64{}
	layers := map[string][]float64{}
	var last servePass
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		u, err := serveOnce(b, s, 2*pass, false, nil)
		if err != nil {
			return err
		}
		t, err := serveOnce(b, s, 2*pass+1, true, nil)
		if err != nil {
			return err
		}
		plain = append(plain, (u.cold + u.hit + u.stored).Seconds())
		traced = append(traced, (t.cold + t.hit + t.stored).Seconds())
		for _, p := range []servePass{u, t} {
			for k, v := range p.lat {
				lat[k] = append(lat[k], v...)
			}
		}
		for k, v := range t.layers {
			layers[k] = append(layers[k], v)
		}
		last = t
	}
	if err := s.verifyDirect(b.check); err != nil {
		return err
	}
	b.add("trace_overhead.serve", "ratio", median(traced)/median(plain)-1)
	for _, q := range []struct {
		phase string
		tail  int // percentile, 0 for none
	}{{"hit", 99}, {"cold", 90}, {"store", 0}} {
		xs := lat[q.phase]
		b.add("serve."+q.phase+".samples", "count", float64(len(xs)))
		b.add("serve."+q.phase+".p50_ms", "ms", median(xs))
		if q.tail > 0 {
			b.check.that("serve "+q.phase+" tail has ten samples beyond it", len(xs)*(100-q.tail) >= 1000)
			b.add(fmt.Sprintf("serve.%s.p%d_ms", q.phase, q.tail), "ms", quantile(xs, float64(q.tail)/100))
		}
	}
	for _, k := range []string{"hit.decode", "hit.lookup", "hit.transport", "store.decode", "store.lookup", "store.transport",
		"cold.queue_wait", "cold.simulate", "cold.marshal", "cold.persist", "cold.transport"} {
		b.add("serve."+k+"_ms", "ms", median(layers[k]))
	}
	c := last.tiers
	b.add("serve.tier.memory", "count", float64(c.MemoryHits))
	b.add("serve.tier.store", "count", float64(c.StoreHits))
	b.add("serve.tier.computed", "count", float64(c.Computed))
	b.add("serve.tier.collapsed", "count", float64(c.Collapsed))
	b.add("serve.tier.rejected", "count", float64(c.Rejected))
	b.add("serve.hit_ratio", "ratio", last.hitRatio)
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
