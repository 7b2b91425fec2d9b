package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"reramtest/internal/campaign"
	"reramtest/internal/engine"
	"reramtest/internal/fleet"
	"reramtest/internal/health"
	"reramtest/internal/monitor"
	"reramtest/internal/netserve"
	"reramtest/internal/nn"
	"reramtest/internal/reram"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
	"reramtest/internal/testgen"
)

// The serve workloads drive the HTTP tier closed loop: each client sends its
// next request when the previous reply has been read. nproc is 2 on the
// reference host, so two clients over at most two connections.
const (
	clients     = 2
	bodies      = 1024 // distinct pre-encoded request bodies, cycled
	serveWarmup = time.Second
	// requests per group: a p99 needs ≥ 1000, and a group should span a
	// second or more of traffic, so it holds many GC cycles and ticks
	mlpGroup   = 20000
	lenetGroup = 2000 // ten ticks per group
	// The tail percentile. serve-lenet5 reports the p99, where requests
	// that waited out a monitoring tick on a station lock show. On
	// serve-mlp about 1% of requests take ≈4 ms instead of ≈0.1 ms (they
	// wait out a time slice), so its p99 falls on one side of that
	// population or the other from run to run (0.24–0.41 ms over ten
	// seeds); its p90 does not.
	mlpTail       = 0.90
	lenetTail     = 0.99
	deadlineMs    = "2000"
	idHeader      = "X-Bench-Id"
	lenetTickReqs = 200 // serve-lenet5: one Frontend.Tick per this many completed requests
	shards        = 2
	devicesPer    = 2
)

// tenants is the request mix: each tenant's weight, and the share of its
// requests sent at monitor priority.
var tenants = []struct {
	name     string
	weight   int
	monitorP float64
}{{"alpha", 3, 0.05}, {"beta", 2, 0}, {"gamma", 1, 0.10}}

// body is one pre-encoded request.
type body struct {
	json []byte
	rows int
	x    []float64 // the rows, concatenated (what the device receives)
	hash uint64    // hashFloats(x): joins device spans to requests
}

// makeBodies generates the seeded request bodies: a weighted tenant mix, 1–3
// rows each, a small monitor-priority share. The mix is stratified — every
// seed gets exactly the same number of bodies per tenant, per row count and
// at monitor priority, in its own order and with its own rows — so the
// seed changes the inputs and not the amount of work.
func makeBodies(r *rng.RNG, row func(dst []float64), inDim int) ([]body, error) {
	weights := make([]int, len(tenants))
	for i, t := range tenants {
		weights[i] = t.weight
	}
	tenantOf := stratify(r, bodies, weights)
	rowsOf := stratify(r, bodies, []int{1, 1, 1})
	seen := make([]int, len(tenants))
	counts := make([]int, len(tenants))
	for _, ti := range tenantOf {
		counts[ti]++
	}
	out := make([]body, bodies)
	for i := range out {
		ti := tenantOf[i]
		prio := "bulk"
		if float64(seen[ti]) < math.Round(tenants[ti].monitorP*float64(counts[ti])) {
			prio = "monitor"
		}
		seen[ti]++
		n := 1 + rowsOf[i]
		x := make([]float64, n*inDim)
		rows := make([][]float64, n)
		for j := range rows {
			rows[j] = x[j*inDim : (j+1)*inDim]
			row(rows[j])
		}
		enc, err := json.Marshal(struct {
			Tenant   string      `json:"tenant"`
			Priority string      `json:"priority"`
			Input    [][]float64 `json:"input"`
		}{tenants[ti].name, prio, rows})
		if err != nil {
			return nil, err
		}
		out[i] = body{json: enc, rows: n, x: x, hash: hashFloats(x)}
	}
	return out, nil
}

// stratify returns n category indices in a seeded order, category k
// occurring in proportion to weights[k]; the rounding remainder goes to the
// first categories.
func stratify(r *rng.RNG, n int, weights []int) []int {
	total := 0
	for _, w := range weights {
		total += w
	}
	out := make([]int, 0, n)
	for k, w := range weights {
		for j := 0; j < n*w/total; j++ {
			out = append(out, k)
		}
	}
	for k := 0; len(out) < n; k++ {
		out = append(out, k)
	}
	shuffled := make([]int, n)
	for i, p := range r.Perm(n) {
		shuffled[i] = out[p]
	}
	return shuffled
}

// fnv64 is FNV-1a.
func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// hashFloats is FNV-1a over the little-endian bit patterns of xs.
func hashFloats(xs []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range xs {
		bits := math.Float64bits(v)
		for k := 0; k < 8; k++ {
			h ^= bits >> (8 * k) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// probsText is the value of the "probs" field of a 200 reply, which the
// tier always writes first; nil when the reply has no such prefix.
func probsText(reply []byte) []byte {
	const prefix = `{"probs":`
	if !bytes.HasPrefix(reply, []byte(prefix)) {
		return nil
	}
	end := bytes.Index(reply, []byte("]]"))
	if end < 0 {
		return nil
	}
	return reply[len(prefix) : end+2]
}

// benchDevice wraps a fleet device so the benchmark sees every call into its
// engine: it counts serving attempts and, in a traced run, records one span
// per call.
type benchDevice struct {
	fleet.Device
	tr       *tracer
	patterns *tensor.Tensor // monitor readouts pass exactly this batch
	serving  atomic.Int64   // serving attempts
}

func (d *benchDevice) CostCounter() *reram.Counter {
	return d.Device.(fleet.CostMetered).CostCounter()
}

func (d *benchDevice) Infer() monitor.Infer {
	inner := d.Device.Infer()
	return func(x *tensor.Tensor) *tensor.Tensor {
		readout := x == d.patterns
		if !readout {
			d.serving.Add(1)
		}
		if !d.tr.on() {
			return inner(x)
		}
		start := d.tr.now()
		out := inner(x)
		if readout {
			d.tr.addN("engine.patterns", 0, -1, start, 0, x.Dim(0))
		} else {
			d.tr.addN("engine.serve", 0, -1, start, hashFloats(x.Data()), x.Dim(0))
		}
		return out
	}
}

// lenetDevice is an engine-backed LeNet-5 accelerator owned by the
// benchmark: one compiled plan per device, monitored on the C-TP patterns.
type lenetDevice struct {
	id   string
	net  *nn.Network
	pats *testgen.PatternSet
	eng  *engine.Engine
}

func (d *lenetDevice) ID() string                    { return d.id }
func (d *lenetDevice) Reference() *nn.Network        { return d.net }
func (d *lenetDevice) Patterns() *testgen.PatternSet { return d.pats }
func (d *lenetDevice) Repairer() health.Repairer     { return nil }
func (d *lenetDevice) CostCounter() *reram.Counter   { return d.eng.Counter() }
func (d *lenetDevice) Infer() monitor.Infer          { return d.eng.Probs }

// tier is the serving stack under test, listening on loopback.
type tier struct {
	front   *netserve.Frontend
	devices []*benchDevice
	ref     *nn.Network // every device serves this model
	hs      *http.Server
	served  chan error
	url     string
	bodies  []body
	tr      *tracer
}

// newTier commissions the stock 2-shard tier over the given devices, exactly
// as cmd/served does (the network soak's fleet, serve and net settings),
// with a per-tenant quota far above any rate two clients reach.
func newTier(devs [][]fleet.Device, ref *nn.Network, bs []body, tr *tracer) (*tier, error) {
	base := campaign.DefaultNetSoakConfig()
	ncfg := base.Net
	ncfg.Quota = netserve.QuotaConfig{Rate: 1e6, Burst: 1e6}
	ncfg.RetryMax = 1
	ncfg.Policy = netserve.HashTenant
	t := &tier{ref: ref, bodies: bs, tr: tr}
	specs := make([]netserve.ShardSpec, len(devs))
	for i := range specs {
		wrapped := make([]fleet.Device, len(devs[i]))
		for j, d := range devs[i] {
			bd := &benchDevice{Device: d, tr: tr, patterns: d.Patterns().X}
			t.devices = append(t.devices, bd)
			wrapped[j] = bd
		}
		specs[i] = netserve.ShardSpec{Name: fmt.Sprintf("shard-%d", i), Devices: wrapped,
			Fleet: base.Fleet, Serve: base.Serve}
	}
	f, err := netserve.New(specs, ncfg)
	if err != nil {
		return nil, err
	}
	t.front = f
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Close()
		return nil, err
	}
	t.url = "http://" + ln.Addr().String() + "/v1/infer"
	h := f.Handler()
	t.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.on() {
			h.ServeHTTP(w, r)
			return
		}
		start := tr.now()
		h.ServeHTTP(w, r)
		id, _ := strconv.ParseInt(r.Header.Get(idHeader), 10, 64)
		tr.add("netserve.handler", id, -1, start, 0)
	})}
	t.served = make(chan error, 1)
	go func() { t.served <- t.hs.Serve(ln) }()
	return t, nil
}

// Close stops the listener, then drains the tier. The caller closes its
// client connections first, so Shutdown finds no idle-but-new connection to
// wait out.
func (t *tier) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := t.hs.Shutdown(ctx)
	if serr := <-t.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, t.front.Close())
}

// sample is one request of a measured window as the client saw it. The
// reply itself is not kept: probs is the FNV-1a hash of its probs text,
// checked after the window against the same text encoded from a direct
// engine call.
type sample struct {
	idx    int64 // completion order within the window
	rtt    time.Duration
	probs  uint64
	body   int32
	bytes  int32 // reply body length
	status int16 // 0: no reply
	device uint8 // index into the client's served-by names
}

// client is one closed-loop caller with its own connection.
type client struct {
	hc      *http.Client
	tp      *http.Transport
	buf     bytes.Buffer
	samples []sample
	devices map[string]uint8 // X-Served-By value → index
	names   []string
}

func newClient() *client {
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tp}, tp: tp,
		samples: make([]sample, 0, 1<<18), devices: map[string]uint8{}}
}

// device interns a served-by value.
func (c *client) device(servedBy string) uint8 {
	i, ok := c.devices[servedBy]
	if !ok {
		i = uint8(len(c.names))
		c.devices[servedBy] = i
		c.names = append(c.names, servedBy)
	}
	return i
}

// do sends one request and returns what the client saw of it.
func (c *client) do(t *tier, id int64, bi int) sample {
	b := &t.bodies[bi]
	smp := sample{body: int32(bi)}
	start := time.Now()
	tstart := t.tr.now()
	req, err := http.NewRequest(http.MethodPost, t.url, bytes.NewReader(b.json))
	if err != nil {
		return smp
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(netserve.DeadlineHeader, deadlineMs)
	req.Header.Set(idHeader, strconv.FormatInt(id, 10))
	resp, err := c.hc.Do(req)
	if err != nil {
		return smp
	}
	c.buf.Reset()
	_, rerr := c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	smp.rtt = time.Since(start)
	t.tr.add("bench.request", id, -1, tstart, 0)
	if rerr != nil {
		return smp
	}
	smp.status, smp.bytes = int16(resp.StatusCode), int32(c.buf.Len())
	smp.probs = fnv64(probsText(c.buf.Bytes()))
	smp.device = c.device(resp.Header.Get("X-Served-By"))
	return smp
}

// ticker runs Frontend.Tick concurrently with traffic, once per every
// lenetTickReqs completed requests, so monitoring work per request is fixed.
type ticker struct {
	due  atomic.Int64
	kick chan struct{}
	stop chan struct{}
	done chan struct{}
	ran  int64
}

func startTicker(t *tier) *ticker {
	tk := &ticker{kick: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(tk.done)
		drain := func() {
			for tk.ran < tk.due.Load() {
				tk.ran++
				start := t.tr.now()
				t.front.Tick()
				t.tr.add("fleet.tick", tk.ran, -1, start, 0)
			}
		}
		for {
			select {
			case <-tk.kick:
				drain()
			case <-tk.stop:
				drain()
				return
			}
		}
	}()
	return tk
}

// completed notes one completed request.
func (tk *ticker) completed(n int64) {
	if tk == nil || n%lenetTickReqs != 0 {
		return
	}
	tk.due.Add(1)
	select {
	case tk.kick <- struct{}{}:
	default:
	}
}

// close runs every tick still due and stops the ticker.
func (tk *ticker) close() {
	if tk == nil {
		return
	}
	close(tk.stop)
	<-tk.done
}

// phase drives the tier closed loop for d. With a recorder it is a
// measured window: it also runs until minGroups groups are complete, and
// every request is kept as a sample.
func phase(t *tier, cs []*client, tk *ticker, next, completed *atomic.Int64, d time.Duration, rec *recorder) {
	deadline := time.Now().Add(d)
	var inWindow atomic.Int64
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) || (rec != nil && rec.groups() < minGroups) {
				id := next.Add(1) - 1
				smp := c.do(t, id, int(id%int64(len(t.bodies))))
				tk.completed(completed.Add(1))
				if rec != nil {
					n := inWindow.Add(1)
					smp.idx = n - 1
					c.samples = append(c.samples, smp)
					rec.done(n)
				}
			}
		}(c)
	}
	wg.Wait()
}

// serveRun is one serve workload's measured state.
type serveRun struct {
	t     *tier
	cs    []*client
	tk    *ticker
	next  atomic.Int64
	done  atomic.Int64
	group int     // requests per group
	tail  float64 // the tail percentile
	ticks bool    // run Frontend.Tick alongside the traffic
	setup setupTimes
	lenet *lenet // nil for the MLP tier
}

func runServeMLP(cfg runConfig) (*outcome, error) {
	tr := traceFor(cfg)
	t, times, err := repeatSetup(func() (*tier, *lenet, error) {
		devs := make([][]fleet.Device, shards)
		for i := range devs {
			// cmd/served's devices at its default seed: the model is part of
			// the system, the workload seed shapes only the traffic
			devs[i] = campaign.EngineDevices(1+int64(i), devicesPer, fmt.Sprintf("s%d", i))
		}
		r := rng.New(cfg.seed)
		bs, err := makeBodies(r, func(dst []float64) {
			for i := range dst {
				dst[i] = r.Float64()
			}
		}, campaign.StockInDim)
		if err != nil {
			return nil, nil, err
		}
		t, err := newTier(devs, devs[0][0].Reference(), bs, tr)
		return t, nil, err
	})
	if err != nil {
		return nil, err
	}
	return serveWorkload(cfg, &serveRun{t: t, setup: times, group: mlpGroup, tail: mlpTail}, tr)
}

func runServeLeNet5(cfg runConfig) (*outcome, error) {
	tr := traceFor(cfg)
	var l *lenet
	t, times, err := repeatSetup(func() (*tier, *lenet, error) {
		var err error
		l, err = buildLeNet(false)
		if err != nil {
			return nil, nil, err
		}
		devs := make([][]fleet.Device, shards)
		for i := range devs {
			for j := 0; j < devicesPer; j++ {
				net := l.net.Clone()
				devs[i] = append(devs[i], &lenetDevice{id: fmt.Sprintf("s%d-lenet-%02d", i, j), net: net,
					pats: l.ctp, eng: engine.MustCompile(net, engine.Options{Workers: 1})})
			}
		}
		r := rng.New(cfg.seed)
		dim := l.test.SampleDim()
		bs, err := makeBodies(r, func(dst []float64) {
			copy(dst, l.test.X.Data()[r.Intn(l.test.N())*dim:][:dim])
		}, dim)
		if err != nil {
			return nil, nil, err
		}
		t, err := newTier(devs, l.net, bs, tr)
		return t, l, err
	})
	if err != nil {
		return nil, err
	}
	return serveWorkload(cfg, &serveRun{t: t, setup: times, lenet: l, group: lenetGroup, tail: lenetTail, ticks: true}, tr)
}

// serveWorkload warms the tier up, measures it (untraced, then traced when
// asked), checks every recorded reply and tears the tier down.
func serveWorkload(cfg runConfig, s *serveRun, tr *tracer) (o *outcome, err error) {
	o = newOutcome()
	o.trace = tr
	t := s.t
	for i := 0; i < clients; i++ {
		s.cs = append(s.cs, newClient())
	}
	defer func() {
		for _, c := range s.cs {
			c.tp.CloseIdleConnections()
		}
		if cerr := t.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("tier teardown: %w", cerr)
		}
	}()
	if s.ticks {
		s.tk = startTicker(t)
	}
	phase(t, s.cs, s.tk, &s.next, &s.done, serveWarmup, nil)

	plain, err := s.measure(cfg)
	if err != nil {
		s.tk.close()
		return nil, err
	}
	o.endToEnd(s.setup.total, plain.gs)
	if cfg.trace {
		tr.enable()
		traced, err := s.measure(cfg)
		tr.disable()
		if err != nil {
			s.tk.close()
			return nil, err
		}
		s.layers(o, plain, traced)
	}
	s.tk.close()
	s.check(o)
	if s.lenet != nil {
		o.say("LeNet-5 test accuracy %.1f%%", 100*s.lenet.acc)
	}
	return o, nil
}

// measured is one measured window of a serve workload.
type measured struct {
	gs        groupStats
	ok        int // requests answered 200
	stats     netserve.Stats
	shardDiff []uint64 // hedges, retries over the window
	attempts  int64
	ticks     int64
}

func (s *serveRun) measure(cfg runConfig) (measured, error) {
	var m measured
	for _, c := range s.cs {
		c.samples = c.samples[:0]
	}
	before := s.t.front.Stats()
	hedges0, retries0 := s.shardCounts()
	att0 := s.deviceAttempts()
	var ticks0 int64
	if s.tk != nil {
		ticks0 = s.tk.due.Load()
	}
	rec := newRecorder(s.group)
	phase(s.t, s.cs, s.tk, &s.next, &s.done, cfg.seconds, rec)
	after := s.t.front.Stats()
	hedges1, retries1 := s.shardCounts()
	att1 := s.deviceAttempts()
	if s.tk != nil {
		m.ticks = s.tk.due.Load() - ticks0
	}
	m.stats = netserve.Stats{Received: after.Received - before.Received, Admitted: after.Admitted - before.Admitted,
		Completed: after.Completed - before.Completed}
	m.shardDiff = []uint64{hedges1 - hedges0, retries1 - retries0}
	m.attempts = att1 - att0
	var lat []float64
	for _, c := range s.cs {
		for _, smp := range c.samples {
			for int64(len(lat)) <= smp.idx {
				lat = append(lat, 0)
			}
			// a request without a 200 misses every latency limit
			lat[smp.idx] = math.Inf(1)
			if smp.status == http.StatusOK {
				lat[smp.idx] = ms(smp.rtt)
				m.ok++
			}
		}
	}
	var err error
	m.gs, err = rec.stats(lat, s.tail)
	return m, err
}

func (s *serveRun) shardCounts() (hedges, retries uint64) {
	for _, st := range s.t.front.Status() {
		hedges += st.Stats.Hedges
		retries += st.Stats.Retries
	}
	return hedges, retries
}

func (s *serveRun) deviceAttempts() (serving int64) {
	for _, d := range s.t.devices {
		serving += d.serving.Load()
	}
	return serving
}

// check verifies, outside the timed window, every reply the last window
// recorded: status 200, and probs equal bit for bit to a direct engine.Probs
// call on the same rows. encoding/json writes each float64 as the shortest
// decimal that reads back to the same bits, so equal probs text means equal
// bits. It also checks the tier's own accounting.
func (s *serveRun) check(o *outcome) {
	eng := engine.MustCompile(s.t.ref.Clone(), engine.Options{Workers: 1})
	want := make(map[int32]uint64)
	for _, c := range s.cs {
		for _, smp := range c.samples {
			o.attempted++
			if smp.status != http.StatusOK {
				o.failed++
				continue
			}
			h, ok := want[smp.body]
			if !ok {
				b := &s.t.bodies[smp.body]
				k := len(b.x) / b.rows
				probs := eng.Probs(tensor.FromSlice(append([]float64(nil), b.x...), b.rows, k))
				rows := make([][]float64, b.rows)
				for i := range rows {
					rows[i] = probs.Data()[i*probs.Dim(1) : (i+1)*probs.Dim(1)]
				}
				text, err := json.Marshal(rows)
				if err != nil {
					o.fail("encode the direct engine.Probs rows: %v", err)
					return
				}
				h = fnv64(text)
				want[smp.body] = h
			}
			if smp.probs != h {
				o.failed++
			}
		}
	}
	if o.failed > 0 {
		o.fail("%d of %d requests failed or returned probs that differ from a direct engine.Probs call", o.failed, o.attempted)
	}
	st := s.t.front.Stats()
	if st.Internal != 0 || st.QuotaRejected != 0 || st.Received != st.Invalid+st.QuotaRejected+st.ClosedRejected+st.Admitted {
		o.fail("tier accounting: %+v", st)
	}
}

// layers derives the per-layer metrics from the traced window.
func (s *serveRun) layers(o *outcome, plain, traced measured) {
	tr := s.t.tr
	ops := float64(traced.ok)
	o.layer("netserve.received", "count", float64(traced.stats.Received))
	o.layer("netserve.admitted", "count", float64(traced.stats.Admitted))
	o.layer("netserve.refused", "count", float64(traced.stats.Received-traced.stats.Admitted))
	var reqBytes, respBytes float64
	share := map[string]float64{}
	for _, c := range s.cs {
		for _, smp := range c.samples {
			reqBytes += float64(len(s.t.bodies[smp.body].json))
			respBytes += float64(smp.bytes)
			share[c.names[smp.device]]++
		}
	}
	o.layer("netserve.req_bytes", "bytes", reqBytes/ops)
	o.layer("netserve.resp_bytes", "bytes", respBytes/ops)
	maxShare := 0.0
	for _, n := range share {
		maxShare = max(maxShare, n/ops)
	}
	o.layer("fleet.device_share_max", "ratio", maxShare)

	o.layer("serve.attempts_per_req", "ratio", float64(traced.attempts)/ops)
	o.layer("serve.attempt_yield", "ratio", ops/float64(traced.attempts))
	o.layer("serve.hedges", "count", float64(traced.shardDiff[0]))
	o.layer("serve.retries", "count", float64(traced.shardDiff[1]))
	if s.ticks {
		o.layer("fleet.tick_ms", "ms", tr.meanMs("fleet.tick"))
		o.layer("fleet.ticks", "count", float64(traced.ticks))
		o.layer("engine.patterns_ms", "ms", tr.meanMs("engine.patterns"))
	}

	j := joinRequests(tr, s.t.bodies)
	o.layer("netserve.handler_us", "us", 1e3*tr.meanMs("netserve.handler"))
	o.layer("netserve.handler_self_us", "us", 1e3*j.handlerSelf)
	o.layer("bench.client_us", "us", 1e3*j.clientSelf)
	serveMs, _ := tr.sumMs("engine.serve")
	rows, patRows := 0, 0
	for _, sp := range tr.spans {
		switch sp.Name {
		case "engine.serve":
			rows += sp.N
		case "engine.patterns":
			patRows += sp.N
		}
	}
	if rows > 0 {
		o.layer("engine.serve_us_per_row", "us", 1e3*serveMs/float64(rows))
	}
	o.layer("engine.rows", "count", float64(rows+patRows))
	o.runtimeLayers(traced.gs.whole, traced.ok)
	o.layer("bench.trace_overhead", "ratio", plain.gs.opsPerS/traced.gs.opsPerS)
	if s.lenet != nil {
		o.setupLayers(s.setup)
		nnLayers(o, s.lenet)
	}
	o.say("request self times: client %.1f us + handler %.1f us + device %.1f us = request %.1f us (gap %.3f us max; %d device calls after their reply)",
		1e3*j.clientSelf, 1e3*j.handlerSelf, 1e3*j.deviceSelf, 1e3*j.request, 1e3*j.maxGap, j.late)
	if j.unjoined > 0 || j.maxGap > 1e-3 {
		o.fail("trace: %d device spans matched no request; self times miss the request span by up to %.3f us",
			j.unjoined, 1e3*j.maxGap)
	}
}

// joined is the request-level self-time ledger of a traced serve window.
type joined struct {
	clientSelf, handlerSelf, deviceSelf, request float64 // mean ms per request
	maxGap                                       float64 // ms: |client+handler+device self − request|
	unjoined                                     int     // device calls no request carried
	late                                         int     // device calls that started after their request ended
}

// joinRequests links each handler span to its request span by id, and each
// device serving span to the handler span whose request carried the same
// rows and was in flight when the device call started. It then splits every
// request span into client, handler and device self time.
func joinRequests(tr *tracer, bs []body) joined {
	var j joined
	req := map[int64]int{}
	handler := map[int64]int{}
	for i, s := range tr.spans {
		switch s.Name {
		case "bench.request":
			req[s.ID] = i
		case "netserve.handler":
			handler[s.ID] = i
		}
	}
	byHash := map[uint64][]int{} // body hash → handler spans
	for id, hi := range handler {
		ri, ok := req[id]
		if !ok {
			continue
		}
		tr.spans[hi].Parent = ri
		key := bs[id%int64(len(bs))].hash
		byHash[key] = append(byHash[key], hi)
	}
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.Name != "engine.serve" {
			continue
		}
		// the request carrying these rows that started last before the call:
		// usually the one in flight, but an abandoned hedge can reach the
		// device after its request was answered (it then covers none of it)
		s.Parent = -1
		for _, hi := range byHash[s.Key] {
			h := tr.spans[hi]
			if h.Start <= s.Start && (s.Parent < 0 || h.Start > tr.spans[s.Parent].Start) {
				s.Parent, s.ID = hi, h.ID
			}
		}
		if s.Parent < 0 {
			j.unjoined++
		} else if s.Start > tr.spans[s.Parent].End {
			j.late++
		}
	}
	kids := tr.children()
	n := 0
	for id, ri := range req {
		hi, ok := handler[id]
		if !ok {
			continue
		}
		r, h := tr.spans[ri], tr.spans[hi]
		var devs []span
		for _, k := range kids[hi] {
			devs = append(devs, tr.spans[k])
		}
		cs := ms(selfTime(r, []span{h}))
		hs := ms(selfTime(h, devs))
		ds := ms(h.dur() - selfTime(h, devs)) // device time inside the handler
		j.clientSelf += cs
		j.handlerSelf += hs
		j.deviceSelf += ds
		j.request += ms(r.dur())
		j.maxGap = max(j.maxGap, math.Abs(cs+hs+ds-ms(r.dur())))
		n++
	}
	if n > 0 {
		j.clientSelf /= float64(n)
		j.handlerSelf /= float64(n)
		j.deviceSelf /= float64(n)
		j.request /= float64(n)
	}
	return j
}
