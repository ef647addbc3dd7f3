package main

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"spectra"
	"spectra/internal/obs"
	"spectra/internal/rpc"
)

const (
	service = "bench.echo"
	optype  = "recognize"
	// noiseBytes is the seeded buffer request bodies are cut from; it
	// exceeds the largest request so bodies start at varied offsets.
	noiseBytes = 256 << 10
	// maxRequest bounds every workload's request size (an 8 s utterance).
	maxRequest = 128000
	// warmOps trains the demand models and fills the connection pool and
	// decision cache before anything is timed.
	warmOps = 64
	// setups is how many times a normal run assembles the deployment;
	// setup_s is their median.
	setups = 15
	// qualitySamples is how many Begins are checked against
	// EvaluateAlternatives after the window.
	qualitySamples = 200
	// warmSeqBase numbers untimed operations outside the handler log.
	warmSeqBase = 1 << 62
	// traceEvery thins the traced pass's per-operation records on the
	// closed loop; maxClosedRate (ops/s) sizes their preallocated store.
	traceEvery    = 8
	maxClosedRate = 40000
)

// liveWorkload describes one live workload: its servers, how load arrives,
// and the shape of each operation's input.
type liveWorkload struct {
	name      string
	servers   int
	poolSize  int     // connections per server; 0 keeps the default
	callers   int     // closed loop with this many callers; 0 = open loop
	rate      float64 // open-loop arrivals per second
	respBytes int
	param     string
	// draw returns one operation's request size and parameter value.
	draw func(r *rand.Rand) (bytes int, param float64)
}

var liveSmall = liveWorkload{
	name: "live-small", servers: 1, callers: 2, respBytes: 64, param: "bytes",
	draw: func(*rand.Rand) (int, float64) { return 64, 64 },
}

// liveSpeech shapes requests like Janus utterances: length log-uniform over
// 0.5–8 s, 16,000 bytes of audio per second, ~40 B of text back.
var liveSpeech = liveWorkload{
	name: "live-speech", servers: 2, poolSize: 1, rate: 150, respBytes: 40, param: "seconds",
	draw: func(r *rand.Rand) (int, float64) {
		s := 0.5 * math.Pow(16, r.Float64())
		return int(16000 * s), s
	},
}

// opInput is one operation's generated input.
type opInput struct {
	bytes  int
	offset int // where the body starts in the noise buffer
	params map[string]float64
}

// arrival is one open-loop operation: due at time at after the window opens.
type arrival struct {
	at time.Duration
	in opInput
}

func (w *liveWorkload) input(r *rand.Rand) opInput {
	n, p := w.draw(r)
	return opInput{
		bytes:  n,
		offset: r.Intn(noiseBytes - n + 1),
		params: map[string]float64{w.param: p},
	}
}

func (w *liveWorkload) inputs(r *rand.Rand, n int) []opInput {
	out := make([]opInput, n)
	for i := range out {
		out[i] = w.input(r)
	}
	return out
}

// schedule fixes the open loop's arrivals for a window in advance: Poisson
// arrivals at w.rate, each with its own input.
func (w *liveWorkload) schedule(r *rand.Rand, window time.Duration) []arrival {
	var out []arrival
	for t := 0.0; ; {
		t += r.ExpFloat64() / w.rate
		at := time.Duration(t * float64(time.Second))
		if at >= window {
			return out
		}
		out = append(out, arrival{at: at, in: w.input(r)})
	}
}

// response is what the echo service returns for a request: a 40-byte text
// line naming the request's first and last 8 bytes and its length, padded
// to size. Client and server compute it independently.
func response(req []byte, size int) []byte {
	out := bytes.Repeat([]byte{'.'}, size)
	n := len(req)
	hex.Encode(out[0:16], req[:8])
	out[16] = ' '
	hex.Encode(out[17:33], req[n-8:])
	out[33] = ' '
	for i, v := 39, n; i >= 34; i, v = i-1, v/10 {
		out[i] = byte('0' + v%10)
	}
	return out
}

// handlerLog records when the echo handler ran for the traced operations
// (every traceEvery-th), by the sequence number in the request's first 8
// bytes. Only the traced pass keeps one.
type handlerLog struct {
	start, end []int64
}

func newHandlerLog(n int) *handlerLog {
	return &handlerLog{start: make([]int64, n), end: make([]int64, n)}
}

// span returns the recorded handler execution of operation seq, if any.
func (h *handlerLog) span(seq uint64) (start, end int64, ok bool) {
	if seq%traceEvery != 0 || seq/traceEvery >= uint64(len(h.start)) {
		return 0, 0, false
	}
	i := seq / traceEvery
	return h.start[i], h.end[i], h.start[i] != 0
}

func (h *handlerLog) record(seq uint64, t0, t1 int64) {
	if h == nil || seq%traceEvery != 0 || seq/traceEvery >= uint64(len(h.start)) {
		return
	}
	seq /= traceEvery
	// A hedged request can run twice; the first execution is kept.
	if atomic.CompareAndSwapInt64(&h.start[seq], 0, t0) {
		atomic.StoreInt64(&h.end[seq], t1)
	}
}

// queueSink collects the server.queue span of every request a server
// handled. It is installed on the servers only: a client-side sink would
// make Begin bypass the decision cache and trace a different path.
type queueSink struct {
	mu    sync.Mutex
	waits []float64 // µs
}

func (q *queueSink) Emit(tr *spectra.DecisionTrace) {
	for _, sp := range tr.Spans {
		if sp.Name == obs.SpanServerQueue {
			q.mu.Lock()
			q.waits = append(q.waits, float64(sp.Duration().Nanoseconds())/1e3)
			q.mu.Unlock()
		}
	}
}

func (q *queueSink) take() []float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	w := q.waits
	q.waits = nil
	return w
}

// deployment is one assembled live stack: in-process servers on loopback
// and a live client with the workload's operation registered.
type deployment struct {
	w       *liveWorkload
	servers []*spectra.Server
	started map[string]bool
	setup   *spectra.LiveSetup
	op      *spectra.Operation
	noise   []byte
	tally   *tally
}

// deploy starts the servers and assembles the client, probes the servers,
// and runs the warm-up operations. o, hl and qs are nil outside the
// traced pass.
func (w *liveWorkload) deploy(noise []byte, warm []opInput, o *spectra.Observer, hl *handlerLog, qs *queueSink) (*deployment, error) {
	d := &deployment{w: w, started: map[string]bool{}, noise: noise, tally: &tally{}}
	addrs := map[string]string{}
	for i := 0; i < w.servers; i++ {
		name := fmt.Sprintf("s%d", i+1)
		node := spectra.NewNode(spectra.NewMachine(spectra.MachineConfig{
			Name: name, SpeedMHz: 1000, OnWallPower: true,
		}), nil, nil)
		srv := spectra.NewServer(name, node, spectra.RealClock{})
		srv.Register(service, func(ctx *spectra.ServiceContext, _ string, p []byte) ([]byte, error) {
			t0 := now()
			if len(p) < 16 {
				return nil, fmt.Errorf("request of %d bytes", len(p))
			}
			ctx.Compute(spectra.ComputeDemand{})
			out := response(p, w.respBytes)
			hl.record(binary.BigEndian.Uint64(p), t0, now())
			return out, nil
		})
		if qs != nil {
			srv.SetObserver(&spectra.Observer{Registry: obs.NewRegistry(), Sink: qs})
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			d.close()
			return nil, err
		}
		d.servers = append(d.servers, srv)
		d.started[name] = true
		addrs[name] = addr
	}

	setup, err := spectra.NewLiveSetup(spectra.LiveOptions{
		Servers:  addrs,
		PoolSize: w.poolSize,
		Cache:    spectra.CacheOptions{Enabled: true},
		Obs:      o,
	})
	if err != nil {
		d.close()
		return nil, err
	}
	d.setup = setup
	d.op, err = setup.Client.RegisterFidelity(spectra.OperationSpec{
		Name:    "bench." + w.name,
		Service: service,
		Plans:   []spectra.PlanSpec{{Name: "remote", UsesServer: true}},
		Params:  []string{w.param},
	})
	if err != nil {
		d.close()
		return nil, err
	}
	setup.Client.PollServers()
	setup.Client.Probe()

	buf := make([]byte, maxRequest)
	for i, in := range warm {
		if err := d.runOp(warmSeqBase+uint64(i), in, buf, &opRecord{}); err != nil {
			d.close()
			return nil, fmt.Errorf("warm-up operation %d: %w", i, err)
		}
	}
	if p := d.tally.problemList(); len(p) > 0 {
		d.close()
		return nil, fmt.Errorf("warm-up: %v", p)
	}
	d.tally = &tally{}
	return d, nil
}

func (d *deployment) close() {
	if d.setup != nil {
		d.setup.Runtime.Close()
	}
	for _, s := range d.servers {
		s.Close()
	}
}

// opRecord is the benchmark's own span set for one operation, in
// nanoseconds since epoch.
type opRecord struct {
	seq                                  uint64
	due, start, beginEnd, remoteEnd, end int64
	choosing, filePred                   int64 // Report.Decision.Overhead
	ok                                   bool
}

// tally accumulates outcomes from concurrent operations.
type tally struct {
	completed, errored, shed, expired atomic.Int64
	failedOver, degraded              atomic.Int64
	wireBytes, payloadBytes           atomic.Int64
	mu                                sync.Mutex
	problems                          []string
	dropped                           int
}

func (t *tally) problem(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.problems) < 20 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	} else {
		t.dropped++
	}
}

func (t *tally) problemList() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]string(nil), t.problems...)
	if t.dropped > 0 {
		out = append(out, fmt.Sprintf("... and %d more", t.dropped))
	}
	return out
}

func (t *tally) fail(err error) {
	switch {
	case rpc.IsDeadline(err):
		t.expired.Add(1)
	case rpc.IsOverloaded(err):
		t.shed.Add(1)
	default:
		t.errored.Add(1)
	}
}

func (t *tally) accounting() accounting {
	a := accounting{
		completed:  t.completed.Load(),
		errored:    t.errored.Load(),
		shed:       t.shed.Load(),
		expired:    t.expired.Load(),
		failedOver: t.failedOver.Load(),
		degraded:   t.degraded.Load(),
	}
	a.attempted = a.completed + a.failed()
	return a
}

// runOp executes one operation through the public API and checks its
// outputs. buf must hold in.bytes and stay untouched until runOp returns.
// A failed operation is counted and its error returned.
func (d *deployment) runOp(seq uint64, in opInput, buf []byte, rec *opRecord) error {
	t := d.tally
	rec.seq = seq
	req := buf[:in.bytes]
	binary.BigEndian.PutUint64(req, seq)
	copy(req[8:], d.noise[in.offset:in.offset+in.bytes-8])

	rec.start = now()
	octx, err := d.setup.Client.BeginFidelityOp(d.op, in.params, "")
	rec.beginEnd = now()
	if err != nil {
		t.fail(err)
		return err
	}
	if !d.started[octx.Server()] {
		t.problem("op %d: decided server %q was never started", seq, octx.Server())
	}
	out, err := octx.DoRemoteOp(optype, req)
	rec.remoteEnd = now()
	if err != nil {
		octx.Abort()
		t.fail(err)
		return err
	}
	rep, err := octx.End()
	rec.end = now()
	if err != nil {
		t.fail(err)
		return err
	}
	if want := response(req, d.w.respBytes); !bytes.Equal(out, want) {
		t.problem("op %d: response %q, want %q", seq, out, want)
	}
	if rep.Usage.RPCs < 1 {
		t.problem("op %d: report counts %d RPCs", seq, rep.Usage.RPCs)
	}
	if s := rep.Decision.Alternative.Server; !d.started[s] {
		t.problem("op %d: report names server %q, which was never started", seq, s)
	}
	rec.choosing = rep.Decision.Overhead.Choosing.Nanoseconds()
	rec.filePred = rep.Decision.Overhead.FilePrediction.Nanoseconds()
	rec.ok = true
	t.completed.Add(1)
	if len(rep.Failovers) > 0 {
		t.failedOver.Add(1)
	}
	if rep.Degraded {
		t.degraded.Add(1)
	}
	t.wireBytes.Add(rep.Usage.BytesSent + rep.Usage.BytesReceived)
	t.payloadBytes.Add(int64(in.bytes + d.w.respBytes))
	return nil
}

// closedLoop runs w.callers callers back to back until the window that
// opened at t0 closes. An operation is due when its caller's previous one
// returned, and is timed from Begin entry. It returns the latencies of the
// completed operations in µs by window slice and, when keep is set, the
// records of every traceEvery-th operation: at tens of thousands of
// operations a second, keeping them all would grow the heap through the
// window and change how often the garbage collector runs.
func (d *deployment) closedLoop(inputs []opInput, t0 int64, window time.Duration, keep bool) ([]opRecord, []histogram) {
	var (
		seq  atomic.Uint64
		wg   sync.WaitGroup
		mu   sync.Mutex
		recs []opRecord
		lat  = make([]histogram, windowSlices)
	)
	keepCap := 0
	if keep {
		keepCap = int(window.Seconds()*maxClosedRate)/traceEvery/d.w.callers + 1024
	}
	deadline := t0 + window.Nanoseconds()
	for c := 0; c < d.w.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, maxRequest)
			mine := make([]opRecord, 0, keepCap)
			myLat := make([]histogram, windowSlices)
			due := now()
			for due < deadline {
				s := seq.Add(1) - 1
				rec := opRecord{due: due}
				d.runOp(s, inputs[s%uint64(len(inputs))], buf, &rec)
				if rec.ok {
					myLat[sliceOf(rec.due, t0, window, windowSlices)].add(float64(rec.end-rec.start) / 1e3)
				}
				if s%traceEvery == 0 && len(mine) < cap(mine) {
					mine = append(mine, rec)
				}
				due = now()
			}
			mu.Lock()
			defer mu.Unlock()
			recs = append(recs, mine...)
			for i := range myLat {
				lat[i].merge(&myLat[i])
			}
		}()
	}
	wg.Wait()
	return recs, lat
}

// openLoop issues each arrival at its due time, whether or not earlier
// operations have finished, and waits for all of them. genLag receives how
// late the generator issued each arrival.
func (d *deployment) openLoop(sched []arrival) (recs []opRecord, genLag []float64) {
	recs = make([]opRecord, len(sched))
	genLag = make([]float64, len(sched))
	// Request buffers are recycled through a free list rather than a
	// sync.Pool, which the frequent GCs of this workload would empty; its
	// capacity covers the operations in flight during a stall.
	free := make(chan []byte, 256)
	var wg sync.WaitGroup
	base := now()
	for i, a := range sched {
		due := base + a.at.Nanoseconds()
		sleepUntil(due)
		genLag[i] = float64(now()-due) / 1e3
		recs[i].due = due
		wg.Add(1)
		go func(i int, in opInput) {
			defer wg.Done()
			var b []byte
			select {
			case b = <-free:
			default:
				b = make([]byte, maxRequest)
			}
			d.runOp(uint64(i), in, b, &recs[i])
			select {
			case free <- b:
			default:
			}
		}(i, a.in)
	}
	wg.Wait()
	return recs, genLag
}

// sleepUntil blocks the calling thread until t (ns since epoch). It sleeps
// in nanosleep rather than time.Sleep: an idle Go runtime wakes timers at
// millisecond granularity, which would make the generator itself the
// largest source of lateness.
func sleepUntil(t int64) {
	for wait := t - now(); wait > 0; wait = t - now() {
		ts := syscall.NsecToTimespec(wait)
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(time.Duration(wait))
		}
	}
}

// measured is one measured window on a deployment.
type measured struct {
	t0             int64
	lat            []histogram // completed operations' latency in µs by slice
	length         time.Duration
	rssMB          float64 // median of the slices' peak resident memory
	recs           []opRecord
	genLag         []float64 // open loop only
	elapsed        time.Duration
	rt             runtimeDelta
	cache0, cache1 spectra.CacheStats
}

// measure runs one window of the workload on d from a clean heap. keep
// retains every operation's record for the traced pass.
func (d *deployment) measure(r *rand.Rand, length time.Duration, keep bool) (measured, error) {
	var sched []arrival
	var inputs []opInput
	if d.w.callers > 0 {
		inputs = d.w.inputs(r, 4096)
	} else {
		sched = d.w.schedule(r, length)
	}
	runtime.GC()
	before, err := sampleRuntime()
	if err != nil {
		return measured{}, err
	}
	m := measured{length: length, cache0: d.setup.Client.DecisionCacheStats()}
	rss := startRSS(length)
	m.t0 = now()
	if d.w.callers > 0 {
		m.recs, m.lat = d.closedLoop(inputs, m.t0, length, keep)
	} else {
		m.recs, m.genLag = d.openLoop(sched)
		// An open loop's rate fixes its operation count, which bounds
		// how finely the window can be sliced: a slice's p99 needs about
		// a hundred samples beyond it to be steadier than the whole
		// window's.
		n := max(1, min(windowSlices, len(sched)/minSliceOps))
		m.lat = make([]histogram, n)
		for _, r := range m.recs {
			if r.ok {
				m.lat[sliceOf(r.due, m.t0, length, n)].add(float64(r.end-r.due) / 1e3)
			}
		}
	}
	m.elapsed = time.Duration(now() - m.t0)
	after, err := sampleRuntime()
	rssMB, rssErr := rss.finish()
	if err := errors.Join(err, rssErr); err != nil {
		return measured{}, err
	}
	m.rt = between(before, after)
	m.cache1 = d.setup.Client.DecisionCacheStats()
	m.rssMB = rssMB
	return m, nil
}

// quality begins n operations after the window and compares each decision
// with Client.EvaluateAlternatives under the same resource picture. It
// returns the mean utility of the choice relative to the best alternative,
// and the share of Begins that chose a best alternative.
func (d *deployment) quality(inputs []opInput, n int) (relUtility, agreement float64, err error) {
	var sumRel float64
	var agree int
	for i := 0; i < n; i++ {
		in := inputs[i%len(inputs)]
		octx, err := d.setup.Client.BeginFidelityOp(d.op, in.params, "")
		if err != nil {
			return 0, 0, fmt.Errorf("quality sample %d: %w", i, err)
		}
		chosen := octx.Decision().Alternative.Key()
		ranked := d.setup.Client.EvaluateAlternatives(d.op, in.params, "")
		octx.Abort()
		if len(ranked) == 0 || ranked[0].Utility <= 0 {
			return 0, 0, fmt.Errorf("quality sample %d: no alternative with positive utility", i)
		}
		found := false
		for _, s := range ranked {
			if s.Alternative.Key() == chosen {
				sumRel += s.Utility / ranked[0].Utility
				if s.Utility >= ranked[0].Utility {
					agree++
				}
				found = true
				break
			}
		}
		if !found {
			d.tally.problem("quality sample %d: chosen alternative %s is not among the evaluated ones", i, chosen)
		}
	}
	return sumRel / float64(n), float64(agree) / float64(n), nil
}

// seededRand returns a generator for one named stream of the seed, so each
// use of randomness is fixed by the seed independently of the others.
func seededRand(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

func runLive(w *liveWorkload, opts options) (outcome, error) {
	noise := make([]byte, noiseBytes)
	seededRand(opts.seed, "noise").Read(noise)
	// Warm-up inputs do not depend on the seed, so every run sets up the
	// same work.
	warm := w.inputs(seededRand(0, "warm"), warmOps)
	if opts.trace {
		return tracedLive(w, opts, noise, warm)
	}

	var setupTimes []float64
	var d *deployment
	for i := 0; i < setups; i++ {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		var err error
		d, err = w.deploy(noise, warm, nil, nil, nil)
		if err != nil {
			return outcome{}, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer d.close()

	m, err := d.measure(seededRand(opts.seed, "window"), opts.window, false)
	if err != nil {
		return outcome{}, err
	}

	relUtil, _, err := d.quality(w.inputs(seededRand(opts.seed, "quality"), qualitySamples), qualitySamples)
	if err != nil {
		return outcome{}, err
	}
	acct := d.tally.accounting()
	lat := m.lat
	fmt.Printf("# decision cache hit fraction %.4f\n", hitFrac(m.cache0, m.cache1))
	printWall(float64(acct.completed)/m.elapsed.Seconds(), sliceHistQuantile(lat, 0.50), sliceHistQuantile(lat, 0.99))
	return outcome{
		acct:     acct,
		problems: d.tally.problemList(),
		values: map[string]float64{
			"alloc_bytes_per_op": ratio(float64(m.rt.allocBytes), float64(acct.completed)),
			"cpu_us_per_op":      ratio(float64(m.rt.cpu.Microseconds()), float64(acct.completed)),
			"peak_rss_mb":        m.rssMB,
			"setup_s":            median(setupTimes),
			"utility_vs_oracle":  relUtil,
			"goodput_frac":       ratio(float64(acct.completed), float64(acct.attempted)),
		},
	}, nil
}

func hitFrac(a, b spectra.CacheStats) float64 {
	hits, misses := b.Hits-a.Hits, b.Misses-a.Misses
	return ratio(float64(hits), float64(hits+misses))
}

// counterNames are the client registry counters the traced pass reads.
var counterNames = []string{
	obs.MOpBegin, obs.MSolverEvaluations,
	obs.MHedgeLaunched, obs.MHedgeWins, obs.MRPCRetries, obs.MPoolWaits, obs.MDeadlineExceeded,
	obs.MSnapCacheHits, obs.MSnapCacheMisses,
	obs.MPredictHitBin, obs.MPredictHitGeneric, obs.MPredictHitData, obs.MPredictMiss,
}

func readCounters(reg *spectra.MetricsRegistry) map[string]int64 {
	out := make(map[string]int64, len(counterNames))
	for _, n := range counterNames {
		out[n] = reg.Counter(n).Value()
	}
	return out
}

// tracedLive is the --trace 1 pass. Half the window runs exactly like a
// normal run, as a reference; the other half replays the same schedule
// with the benchmark's spans, a metrics-only Observer on the client, and a
// queue-span sink on the servers. Comparing the halves gives the tracing
// overhead and checks that tracing did not change the decision cache's
// behaviour.
func tracedLive(w *liveWorkload, opts options, noise []byte, warm []opInput) (outcome, error) {
	half := opts.window / 2
	ref, err := w.deploy(noise, warm, nil, nil, nil)
	if err != nil {
		return outcome{}, fmt.Errorf("setup: %w", err)
	}
	rm, err := ref.measure(seededRand(opts.seed, "window"), half, false)
	if err != nil {
		return outcome{}, err
	}
	refHit := hitFrac(rm.cache0, rm.cache1)
	refAcct := ref.tally.accounting()
	problems := ref.tally.problemList()
	refP50 := sliceHistQuantile(rm.lat, 0.5)
	ref.close()

	logLen := int(half.Seconds()*maxClosedRate)/traceEvery + 1024
	if w.callers == 0 {
		logLen = int(half.Seconds()*w.rate*2)/traceEvery + 1024
	}
	hl := newHandlerLog(logLen)
	qs := &queueSink{}
	// Counts only: an accuracy tracker would switch on the decision cache's
	// accuracy invalidations, which an untraced client does not run.
	o := &spectra.Observer{Registry: obs.NewRegistry()}
	d, err := w.deploy(noise, warm, o, hl, qs)
	if err != nil {
		return outcome{}, fmt.Errorf("setup: %w", err)
	}
	defer d.close()

	qs.take()
	ctr0 := readCounters(o.Registry)
	m, err := d.measure(seededRand(opts.seed, "window"), half, true)
	if err != nil {
		return outcome{}, err
	}
	ctr1 := readCounters(o.Registry)
	queueWaits := qs.take()
	recs, cache0, cache1, rt := m.recs, m.cache0, m.cache1, m.rt

	qInputs := w.inputs(seededRand(opts.seed, "quality"), qualitySamples)
	_, agreement, err := d.quality(qInputs, qualitySamples)
	if err != nil {
		return outcome{}, err
	}
	wireW, wireR, wireAlloc, err := wireCost(w, noise, qInputs)
	if err != nil {
		return outcome{}, err
	}
	snapP50 := snapshotCost(d)

	acct := d.tally.accounting()
	problems = append(problems, d.tally.problemList()...)
	hit := hitFrac(cache0, cache1)
	fmt.Printf("# decision cache hit fraction %.4f traced, %.4f untraced reference\n", hit, refHit)
	// Tracing must not change which path Begin takes: the decision cache
	// has to hit as often traced as untraced.
	if math.Abs(hit-refHit) > hitTolerance {
		problems = append(problems, fmt.Sprintf(
			"decision-cache hit fraction %.4f traced vs %.4f untraced", hit, refHit))
	}

	var begin, end, remote, transport, exec, choosing, filePred, startLag []float64
	for _, r := range recs {
		if r.beginEnd > 0 {
			begin = append(begin, float64(r.beginEnd-r.start)/1e3)
			startLag = append(startLag, float64(r.start-r.due)/1e3)
		}
		if !r.ok {
			continue
		}
		remote = append(remote, float64(r.remoteEnd-r.beginEnd)/1e3)
		end = append(end, float64(r.end-r.remoteEnd)/1e3)
		choosing = append(choosing, float64(r.choosing)/1e3)
		filePred = append(filePred, float64(r.filePred)/1e3)
		// Pair DoRemoteOp with the handler execution of the same request,
		// matched by the sequence number it carried.
		if hs, he, ok := hl.span(r.seq); ok {
			h := float64(he-hs) / 1e3
			exec = append(exec, h)
			transport = append(transport, float64(r.remoteEnd-r.beginEnd)/1e3-h)
		}
	}

	delta := func(name string) int64 { return ctr1[name] - ctr0[name] }
	begins := delta(obs.MOpBegin)
	predicts := delta(obs.MPredictHitBin) + delta(obs.MPredictHitGeneric) + delta(obs.MPredictHitData) + delta(obs.MPredictMiss)
	snapHits, snapMisses := delta(obs.MSnapCacheHits), delta(obs.MSnapCacheMisses)
	ops := acct.completed
	tracedP50 := sliceHistQuantile(m.lat, 0.5)

	if err := writeLiveSpans(w.name, recs, hl); err != nil {
		return outcome{}, err
	}

	acct.add(refAcct)

	values := map[string]float64{
		"core.begin_p50_us":             quantile(begin, 0.50),
		"core.begin_p99_us":             quantile(begin, 0.99),
		"core.end_p50_us":               quantile(end, 0.50),
		"core.dcache_hit_frac":          hit,
		"core.dcache_drift_per_kop":     perKop(int64(cache1.InvalidDrift-cache0.InvalidDrift), ops),
		"core.dcache_outcome_per_kop":   perKop(int64(cache1.InvalidOutcome-cache0.InvalidOutcome), ops),
		"core.dcache_ttl_per_kop":       perKop(int64(cache1.InvalidTTL-cache0.InvalidTTL), ops),
		"core.failover_per_kop":         perKop(acct.failedOver, ops),
		"core.degraded_per_kop":         perKop(acct.degraded, ops),
		"core.dcache_agreement":         agreement,
		"core.begin_choosing_us":        quantile(choosing, 0.5),
		"core.begin_file_prediction_us": quantile(filePred, 0.5),
		"rpc.remote_p50_us":             quantile(remote, 0.50),
		"rpc.remote_p99_us":             quantile(remote, 0.99),
		"rpc.transport_p50_us":          quantile(transport, 0.50),
		"rpc.server_exec_p50_us":        quantile(exec, 0.50),
		"rpc.server_queue_wait_p99_us":  quantile(queueWaits, 0.99),
		"rpc.hedges_per_kop":            perKop(delta(obs.MHedgeLaunched), ops),
		"rpc.hedge_wins_per_kop":        perKop(delta(obs.MHedgeWins), ops),
		"rpc.retries_per_kop":           perKop(delta(obs.MRPCRetries), ops),
		"rpc.pool_waits_per_kop":        perKop(delta(obs.MPoolWaits), ops),
		"rpc.deadline_exceeded_per_kop": perKop(delta(obs.MDeadlineExceeded), ops),
		"wire.write_us_per_msg":         wireW,
		"wire.read_us_per_msg":          wireR,
		"wire.alloc_bytes_per_msg":      wireAlloc,
		"wire.bytes_per_payload_byte":   ratio(float64(d.tally.wireBytes.Load()), float64(d.tally.payloadBytes.Load())),
		"monitor.snapcache_hit_frac":    ratio(float64(snapHits), float64(snapHits+snapMisses)),
		"monitor.snapshot_p50_us":       snapP50,
		"solver.evals_per_begin":        ratio(float64(delta(obs.MSolverEvaluations)), float64(begins)),
		"predict.miss_frac":             ratio(float64(delta(obs.MPredictMiss)), float64(predicts)),
		"gc.cycles_per_kop":             perKop(int64(rt.gcCycles), ops),
		"gc.cpu_frac":                   rt.gcCPUFrac,
		"gc.pause_p99_us":               quantile(rt.pausesUs, 0.99),
		"bench.start_lag_p50_us":        quantile(startLag, 0.50),
		"bench.gen_lag_p99_us":          quantile(m.genLag, 0.99),
		"bench.trace_overhead_frac":     ratio(tracedP50-refP50, refP50),
		"wall.ops_per_s":                float64(refAcct.completed) / rm.elapsed.Seconds(),
		"wall.op_p50_us":                refP50,
		"wall.op_p99_us":                sliceHistQuantile(rm.lat, 0.99),
	}
	addAccounting(values, acct)
	return outcome{acct: acct, problems: problems, values: values}, nil
}
