package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"mira/perfbench/loadgen"
)

// The serve workload runs the telemetry server in-process over a store
// built in set-up and drives it open-loop: reads at a fixed rate on their
// connections, and beside them a fixed-rate stream of pre-simulated ticks
// pushed through the client into the live head on a connection of its own.
// Writes beside reads on one store show a gain for one that costs the
// other.
var (
	serveStart = day(2016, time.March, 1)
	serveEnd   = day(2016, time.March, 29)
)

const (
	// serveReadRate is about a quarter of what one read connection
	// sustains closed-loop on a 2-core host (about 2,000 reads/s): queueing
	// shows, but a host slowed by its neighbours does not push the schedule
	// near saturation, where the tail swings with every stall.
	serveReadRate = 500.0
	// serveIngestRate is ticks per second, each one 48-record frame.
	serveIngestRate = 20.0
	// serveNewestShare of reads ask for the newest hours of the live head.
	serveNewestShare = 0.2
	// serveCheckEvery samples one read in this many for comparison with
	// the store's direct answer.
	serveCheckEvery = 20
	// serveTailWindow is the stretch of the schedule each tail percentile is
	// taken over; the run reports the median over stretches.
	serveTailWindow = 2 * time.Second
	// serveReadBacks is how often the whole store is read back.
	serveReadBacks = 5
)

// readConns is the read connections: every core but one, which the
// ingest connection gets, and at least one.
func readConns() int { return max(1, runtime.NumCPU()-1) }

func runServe(e *runEnv) (*outcome, error) {
	o := newOutcome()
	o.method["window"] = serveStart.Format("2006-01-02") + ".." + serveEnd.Format("2006-01-02")
	o.method["read_rate_per_s"] = serveReadRate
	o.method["ingest_ticks_per_s"] = serveIngestRate
	o.method["read_conns"] = readConns()
	o.method["ingest_conns"] = 1
	o.method["loop"] = "open: reads and ingest flushes are timed from their due time"

	// Traced runs split the budget into a traced and an untraced schedule.
	schedules := 1
	if e.traced() {
		schedules = 2
	}
	perSchedule := e.budget / time.Duration(schedules)
	ingestTicks := int(serveIngestRate*perSchedule.Seconds()) * schedules

	var st servedStore
	layer := newLayerSums()
	err := timeSetups(o, func(i int) (err error) {
		sp := e.tr.root("serve.setup")
		st, err = buildServedStore(sp, e.seed, serveStart, serveEnd, ingestTicks)
		sp.end()
		if err == nil && e.traced() {
			layer.add("sim.run_s", spanTimes(e.tr, sp)["sim.run"].Seconds())
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	var (
		costs   unitCosts
		reads   loadgen.Units
		allSent int
	)
	for k := 0; k < schedules; k++ {
		var tr *tracer
		if e.traced() && k == 0 {
			tr = e.tr
		}
		ticks := st.Ticks[k*ingestTicks/schedules : (k+1)*ingestTicks/schedules]
		res, err := serveSchedule(e, tr, st, ticks, perSchedule, int64(k))
		if err != nil {
			return nil, err
		}
		allSent += len(ticks)
		costs.add(res.cost, tr != nil)
		var window []float64
		for j, s := range res.reads {
			o.op(s.Err)
			window = append(window, ms(s.Latency()))
			if j == len(res.reads)-1 || res.reads[j+1].Due/serveTailWindow != s.Due/serveTailWindow {
				reads.Add(window)
				window = nil
			}
		}
		for _, s := range res.ingest {
			o.op(s.Err)
		}
		for _, p := range res.problems {
			o.check(false, "%s", p)
		}
		if tr != nil {
			res.layers(layer)
		}
	}

	// Every record, the acknowledged ingest included, must read back over
	// the wire exactly as the store holds it, and the ingested ones must be
	// the ticks sent.
	lb, err := serveLoopback(telemetryHandler(st.Store))
	if err != nil {
		return nil, err
	}
	from, to := st.Start, st.End.Add(time.Duration(allSent)*sampleInterval)
	var backs []float64
	for k := 0; k < serveReadBacks; k++ {
		var got []readResult
		d, err := timeSettled(func() (err error) {
			got, err = readBack(newRemoteStore(lb.URL, newHTTPClient()), from, to)
			return err
		})
		backs = append(backs, d.Seconds())
		o.op(err)
		o.check(err != nil || sameAsStore(got, st.Store, from, to), "read-back %d differs from the store's own answer", k)
	}
	o.metrics["remote_wall_s"] = loadgen.Median(backs)
	lb.close()
	matched, want, err := ingestedIntact(st.Store, st.Ticks[:allSent])
	if err != nil {
		return nil, fmt.Errorf("ingest reference: %w", err)
	}
	o.check(matched == want, "%d of %d acknowledged ingest records intact in the store", matched, want)
	o.check(storeLen(st.Store) == st.BaseRecords+want, "store holds %d records, want %d base + %d ingested",
		storeLen(st.Store), st.BaseRecords, want)

	dir, err := e.dir("flush")
	if err != nil {
		return nil, err
	}
	diskBytes, err := flushStore(st.Store, dir)
	if err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}

	if err := costs.report(o, e.traced()); err != nil {
		return nil, err
	}
	readTail := reads.Summary()
	o.metrics["disk_mib"] = float64(diskBytes) / (1 << 20)
	o.metrics["read_p50_ms"] = readTail.P50
	o.metrics["ok_ratio"] = okRatio(o)
	o.method["read_tail"] = readTail
	if e.traced() {
		layer.addReadTail(readTail)
		layer.report(o, e.tr)
	}
	return o, nil
}

// scheduleResult is one open-loop schedule's samples and checks.
type scheduleResult struct {
	cost     unitCost
	reads    []loadgen.Sample
	ingest   []loadgen.Sample
	reqs     []readRequest
	problems []string

	// Traced schedules only: handler service times by path, the same reads
	// and ticks replayed directly on a store, and the writer's counters.
	server             *handlerTimer
	direct             [numReadOps][]time.Duration
	directIngest       []time.Duration
	retries, duplicate int
}

// serveSchedule runs one schedule of the given length against a fresh
// loopback server over the store: reads at serveReadRate, and ticks pushed
// at serveIngestRate.
func serveSchedule(e *runEnv, tr *tracer, st servedStore, ticks []tick, length time.Duration, k int64) (*scheduleResult, error) {
	res := &scheduleResult{}
	handler := telemetryHandler(st.Store)
	if tr != nil {
		res.server = newHandlerTimer(handler, tr)
		handler = res.server
	}
	lb, err := serveLoopback(handler)
	if err != nil {
		return nil, err
	}
	defer lb.close()

	rng := rand.New(rand.NewSource(e.seed*1000 + k))
	n := int(serveReadRate * length.Seconds())
	res.reqs = make([]readRequest, n)
	// newest[i] > 0 marks a read of the newest hours: its window length,
	// placed against the live head when the read is sent.
	newest := make([]time.Duration, n)
	span := st.End.Sub(st.Start)
	for i := range res.reqs {
		r := readRequest{Op: readOp(rng.Intn(int(numReadOps))), Rack: rng.Intn(numRacks), Metric: rng.Intn(numMetrics), Window: time.Hour}
		if rng.Float64() < serveNewestShare {
			newest[i] = logUniform(rng, time.Hour, 6*time.Hour)
		} else {
			l := logUniform(rng, time.Hour, span/8)
			r.From = st.Start.Add(time.Duration(rng.Int63n(int64(span - l))))
			r.To = r.From.Add(l)
		}
		res.reqs[i] = r
	}

	// watermark is the newest acknowledged tick; reads of the newest hours
	// end just after it, so their answer can no longer change.
	var watermark atomic.Int64
	watermark.Store(st.End.Add(-sampleInterval).UnixNano())
	readers := make([]remoteStore, readConns())
	for c := range readers {
		readers[c] = newRemoteStore(lb.URL, newHTTPClient())
	}
	results := make([]readResult, n)
	writer := newIngestClient(lb.URL, newHTTPClient())

	res.cost, err = measure(func() error {
		start := time.Now()
		done := make(chan []loadgen.Sample, 1)
		go func() {
			done <- loadgen.Run(start, loadgen.Schedule{Rate: serveIngestRate, N: len(ticks)}, 1, func(_, i int) error {
				sp := tr.root("net.client.ingest")
				defer sp.end()
				if err := ingestTick(writer, ticks[i]); err != nil {
					return err
				}
				watermark.Store(tickTime(ticks[i]))
				return nil
			})
		}()
		res.reads = loadgen.Run(start, loadgen.Schedule{Rate: serveReadRate, N: n}, len(readers), func(c, i int) error {
			r := &res.reqs[i]
			if newest[i] > 0 {
				r.To = time.Unix(0, watermark.Load()+1)
				r.From = r.To.Add(-newest[i])
			}
			sp := tr.root("net.client." + readOpNames[r.Op])
			got, err := r.do(readers[c])
			sp.end()
			if i%serveCheckEvery == 0 {
				results[i] = got
			}
			return err
		})
		res.ingest = <-done
		return nil
	})
	if err != nil {
		return nil, err
	}

	for i := 0; i < n; i += serveCheckEvery {
		if res.reads[i].Err != nil {
			continue
		}
		want, err := res.reqs[i].direct(st.Store)
		if err != nil || want.answer() != results[i].answer() {
			res.problems = append(res.problems, fmt.Sprintf("read %d (%s) differs from the store's direct answer", i, readOpNames[res.reqs[i].Op]))
		}
	}
	if tr != nil {
		for _, r := range res.reqs {
			t0 := time.Now()
			r.direct(st.Store)
			res.direct[r.Op] = append(res.direct[r.Op], time.Since(t0))
		}
		fresh := newStore()
		for _, t := range ticks {
			t0 := time.Now()
			if err := appendTickDirect(fresh, t); err != nil {
				return nil, fmt.Errorf("direct ingest replay: %w", err)
			}
			res.directIngest = append(res.directIngest, time.Since(t0))
		}
		res.retries, res.duplicate = ingestStats(writer)
	}
	return res, nil
}

// layers records a traced schedule's per-layer split: client round trip,
// handler service time and direct store time per operation, plus the load
// generator's own lateness and connection wait.
func (res *scheduleResult) layers(l *layerSums) {
	var client [numReadOps][]time.Duration
	var late, wait []time.Duration
	for i, s := range res.reads {
		client[res.reqs[i].Op] = append(client[res.reqs[i].Op], s.Service())
		late = append(late, s.Late())
		wait = append(wait, s.ConnWait())
	}
	var ingestClient, ingestLatency []time.Duration
	for _, s := range res.ingest {
		ingestClient = append(ingestClient, s.Service())
		ingestLatency = append(ingestLatency, s.Latency())
		late = append(late, s.Late())
	}
	for op := readOp(0); op < numReadOps; op++ {
		name := readOpNames[op]
		l.addTail("net.client."+name, "ms", client[op])
		l.addTail("net.server."+name, "ms", res.server.take("/v1/"+name))
		l.addTail("tsdb."+name, "us", res.direct[op])
	}
	l.addTail("net.client.ingest", "ms", ingestClient)
	l.addTail("net.server.ingest", "ms", res.server.take("/v1/ingest"))
	l.addTail("tsdb.ingest", "us", res.directIngest)
	l.add("loadgen.late_p99_ms", tailOf(late))
	l.add("loadgen.conn_wait_p99_ms", tailOf(wait))
	l.add("loadgen.ingest_p99_ms", tailOf(ingestLatency))
	l.add("net.ingest_retries", float64(res.retries))
	l.add("net.ingest_duplicates", float64(res.duplicate))
}

// tailOf is the reported tail of ds in ms.
func tailOf(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return loadgen.Summarize(xs).Value
}

// logUniform draws a duration log-uniformly from [lo, hi].
func logUniform(rng *rand.Rand, lo, hi time.Duration) time.Duration {
	a, b := math.Log(float64(lo)), math.Log(float64(hi))
	return time.Duration(math.Exp(a + rng.Float64()*(b-a)))
}
