// Command miraload load-tests a telemetry server (miramon -serve): it
// hammers the query API with thousands of concurrent range, series, and
// aggregate requests through the wire-level client and records throughput
// and latency percentiles into a machine-readable JSON snapshot
// (BENCH_net.json by default) — the network-path counterpart of
// scripts/bench.sh's storage benchmarks.
//
// Usage:
//
//	miraload -url http://host:8080 [-clients 1000] [-requests 20000]
//	         [-halls 0] [-racks 0] [-seed 1] [-out BENCH_net.json]
//
// Against a fleet-sized server the request mix draws racks across every
// machine hall the server advertises in /api/v1/info; -halls/-racks
// override that advertisement to focus or widen the load.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mira/internal/obs"
	"mira/internal/sensors"
	"mira/internal/telemetrynet"
	"mira/internal/topology"
)

// opNames index the request mix; each worker draws uniformly.
var opNames = []string{"query", "series", "aggregate"}

type sample struct {
	op int
	ms float64
}

// benchOut is the BENCH_net.json schema.
type benchOut struct {
	Schema        string             `json:"schema"`
	GeneratedAt   string             `json:"generated_at"`
	Go            string             `json:"go"`
	URL           string             `json:"url"`
	Clients       int                `json:"clients"`
	Requests      int                `json:"requests"`
	Errors        int                `json:"errors"`
	StoreRecords  int                `json:"store_records"`
	WallSeconds   float64            `json:"wall_seconds"`
	ThroughputRPS float64            `json:"throughput_rps"`
	LatencyMs     latencySummary     `json:"latency_ms"`
	Ops           map[string]opStats `json:"ops"`
}

type latencySummary struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

type opStats struct {
	Count  int     `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func main() {
	var (
		url         = flag.String("url", "", "base URL of the telemetry server (required, e.g. http://127.0.0.1:8080)")
		clients     = flag.Int("clients", 1000, "concurrent query clients")
		requests    = flag.Int("requests", 20000, "total requests across all clients")
		seed        = flag.Int64("seed", 1, "request-mix seed")
		halls       = flag.Int("halls", 0, "machine halls to spread queries across (0 = what the server advertises)")
		racks       = flag.Int("racks", 0, "racks per hall to draw queries from (0 = what the server advertises)")
		out         = flag.String("out", "BENCH_net.json", "write the JSON latency snapshot to this file")
		logFormat   = flag.String("log-format", "text", "diagnostic log format: text or json")
		traceSample = flag.Float64("trace-sample", 0.01, "head-sampling ratio for request traces, 0..1; the sampled flag rides X-Mira-Trace, so the server keeps the same subset (plus anything slow)")
	)
	flag.Parse()
	logg := obs.NewLogger(os.Stderr, *logFormat, "miraload")
	obs.ConfigureTracer(obs.TracerConfig{SampleRatio: *traceSample, NoSample: *traceSample <= 0})
	if *url == "" {
		logg.Fatalf("-url is required (start a server with: miramon -serve -listen :8080 -data dir)")
	}
	if *clients < 1 || *requests < 1 {
		logg.Fatalf("-clients and -requests must be positive")
	}
	if *halls < 0 || *halls > topology.MaxHalls {
		logg.Fatalf("bad -halls %d: want 0..%d", *halls, topology.MaxHalls)
	}
	if *racks < 0 || *racks > topology.NumRacks {
		logg.Fatalf("bad -racks %d: want 0..%d", *racks, topology.NumRacks)
	}

	// One shared client, one widened transport: every worker multiplexes
	// over a pool big enough that 1000-way concurrency measures the server,
	// not a starved connection pool on this side.
	hc := &http.Client{
		Timeout: 5 * time.Minute,
		Transport: &http.Transport{
			MaxIdleConns:        *clients * 2,
			MaxIdleConnsPerHost: *clients * 2,
			MaxConnsPerHost:     0,
			IdleConnTimeout:     90 * time.Second,
		},
	}
	client := telemetrynet.NewClient(*url, telemetrynet.ClientOptions{HTTPClient: hc})

	info, err := client.Info()
	if err != nil {
		logg.Fatalf("remote %s: %v", *url, err)
	}
	if !info.HasData {
		logg.Fatalf("remote store at %s is empty; push telemetry first (mirasim -push)", *url)
	}
	// The server advertises its fleet shape; pre-fleet servers omit the
	// fields and Norm() falls back to the single 48-rack machine.
	fleet := topology.Fleet{Halls: info.Halls, Racks: info.RacksPerHall}.Norm()
	if *halls > 0 {
		fleet.Halls = *halls
	}
	if *racks > 0 {
		fleet.Racks = *racks
	}
	span := info.LastUnixNano - info.FirstUnixNano + 1
	if fleet.Halls > 1 {
		fmt.Printf("load-testing %s: %d records across %d halls × %d racks, %d clients, %d requests\n",
			*url, info.Records, fleet.Halls, fleet.Racks, *clients, *requests)
	} else {
		fmt.Printf("load-testing %s: %d records, %d clients, %d requests\n", *url, info.Records, *clients, *requests)
	}

	var (
		nextReq  int64
		errCount int64
		wg       sync.WaitGroup
		perWork  = make([][]sample, *clients)
	)
	began := time.Now()
	for w := 0; w < *clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			mine := make([]sample, 0, *requests / *clients + 1)
			for {
				if atomic.AddInt64(&nextReq, 1) > int64(*requests) {
					break
				}
				op := rng.Intn(len(opNames))
				rack := fleet.RackAt(rng.Intn(fleet.NumRacks()))
				metric := sensors.Metric(rng.Intn(int(sensors.NumMetrics)))
				// Random window up to ~1/8 of the stored span, so range
				// queries stress varied decode amounts.
				winN := span/64 + rng.Int63n(span/8+1)
				fromN := info.FirstUnixNano + rng.Int63n(span)
				from, to := time.Unix(0, fromN), time.Unix(0, fromN+winN)
				start := time.Now()
				err := runOp(client, op, rack, metric, from, to)
				ms := float64(time.Since(start)) / float64(time.Millisecond)
				if err != nil {
					atomic.AddInt64(&errCount, 1)
					continue
				}
				mine = append(mine, sample{op: op, ms: ms})
			}
			perWork[w] = mine
		}(w)
	}
	wg.Wait()
	wall := time.Since(began)

	var all []sample
	for _, s := range perWork {
		all = append(all, s...)
	}
	if len(all) == 0 {
		logg.Fatalf("no requests succeeded (%d errors)", errCount)
	}
	lats := make([]float64, len(all))
	perOp := map[string][]float64{}
	for i, s := range all {
		lats[i] = s.ms
		perOp[opNames[s.op]] = append(perOp[opNames[s.op]], s.ms)
	}
	sort.Float64s(lats)

	res := benchOut{
		Schema:        "mira-bench-net/v1",
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		Go:            runtime.Version(),
		URL:           *url,
		Clients:       *clients,
		Requests:      *requests,
		Errors:        int(errCount),
		StoreRecords:  info.Records,
		WallSeconds:   wall.Seconds(),
		ThroughputRPS: float64(len(all)) / wall.Seconds(),
		LatencyMs: latencySummary{
			P50: percentile(lats, 0.50),
			P95: percentile(lats, 0.95),
			P99: percentile(lats, 0.99),
			Max: lats[len(lats)-1],
		},
		Ops: map[string]opStats{},
	}
	for name, ms := range perOp {
		sort.Float64s(ms)
		var sum float64
		for _, v := range ms {
			sum += v
		}
		res.Ops[name] = opStats{Count: len(ms), MeanMs: sum / float64(len(ms)), P99Ms: percentile(ms, 0.99)}
	}

	f, err := os.Create(*out)
	if err != nil {
		logg.Fatalf("%v", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		logg.Fatalf("%v", err)
	}
	if err := f.Close(); err != nil {
		logg.Fatalf("%v", err)
	}

	fmt.Printf("%d requests in %.1fs (%.0f req/s, %d errors)\n", len(all), wall.Seconds(), res.ThroughputRPS, errCount)
	fmt.Printf("latency ms: p50 %.2f  p95 %.2f  p99 %.2f  max %.2f\n",
		res.LatencyMs.P50, res.LatencyMs.P95, res.LatencyMs.P99, res.LatencyMs.Max)
	for _, name := range opNames {
		if st, ok := res.Ops[name]; ok {
			fmt.Printf("  %-9s %6d reqs  mean %.2f ms  p99 %.2f ms\n", name, st.Count, st.MeanMs, st.P99Ms)
		}
	}
	fmt.Printf("wrote %s\n", *out)
}

// runOp issues one request through the client. The error-free envdb read
// surface panics on transport failure by contract; the recover converts
// that into a counted error so the load test keeps running.
func runOp(c *telemetrynet.Client, op int, rack topology.RackID, m sensors.Metric, from, to time.Time) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	switch op {
	case 0:
		c.Query(rack, from, to)
	case 1:
		c.Series(rack, m, from, to)
	default:
		_, err = c.AggregateCtx(context.Background(), rack, m, from, to, time.Hour)
	}
	return err
}
