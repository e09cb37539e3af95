package telemetrynet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mira/internal/envdb"
	"mira/internal/obs"
	"mira/internal/sensors"
	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/tsdb"
	"mira/internal/units"
)

// startServer serves db's telemetry API on a loopback listener and returns
// a client for it.
func startServer(t *testing.T, db envdb.DB) (*httptest.Server, *Client) {
	t.Helper()
	ts := httptest.NewServer(NewServer(db, ServerOptions{}).Handler())
	t.Cleanup(ts.Close)
	return ts, NewClient(ts.URL, ClientOptions{BatchSize: 64})
}

// netTrace builds ticks×racks records at coolant-monitor cadence, grouped
// tick-major so per-rack timestamps are strictly increasing (the tsdb
// Append contract).
func netTrace(ticks int) []sensors.Record {
	start := time.Date(2014, 5, 20, 0, 0, 0, 0, timeutil.Chicago)
	var recs []sensors.Record
	for i := 0; i < ticks; i++ {
		ts := start.Add(time.Duration(i) * timeutil.SampleInterval)
		for r := 0; r < topology.NumRacks; r++ {
			recs = append(recs, sensors.Record{
				Time:          ts,
				Rack:          topology.RackByIndex(r),
				DCTemperature: units.Fahrenheit(80 + float64(i%7)),
				DCHumidity:    units.RelativeHumidity(30 + float64(r%5)),
				Flow:          units.GPM(26 + 0.125*float64((i+r)%16)),
				InletTemp:     units.Fahrenheit(64 + 0.25*float64(i%8)),
				OutletTemp:    units.Fahrenheit(79 + 0.25*float64(r%8)),
				Power:         units.Watts(55000 + 100*float64(i%11)),
			})
		}
	}
	return recs
}

func fillStore(t *testing.T, db envdb.DB, recs []sensors.Record) {
	t.Helper()
	for _, r := range recs {
		if err := db.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIngestThenRead pushes a trace through the wire and checks every read
// surface of the client against the backing store directly.
func TestIngestThenRead(t *testing.T) {
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	_, client := startServer(t, store)
	recs := netTrace(20)
	fillStore(t, client, recs) // through the wire
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	if store.Len() != len(recs) {
		t.Fatalf("store has %d records after ingest, want %d", store.Len(), len(recs))
	}
	if client.Len() != len(recs) {
		t.Fatalf("client.Len() = %d, want %d", client.Len(), len(recs))
	}

	first, last, ok := client.Bounds()
	wf, wl, wok := store.Bounds()
	if ok != wok || !first.Equal(wf) || !last.Equal(wl) {
		t.Fatalf("client bounds (%v, %v, %v) != store bounds (%v, %v, %v)", first, last, ok, wf, wl, wok)
	}
	_, cOff := first.Zone()
	_, sOff := wf.Zone()
	if cOff != sOff {
		t.Fatalf("client zone offset %d != store %d", cOff, sOff)
	}

	rack := topology.RackByIndex(3)
	from, to := wf, wl.Add(time.Nanosecond)
	got, want := client.Query(rack, from, to), store.Query(rack, from, to)
	if len(got) != len(want) {
		t.Fatalf("Query: %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !sameRecord(got[i], want[i]) {
			t.Fatalf("Query record %d: %+v != %+v", i, got[i], want[i])
		}
	}

	gt, gv := client.Series(rack, sensors.MetricFlow, from, to)
	st, sv := store.Series(rack, sensors.MetricFlow, from, to)
	if len(gt) != len(st) {
		t.Fatalf("Series: %d points, want %d", len(gt), len(st))
	}
	for i := range st {
		if !gt[i].Equal(st[i]) || math.Float64bits(gv[i]) != math.Float64bits(sv[i]) {
			t.Fatalf("Series point %d: (%v, %v) != (%v, %v)", i, gt[i], gv[i], st[i], sv[i])
		}
	}
}

// TestIngestDedup pins the idempotency contract: replaying a frame with an
// already-applied (client, seq) token stores nothing and reports the
// duplicate, so a push retried after a lost response cannot double-append.
func TestIngestDedup(t *testing.T) {
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	ts, _ := startServer(t, store)
	recs := netTrace(2)
	frame := encodeIngestFrame(nil, 7, 1, recs)

	post := func() IngestResult {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
		var res IngestResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return res
	}

	if res := post(); res.AcceptedRecords != len(recs) || res.DuplicateBatches != 0 {
		t.Fatalf("first push: %+v", res)
	}
	dupsBefore := metIngestDuplicates.Value()
	if res := post(); res.AcceptedBatches != 0 || res.DuplicateBatches != 1 {
		t.Fatalf("replayed push: %+v, want 0 accepted / 1 duplicate", res)
	}
	if got := metIngestDuplicates.Value() - dupsBefore; got != 1 {
		t.Fatalf("mira_net_ingest_duplicate_batches_total advanced by %d, want 1", got)
	}
	if store.Len() != len(recs) {
		t.Fatalf("store has %d records after replay, want %d (stored once)", store.Len(), len(recs))
	}
	// A frame with a lower sequence from the same client is also a replay.
	frame = encodeIngestFrame(nil, 7, 0, recs)
	if res := post(); res.DuplicateBatches != 1 || store.Len() != len(recs) {
		t.Fatalf("stale-seq push: %+v, store %d", res, store.Len())
	}
}

// TestIngestMalformed: hostile bodies get a 400 and a counted error, never
// a panic, and leave the store untouched.
func TestIngestMalformed(t *testing.T) {
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	ts, _ := startServer(t, store)
	valid := encodeIngestFrame(nil, 1, 1, netTrace(1))
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-2] ^= 0xFF

	cases := map[string][]byte{
		"garbage":   []byte("not a frame at all"),
		"truncated": valid[:len(valid)/2],
		"bad crc":   corrupt,
	}
	errsBefore := metIngestErrors.Value()
	for name, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if got := metIngestErrors.Value() - errsBefore; got != uint64(len(cases)) {
		t.Fatalf("mira_net_ingest_errors_total advanced by %d, want %d", got, len(cases))
	}
	if store.Len() != 0 {
		t.Fatalf("store has %d records after malformed pushes, want 0", store.Len())
	}

	resp, err := http.Get(ts.URL + "/v1/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET ingest: status %d, want 405", resp.StatusCode)
	}
}

// TestAggregatePushdown: remote aggregation is bit-identical to calling
// the store's pushdown in-process.
func TestAggregatePushdown(t *testing.T) {
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	fillStore(t, store, netTrace(30))
	_, client := startServer(t, store)

	first, last, _ := store.Bounds()
	rack := topology.RackByIndex(17)
	window := time.Hour
	want, err := store.Aggregate(rack, sensors.MetricFlow, first, last.Add(time.Nanosecond), window)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.AggregateCtx(context.Background(), rack, sensors.MetricFlow, first, last.Add(time.Nanosecond), window)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d windows, want %d", len(got), len(want))
	}
	for i := range want {
		a, b := got[i], want[i]
		if !a.Start.Equal(b.Start) || a.Count != b.Count ||
			math.Float64bits(a.Min) != math.Float64bits(b.Min) ||
			math.Float64bits(a.Max) != math.Float64bits(b.Max) ||
			math.Float64bits(a.Sum) != math.Float64bits(b.Sum) {
			t.Fatalf("window %d: %+v != %+v", i, a, b)
		}
	}
}

// TestAggregateNotImplemented: a store without pushdown yields 501 on the
// wire, and the client returns that error.
func TestAggregateNotImplemented(t *testing.T) {
	store := envdb.NewStore() // no envdb.Aggregator
	fillStore(t, store, netTrace(4))
	ts, client := startServer(t, store)

	resp, err := http.Get(ts.URL + "/v1/aggregate?rack=0&from=0&to=1&metric=0&window=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("aggregate status %d, want 501", resp.StatusCode)
	}

	start := time.Date(2014, 5, 20, 0, 0, 0, 0, timeutil.Chicago)
	to := start.Add(4 * timeutil.SampleInterval)
	got, err := client.AggregateCtx(context.Background(), topology.RackByIndex(2), sensors.MetricFlow, start, to, timeutil.SampleInterval)
	var he *httpError
	if !errors.As(err, &he) || he.code != http.StatusNotImplemented {
		t.Fatalf("client aggregate = %v, %v; want the server's 501", got, err)
	}
}

// scanRow is one materialized row of a chunk scan.
type scanRow struct {
	r    sensors.Record
	tier envdb.Tier
}

// scanRows materializes db's chunk scan.
func scanRows(t *testing.T, db envdb.DB, workers int) []scanRow {
	t.Helper()
	var out []scanRow
	if err := db.ScanChunks(context.Background(), workers, func(c *envdb.Chunk) bool {
		for i := 0; i < c.Len(); i++ {
			out = append(out, scanRow{c.Record(i), c.Tiers[i]})
		}
		return true
	}); err != nil {
		t.Fatalf("ScanChunks: %v", err)
	}
	return out
}

// oracleRows is the brute-force reference for a store without a cold
// tier: every fleet rack's Query output, stable-sorted by (instant, rack
// code), every row TierRaw.
func oracleRows(db envdb.DB, fleet topology.Fleet) []scanRow {
	var out []scanRow
	for _, rack := range fleet.AllRacks() {
		for _, r := range db.Query(rack, time.Unix(0, 0), time.Unix(0, 1<<62)) {
			out = append(out, scanRow{r, envdb.TierRaw})
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		ta, tb := out[a].r.Time.UnixNano(), out[b].r.Time.UnixNano()
		if ta != tb {
			return ta < tb
		}
		return out[a].r.Rack.Code() < out[b].r.Rack.Code()
	})
	return out
}

func sameRows(t *testing.T, label string, got, want []scanRow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !sameRecord(got[i].r, want[i].r) || got[i].tier != want[i].tier {
			t.Fatalf("%s: row %d = %+v/%v, want %+v/%v", label, i, got[i].r, got[i].tier, want[i].r, want[i].tier)
		}
	}
}

// TestScanOrders checks both streaming scan orders against the store's own
// iteration, tier bytes included, and the client's chunk scan against the
// oracle for the slice store and a 2-hall fleet store.
func TestScanOrders(t *testing.T) {
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour, Retention: 12 * time.Hour})
	fillStore(t, store, netTrace(400))
	if st, err := store.Compact(""); err != nil || st.Windows == 0 {
		t.Fatalf("Compact: %+v, %v", st, err)
	}
	_, client := startServer(t, store)

	var wantRack, gotRack []sensors.Record
	store.EachRecord(func(r sensors.Record) { wantRack = append(wantRack, r) })
	client.EachRecord(func(r sensors.Record) { gotRack = append(gotRack, r) })
	if len(gotRack) != len(wantRack) {
		t.Fatalf("rack scan: %d records, want %d", len(gotRack), len(wantRack))
	}
	for i := range wantRack {
		if !sameRecord(gotRack[i], wantRack[i]) {
			t.Fatalf("rack scan record %d: %+v != %+v", i, gotRack[i], wantRack[i])
		}
	}

	// Time order, with the cold tier's rows: the remote chunks equal the
	// local ones row for row and tier for tier.
	local := scanRows(t, store, 3)
	if local[0].tier != envdb.TierDownsampled {
		t.Fatal("compacted store scanned no downsampled rows")
	}
	sameRows(t, "compacted time scan", scanRows(t, client, 3), local)

	// Early stop downloads a prefix without erroring.
	chunks := 0
	if err := client.ScanChunks(context.Background(), 2, func(c *envdb.Chunk) bool { chunks++; return false }); err != nil {
		t.Fatal(err)
	}
	if chunks != 1 {
		t.Fatalf("early stop visited %d chunks, want 1", chunks)
	}

	slice := envdb.NewStore()
	fillStore(t, slice, netTrace(30))
	_, sliceClient := startServer(t, slice)
	one := topology.Fleet{}.Norm()
	sameRows(t, "slice store", scanRows(t, slice, 1), oracleRows(slice, one))
	sameRows(t, "slice store over the wire", scanRows(t, sliceClient, 1), oracleRows(slice, one))

	fleet := topology.Fleet{Halls: 2, Racks: topology.NumRacks}
	wide := tsdb.NewStoreWith(tsdb.Options{Partition: 6 * time.Hour, Fleet: fleet})
	for _, r := range netTrace(60) {
		for hall := 0; hall < fleet.Halls; hall++ {
			r.Rack.Hall = hall
			if err := wide.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, wideClient := startServer(t, wide)
	for _, workers := range []int{1, 2, 3, 8} {
		sameRows(t, fmt.Sprintf("2-hall fleet over the wire, workers=%d", workers), scanRows(t, wideClient, workers), oracleRows(wide, fleet))
	}
}

// TestScanWorkersCap pins the operator's cap on a client's decode fan-out.
func TestScanWorkersCap(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ limit, requested, want int }{
		{limit: 4, requested: 0, want: 4},
		{limit: 4, requested: 2, want: 2},
		{limit: 4, requested: 48, want: 4},
		{limit: 4, requested: -1, want: 4},
		{limit: 0, requested: 0, want: procs},
		{limit: 0, requested: 1, want: 1},
		{limit: 0, requested: procs + 48, want: procs},
		{limit: -3, requested: procs + 1, want: procs},
	} {
		if got := scanWorkers(tc.limit, tc.requested); got != tc.want {
			t.Errorf("scanWorkers(%d, %d) = %d, want %d", tc.limit, tc.requested, got, tc.want)
		}
	}
}

// TestScanWorkersCapHTTP: with ServerOptions.ScanWorkers unset (GOMAXPROCS)
// a client asking for 48 workers gets at most GOMAXPROCS decode goroutines
// — read back from the mira_tsdb_scan_workers gauge. The one-hall store has
// 48 shards, so even an uncapped request could start no more than 48.
func TestScanWorkersCapHTTP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	fillStore(t, store, netTrace(20))
	ts, _ := startServer(t, store)

	resp, err := http.Get(ts.URL + "/v1/scan?order=time&workers=48")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scan status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var workers float64 = -1
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "mira_tsdb_scan_workers "); ok {
			workers, _ = strconv.ParseFloat(v, 64)
		}
	}
	if workers < 1 || workers > 2 {
		t.Fatalf("mira_tsdb_scan_workers = %v after a workers=48 request at GOMAXPROCS 2, want 1..2", workers)
	}
}

func TestInfoEmptyStore(t *testing.T) {
	_, client := startServer(t, tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour}))
	info, err := client.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.HasData || info.Records != 0 || !info.Aggregator {
		t.Fatalf("empty-store info = %+v", info)
	}
	if _, _, ok := client.Bounds(); ok {
		t.Fatal("Bounds ok on empty store")
	}
}

// TestConcurrentIngestQuery is the tentpole's race check: many clients
// pushing disjoint racks while readers hammer info, range queries, and
// aggregate pushdown against the same live store. Run under -race by
// make check.
func TestConcurrentIngestQuery(t *testing.T) {
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	ts, _ := startServer(t, store)

	const (
		pushers = 4
		ticks   = 60
	)
	start := time.Date(2014, 5, 20, 0, 0, 0, 0, timeutil.Chicago)
	var wg sync.WaitGroup
	errs := make(chan error, pushers+4)
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// One pusher per rack group keeps per-rack append order intact
			// no matter how HTTP requests interleave.
			c := NewClient(ts.URL, ClientOptions{BatchSize: 48})
			for i := 0; i < ticks; i++ {
				tick := start.Add(time.Duration(i) * timeutil.SampleInterval)
				for r := p; r < topology.NumRacks; r += pushers {
					rec := sensors.Record{Time: tick, Rack: topology.RackByIndex(r),
						Flow: units.GPM(26 + float64(p)), Power: units.Watts(55000)}
					if err := c.Append(rec); err != nil {
						errs <- err
						return
					}
				}
			}
			if err := c.Flush(); err != nil {
				errs <- err
			}
		}(p)
	}
	readClient := NewClient(ts.URL, ClientOptions{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			to := start.Add(ticks * timeutil.SampleInterval)
			for i := 0; i < 40; i++ {
				if _, err := readClient.Info(); err != nil {
					errs <- fmt.Errorf("info: %w", err)
					return
				}
				rack := topology.RackByIndex((g*11 + i) % topology.NumRacks)
				if _, err := readClient.queryErr(context.Background(), rack, start, to); err != nil {
					errs <- fmt.Errorf("query: %w", err)
					return
				}
				if _, err := readClient.AggregateCtx(context.Background(), rack, sensors.MetricFlow, start, to, time.Hour); err != nil {
					errs <- fmt.Errorf("aggregate: %w", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if want := ticks * topology.NumRacks; store.Len() != want {
		t.Fatalf("store has %d records after concurrent ingest, want %d", store.Len(), want)
	}
}
