package main

// adapter.go holds every call the benchmark makes into the twin's packages.
// Workload files drive these functions and time them; they never import a
// program package themselves, so a refactor of the program's interfaces
// changes the call sites here and nothing that is measured.
//
// The benchmark wraps only sim.Recorder (forwarding all four callbacks),
// http.Handler, http.RoundTripper and campaign.WorkerOptions.Run. It never
// wraps the envdb.DB handed to analysis or to the telemetry server: both
// type-assert the store for its fast scan and pushdown paths, and a wrapper
// would silently send them down the fallbacks.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"time"

	"mira/internal/analysis"
	"mira/internal/campaign"
	"mira/internal/core"
	"mira/internal/envdb"
	"mira/internal/failure"
	"mira/internal/obs"
	"mira/internal/sensors"
	"mira/internal/sim"
	"mira/internal/telemetrynet"
	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/tsdb"
	"mira/internal/units"
)

// numRacks is the racks of one machine hall.
const numRacks = topology.NumRacks

// numMetrics is the channels of one coolant-monitor record.
const numMetrics = int(sensors.NumMetrics)

// sampleInterval is the coolant monitor's native cadence.
const sampleInterval = timeutil.SampleInterval

// day returns midnight of the date in the plant's zone.
func day(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, timeutil.Chicago)
}

// fingerprint digests a value's printed form. Printing uses the shortest
// representation that round-trips each float64, so two values print alike
// exactly when they are bit-identical (NaN aside, which prints as NaN).
func fingerprint(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%v", v)))
	return hex.EncodeToString(sum[:8])
}

// ---------------------------------------------------------------------------
// Recorder timing. In traced runs every recorder is wrapped so the time the
// simulator spends in each recorder's callbacks can be split from its own.
// ---------------------------------------------------------------------------

// timedRecorder forwards every callback to the inner recorder and adds the
// time spent there to *spent.
type timedRecorder struct {
	inner sim.Recorder
	spent *time.Duration
}

func (r timedRecorder) OnSample(rec sensors.Record) {
	t0 := time.Now()
	r.inner.OnSample(rec)
	*r.spent += time.Since(t0)
}

func (r timedRecorder) OnTick(t time.Time, p units.Watts, util float64) {
	t0 := time.Now()
	r.inner.OnTick(t, p, util)
	*r.spent += time.Since(t0)
}

func (r timedRecorder) OnIncident(inc sim.Incident) {
	t0 := time.Now()
	r.inner.OnIncident(inc)
	*r.spent += time.Since(t0)
}

func (r timedRecorder) OnRackState(t time.Time, rack topology.RackID, util float64) {
	t0 := time.Now()
	r.inner.OnRackState(t, rack, util)
	*r.spent += time.Since(t0)
}

// addRecorder attaches rec to s, timed into *spent when spent is non-nil.
func addRecorder(s *sim.Simulator, rec sim.Recorder, spent *time.Duration) {
	if spent != nil {
		rec = timedRecorder{inner: rec, spent: spent}
	}
	s.AddRecorder(rec)
}

// recorderTimes is the traced split of one simulation's recorder time.
type recorderTimes struct {
	Collector, Windows, Ingest time.Duration
}

// ---------------------------------------------------------------------------
// Figure regeneration: sim → tsdb → flush → warm open → replay → figures.
// ---------------------------------------------------------------------------

// figuresInput is one regeneration run.
type figuresInput struct {
	Seed       int64
	Start, End time.Time
	// EpisodesPerRack overrides the failure model's coolant-episode rate
	// (the paper-calibrated default is 2.5 per rack over six years).
	EpisodesPerRack float64
	// Dir receives the flushed segments.
	Dir string
	// Recorders, when non-nil, receives the recorder split (traced runs).
	Recorders *recorderTimes
	// SkipFig13 leaves out the predictor sweep, whose 5-fold
	// cross-validation needs more incidents than a short window holds.
	SkipFig13 bool
}

// figuresOutput is what a regeneration produced.
type figuresOutput struct {
	Ticks, Records, Incidents int
	DiskBytes                 int64
	BytesPerSample            float64
	Scan                      scanCounts
	// Store is the reopened store, for serving it afterwards; flushed is
	// the in-memory store that was flushed.
	Store, flushed *tsdb.Store

	memory, stored offlineFigures // from the collector and the replay
	pushdown       pushdownFigures
	all            []any // every figure
}

// figuresDigest is a regeneration's outputs in comparable form, computed
// after the timed pass.
type figuresDigest struct {
	// StoreFP fingerprints Figs. 3/7/8/9 from the reopened store's replay;
	// FlushedFP the same figures replayed from the store before the flush
	// (empty unless asked for).
	StoreFP, FlushedFP string
	// MemoryVsStore is the largest absolute difference between the
	// in-memory collector's and the store replay's Figs. 3/7/8/9 numbers.
	MemoryVsStore float64
	// PushdownFP fingerprints the Fig. 7/9 pushdown over the reopened
	// store; AllFP every figure, for run-to-run determinism.
	PushdownFP, AllFP string
	Fig13Points       int
	// The exact counts, which repeat for a seed.
	Ticks, Records, Incidents int
	DiskBytes                 int64
}

// digest fingerprints the outputs; withFlushed also replays the flushed
// in-memory store.
func (out *figuresOutput) digest(withFlushed bool) figuresDigest {
	d := figuresDigest{
		StoreFP:       fingerprint(out.stored),
		MemoryVsStore: maxAbsDiff(out.memory.numbers(), out.stored.numbers()),
		PushdownFP:    fingerprint(out.pushdown),
		AllFP:         fingerprint(out.all),
		Ticks:         out.Ticks, Records: out.Records, Incidents: out.Incidents, DiskBytes: out.DiskBytes,
	}
	if n := len(out.all); n > 0 {
		if fig13, ok := out.all[n-1].([]core.LeadPoint); ok {
			d.Fig13Points = len(fig13)
		}
	}
	if withFlushed {
		d.FlushedFP = fingerprint(offlineFrom(replayStore(out.flushed, nil)))
	}
	return d
}

// scanCounts is the work a replay's merged scan reported.
type scanCounts struct {
	Records, BlocksDecoded, BlocksPruned int64
}

func (c *scanCounts) add(s *envdb.ScanStats) {
	c.Records += s.Records.Load()
	c.BlocksDecoded += s.BlocksDecoded.Load()
	c.BlocksPruned += s.BlocksPruned.Load()
}

// offlineFigures are the figures a store replay can regenerate.
type offlineFigures struct {
	Fig3 analysis.CoolantTimeline
	Fig7 analysis.RackCoolant
	Fig8 analysis.AmbientTimeline
	Fig9 analysis.RackAmbient
}

func offlineFrom(c *analysis.Collector) offlineFigures {
	return offlineFigures{c.Fig3CoolantTimeline(), c.Fig7RackCoolant(), c.Fig8AmbientTimeline(), c.Fig9RackAmbient()}
}

// numbers lists the figures' values for a tolerance comparison.
func (f offlineFigures) numbers() []float64 {
	var out []float64
	out = append(out, f.Fig3.FlowGPM...)
	out = append(out, f.Fig3.InletF...)
	out = append(out, f.Fig3.OutletF...)
	out = append(out, f.Fig3.InletStd, f.Fig3.OutletStd)
	out = append(out, f.Fig7.FlowGPM...)
	out = append(out, f.Fig7.InletF...)
	out = append(out, f.Fig7.OutletF...)
	out = append(out, f.Fig8.TempF...)
	out = append(out, f.Fig8.HumidityRH...)
	out = append(out, f.Fig8.TempStd, f.Fig8.HumStd)
	out = append(out, f.Fig9.TempF...)
	out = append(out, f.Fig9.HumidityRH...)
	return out
}

// maxAbsDiff is the largest elementwise difference, +Inf on a length
// mismatch or where exactly one side is NaN.
func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range a {
		if math.IsNaN(a[i]) || math.IsNaN(b[i]) {
			if math.IsNaN(a[i]) != math.IsNaN(b[i]) {
				return math.Inf(1)
			}
			continue
		}
		worst = math.Max(worst, math.Abs(a[i]-b[i]))
	}
	return worst
}

// pushdownFigures is the Fig. 7/9 aggregation pushdown over a store or a
// remote client.
type pushdownFigures struct {
	Fig7 analysis.RackCoolant
	Fig9 analysis.RackAmbient
}

func pushdown(ctx context.Context, db envdb.Aggregator) (pushdownFigures, error) {
	f7, err := analysis.Fig7CoolantPushdownCtx(ctx, db)
	if err != nil {
		return pushdownFigures{}, fmt.Errorf("fig7 pushdown: %w", err)
	}
	f9, err := analysis.Fig9AmbientPushdownCtx(ctx, db)
	if err != nil {
		return pushdownFigures{}, fmt.Errorf("fig9 pushdown: %w", err)
	}
	return pushdownFigures{f7, f9}, nil
}

// replayStore runs the chunked (or, over the wire, merged-record) replay
// of db through a collector, accumulating scan counters into scan.
func replayStore(db envdb.DB, scan *scanCounts) *analysis.Collector {
	st := new(envdb.ScanStats)
	ctx := envdb.ContextWithScanStats(context.Background(), st)
	c := analysis.CollectFromStoreCtx(ctx, db, analysis.CollectOptions{})
	if scan != nil {
		scan.add(st)
	}
	return c
}

// regenerateFigures is the headline run: simulate one 48-rack hall with the
// figure collectors and a tsdb sink, seal and flush the store, reopen it
// warm, replay it chunked, push Figs. 7/9 down, and compute every figure.
func regenerateFigures(sp span, in figuresInput) (out figuresOutput, err error) {
	step := sampleInterval
	s := sim.New(sim.Config{Seed: in.Seed, Start: in.Start, End: in.End, Step: step,
		Failure: failure.Config{MeanEpisodesPerRack: in.EpisodesPerRack}})
	collector := analysis.NewCollector()
	windowTicks := int((core.FeatureSpan+6*time.Hour)/step) + 1
	windows := sim.NewIncidentWindowRecorder(windowTicks, 250, 4000)
	db := tsdb.NewStore()
	ingest := sim.NewEnvDBRecorder(db)
	var rt recorderTimes
	if in.Recorders != nil {
		addRecorder(s, collector, &rt.Collector)
		addRecorder(s, windows, &rt.Windows)
		addRecorder(s, ingest, &rt.Ingest)
	} else {
		s.AddRecorder(collector)
		s.AddRecorder(windows)
		s.AddRecorder(ingest)
	}
	err = sp.within("sim.run", func() error {
		if err := s.Run(); err != nil {
			return err
		}
		return ingest.Err
	})
	if err != nil {
		return out, fmt.Errorf("simulate: %w", err)
	}
	collector.Finalize()
	if in.Recorders != nil {
		*in.Recorders = rt
	}
	out.Ticks = int((in.End.Sub(in.Start) + step - 1) / step)
	out.Incidents = len(s.Incidents())

	sp.within("tsdb.seal", func() error { db.SealAll(); return nil })
	out.flushed = db
	if err := sp.within("tsdb.flush", func() error { return db.Flush(in.Dir) }); err != nil {
		return out, fmt.Errorf("flush: %w", err)
	}
	var warm *tsdb.Store
	err = sp.within("tsdb.open", func() error {
		warm, err = tsdb.Open(in.Dir, tsdb.Options{})
		return err
	})
	if err != nil {
		return out, fmt.Errorf("warm open: %w", err)
	}
	st := warm.Stats()
	out.Records, out.DiskBytes, out.BytesPerSample = warm.Len(), st.DiskBytes, st.BytesPerSample
	out.Store = warm

	var replayed *analysis.Collector
	sp.within("analysis.replay", func() error { replayed = replayStore(warm, &out.Scan); return nil })
	err = sp.within("analysis.pushdown", func() (err error) {
		out.pushdown, err = pushdown(context.Background(), warm)
		return err
	})
	if err != nil {
		return out, err
	}
	sp.within("analysis.figures", func() error {
		out.stored, out.memory = offlineFrom(replayed), offlineFrom(collector)
		log := s.Log()
		out.all = []any{
			collector.Fig2YearlyTrend(), out.memory, out.stored, collector.Fig4MonthlyProfile(),
			collector.Fig5WeekdayProfile(), collector.Fig6RackPowerUtil(), out.pushdown,
			analysis.Fig10CMFPerYear(log), analysis.Fig11CMFPerRack(log, collector),
			analysis.Fig12LeadUp(windows.Positives(), s.Incidents(), step), analysis.Fig14PostCMF(log),
			analysis.Fig15PostCMFSpatial(log, s.Incidents()),
			collector.EfficiencyStudy(in.Seed+5, in.Start.Year()),
		}
		return nil
	})
	if in.SkipFig13 {
		return out, nil
	}
	var fig13 []core.LeadPoint
	err = sp.within("core.fig13", func() (err error) {
		fig13, err = core.LeadTimeSweep(windows.Positives(), windows.Negatives(core.FeatureSpan), step,
			core.DefaultLeads(), core.Config{Seed: in.Seed}, core.DeltaFeatures)
		return err
	})
	if err != nil {
		return out, fmt.Errorf("fig13: %w", err)
	}
	out.all = append(out.all, fig13)
	return out, nil
}

// ---------------------------------------------------------------------------
// Warm replay of a two-tier store, locally and over the wire.
// ---------------------------------------------------------------------------

// tieredStore is the replay workload's input: a flushed store whose older
// part retention compaction folded into the cold tier.
type tieredStore struct {
	Dir       string
	Retention time.Duration
	// PrefoldFP fingerprints the Fig. 7/9 pushdown before the fold.
	PrefoldFP string
	Compact   time.Duration
	Windows   int
}

// buildTieredStore simulates [start, end) into a store, flushes it to dir,
// and compacts everything older than retention into the cold tier.
func buildTieredStore(sp span, seed int64, start, end time.Time, retention time.Duration, dir string) (ts tieredStore, err error) {
	ts.Dir, ts.Retention = dir, retention
	s := sim.New(sim.Config{Seed: seed, Start: start, End: end, Step: sampleInterval})
	db := tsdb.NewStoreWith(tsdb.Options{Retention: retention})
	rec := sim.NewEnvDBRecorder(db)
	s.AddRecorder(rec)
	err = sp.within("sim.run", func() error {
		if err := s.Run(); err != nil {
			return err
		}
		return rec.Err
	})
	if err != nil {
		return ts, fmt.Errorf("simulate: %w", err)
	}
	db.SealAll()
	if err := sp.within("tsdb.flush", func() error { return db.Flush(dir) }); err != nil {
		return ts, fmt.Errorf("flush: %w", err)
	}
	pd, err := pushdown(context.Background(), db)
	if err != nil {
		return ts, err
	}
	ts.PrefoldFP = fingerprint(pd)
	c := sp.child("tsdb.compact")
	t0 := time.Now()
	cs, err := db.Compact(dir)
	ts.Compact = time.Since(t0)
	c.end()
	if err != nil {
		return ts, fmt.Errorf("compact: %w", err)
	}
	if cs.Windows == 0 {
		return ts, fmt.Errorf("compact folded nothing: retention %v covers the whole store", retention)
	}
	ts.Windows = cs.Windows
	return ts, nil
}

// replayOutput is one warm replay's figures and counters.
type replayOutput struct {
	Records    int
	DiskBytes  int64
	FiguresFP  string
	PushdownFP string
	Scan       scanCounts
	Store      *tsdb.Store
}

// replayTiered reopens the tiered store warm, replays the hot tier chunked
// and pushes Figs. 7/9 down across both tiers.
func replayTiered(sp span, ts tieredStore) (out replayOutput, err error) {
	var db *tsdb.Store
	err = sp.within("tsdb.open", func() error {
		db, err = tsdb.Open(ts.Dir, tsdb.Options{Retention: ts.Retention})
		return err
	})
	if err != nil {
		return out, fmt.Errorf("warm open: %w", err)
	}
	out.Store, out.Records, out.DiskBytes = db, db.Len(), db.Stats().DiskBytes
	var c *analysis.Collector
	sp.within("analysis.replay", func() error { c = replayStore(db, &out.Scan); return nil })
	var pd pushdownFigures
	if err := sp.within("analysis.pushdown", func() (err error) { pd, err = pushdown(context.Background(), db); return err }); err != nil {
		return out, err
	}
	sp.within("analysis.figures", func() error { out.FiguresFP = fingerprint(offlineFrom(c)); return nil })
	out.PushdownFP = fingerprint(pd)
	return out, nil
}

// ---------------------------------------------------------------------------
// The telemetry server and its client.
// ---------------------------------------------------------------------------

// telemetryHandler is the telemetry API over db.
func telemetryHandler(db *tsdb.Store) http.Handler {
	return telemetrynet.NewServer(db, telemetrynet.ServerOptions{}).Handler()
}

// remoteStore is a telemetry client bound to one HTTP client.
type remoteStore struct{ c *telemetrynet.Client }

func newRemoteStore(url string, hc *http.Client) remoteStore {
	return remoteStore{telemetrynet.NewClient(url, telemetrynet.ClientOptions{HTTPClient: hc})}
}

// remoteReplay is replayTiered's figures computed through the client.
func remoteReplay(sp span, r remoteStore) (figFP, pushFP string, err error) {
	var c *analysis.Collector
	sp.within("net.remote_replay", func() error { c = replayStore(r.c, nil); return nil })
	var pd pushdownFigures
	if err := sp.within("net.remote_pushdown", func() (err error) { pd, err = pushdown(context.Background(), r.c); return err }); err != nil {
		return "", "", err
	}
	return fingerprint(offlineFrom(c)), fingerprint(pd), nil
}

// remotePushdown is the Fig. 7/9 pushdown through the client.
func remotePushdown(r remoteStore) (string, error) {
	pd, err := pushdown(context.Background(), r.c)
	if err != nil {
		return "", err
	}
	return fingerprint(pd), nil
}

// ---------------------------------------------------------------------------
// Serving: reads and ingest against a live store.
// ---------------------------------------------------------------------------

// readOp is one request kind of the serve mix.
type readOp int

const (
	opQuery readOp = iota
	opSeries
	opAggregate
	numReadOps
)

var readOpNames = [numReadOps]string{"query", "series", "aggregate"}

// readRequest is one read of the serve mix.
type readRequest struct {
	Op       readOp
	Rack     int
	Metric   int
	From, To time.Time
	Window   time.Duration
}

// readResult is a read's raw result, as the client or store returned it.
type readResult struct {
	op    readOp
	recs  []sensors.Record
	times []time.Time
	vals  []float64
	aggs  []envdb.WindowAgg
}

// readAnswer is a read's result in a comparable form.
type readAnswer string

// answer prints the result for comparison; it is kept out of the timed
// request path.
func (r readResult) answer() readAnswer {
	switch r.op {
	case opQuery:
		return answerRecords(r.recs)
	case opSeries:
		return answerSeries(r.times, r.vals)
	default:
		return answerAggs(r.aggs)
	}
}

func (r readRequest) rack() topology.RackID { return topology.RackByIndex(r.Rack) }

// do performs the read through the client. The client's error-free read
// surface panics on a failed request; that is reported as an error.
func (r readRequest) do(c remoteStore) (res readResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: %v", readOpNames[r.Op], p)
		}
	}()
	res.op = r.Op
	switch r.Op {
	case opQuery:
		res.recs = c.c.Query(r.rack(), r.From, r.To)
	case opSeries:
		res.times, res.vals = c.c.Series(r.rack(), sensors.Metric(r.Metric), r.From, r.To)
	default:
		res.aggs, err = c.c.AggregateCtx(context.Background(), r.rack(), sensors.Metric(r.Metric), r.From, r.To, r.Window)
	}
	return res, err
}

// direct performs the same read on the store in-process.
func (r readRequest) direct(db *tsdb.Store) (res readResult, err error) {
	res.op = r.Op
	switch r.Op {
	case opQuery:
		res.recs = db.Query(r.rack(), r.From, r.To)
	case opSeries:
		res.times, res.vals = db.Series(r.rack(), sensors.Metric(r.Metric), r.From, r.To)
	default:
		res.aggs, err = db.Aggregate(r.rack(), sensors.Metric(r.Metric), r.From, r.To, r.Window)
	}
	return res, err
}

// Answers print instants as UnixNano: a remote read reconstructs times in
// a fixed zone, a local one in the plant's, and both are the same instant.
func answerRecords(recs []sensors.Record) readAnswer {
	type row struct {
		T    int64
		Rack topology.RackID
		V    [sensors.NumMetrics]float64
	}
	rows := make([]row, len(recs))
	for i, r := range recs {
		rows[i] = row{T: r.Time.UnixNano(), Rack: r.Rack}
		for m := range rows[i].V {
			rows[i].V[m] = r.Value(sensors.Metric(m))
		}
	}
	return readAnswer(fmt.Sprintf("%v", rows))
}

func answerSeries(times []time.Time, vals []float64) readAnswer {
	ns := make([]int64, len(times))
	for i, t := range times {
		ns[i] = t.UnixNano()
	}
	return readAnswer(fmt.Sprintf("%v %v", ns, vals))
}

func answerAggs(aggs []envdb.WindowAgg) readAnswer {
	type row struct {
		Start, Count  int64
		Min, Max, Sum float64
	}
	rows := make([]row, len(aggs))
	for i, a := range aggs {
		rows[i] = row{a.Start.UnixNano(), int64(a.Count), a.Min, a.Max, a.Sum}
	}
	return readAnswer(fmt.Sprintf("%v", rows))
}

// tick is one simulated instant's records, one per reporting rack.
type tick = []sensors.Record

// tickTime is the tick's instant in UnixNano.
func tickTime(t tick) int64 { return t[0].Time.UnixNano() }

// servedStore is the serve workload's input: a store holding the base span
// plus the ticks that follow it, kept back for the ingest stream.
type servedStore struct {
	Store       *tsdb.Store
	Start, End  time.Time // the base span
	BaseRecords int
	Ticks       []tick
}

// splitRecorder appends samples before cut to the store and groups the
// rest into ticks.
type splitRecorder struct {
	sim.NopRecorder
	db    *tsdb.Store
	cut   time.Time
	ticks []tick
	err   error
}

func (r *splitRecorder) OnSample(rec sensors.Record) {
	if rec.Time.Before(r.cut) {
		if err := r.db.Append(rec); err != nil && r.err == nil {
			r.err = err
		}
		return
	}
	if n := len(r.ticks); n == 0 || !r.ticks[n-1][0].Time.Equal(rec.Time) {
		r.ticks = append(r.ticks, make(tick, 0, numRacks))
	}
	r.ticks[len(r.ticks)-1] = append(r.ticks[len(r.ticks)-1], rec)
}

// buildServedStore simulates [start, end+ingestTicks·step): the base span
// lands in a sealed store, the rest is kept as ingest ticks.
func buildServedStore(sp span, seed int64, start, end time.Time, ingestTicks int) (servedStore, error) {
	stop := end.Add(time.Duration(ingestTicks) * sampleInterval)
	s := sim.New(sim.Config{Seed: seed, Start: start, End: stop, Step: sampleInterval})
	rec := &splitRecorder{db: tsdb.NewStore(), cut: end}
	s.AddRecorder(rec)
	err := sp.within("sim.run", func() error {
		if err := s.Run(); err != nil {
			return err
		}
		return rec.err
	})
	if err != nil {
		return servedStore{}, fmt.Errorf("simulate: %w", err)
	}
	rec.db.SealAll()
	if len(rec.ticks) < ingestTicks {
		return servedStore{}, fmt.Errorf("simulated %d ingest ticks, want %d", len(rec.ticks), ingestTicks)
	}
	return servedStore{Store: rec.db, Start: start, End: end, BaseRecords: rec.db.Len(), Ticks: rec.ticks[:ingestTicks]}, nil
}

// ingestTick pushes one tick through the client and flushes it as one
// frame.
func ingestTick(c remoteStore, t tick) error {
	for _, r := range t {
		if err := c.c.Append(r); err != nil {
			return err
		}
	}
	return c.c.Flush()
}

// newIngestClient is the serve workload's writer: batches never fill on
// their own, so each tick is one explicitly flushed frame.
func newIngestClient(url string, hc *http.Client) remoteStore {
	return remoteStore{telemetrynet.NewClient(url, telemetrynet.ClientOptions{HTTPClient: hc, BatchSize: 1 << 20})}
}

// ingestStats are the writer's retry and dedup counters.
func ingestStats(c remoteStore) (retries, duplicates int) {
	st := c.c.Stats()
	return st.Retries, st.DuplicateBatches
}

// appendTickDirect replays one ingest tick on a store in-process.
func appendTickDirect(db *tsdb.Store, t tick) error { return db.AppendTick(t) }

// newStore is an empty default store.
func newStore() *tsdb.Store { return tsdb.NewStore() }

// readBack fetches every rack's records in [from, to) through the client.
func readBack(c remoteStore, from, to time.Time) ([]readResult, error) {
	out := make([]readResult, numRacks)
	for i := range out {
		var err error
		if out[i], err = (readRequest{Op: opQuery, Rack: i, From: from, To: to}).do(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sameAsStore reports whether a read-back equals the store's own answer
// for the same racks and range, record for record and bit for bit.
func sameAsStore(got []readResult, db *tsdb.Store, from, to time.Time) bool {
	if len(got) != numRacks {
		return false
	}
	for i := range got {
		if !sameRecords(got[i].recs, db.Query(topology.RackByIndex(i), from, to)) {
			return false
		}
	}
	return true
}

func sameRecords(a, b []sensors.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Time.UnixNano() != b[i].Time.UnixNano() || a[i].Rack != b[i].Rack {
			return false
		}
		for m := sensors.Metric(0); m < sensors.NumMetrics; m++ {
			if math.Float64bits(a[i].Value(m)) != math.Float64bits(b[i].Value(m)) {
				return false
			}
		}
	}
	return true
}

// ingestedIntact counts the sent records the store holds intact. The
// server quantizes on ingest exactly as a local store does, so the sent
// ticks appended to a fresh local store are the reference.
func ingestedIntact(db *tsdb.Store, ticks []tick) (matched, want int, err error) {
	if len(ticks) == 0 {
		return 0, 0, nil
	}
	ref := tsdb.NewStore()
	for _, t := range ticks {
		if err := ref.AppendTick(t); err != nil {
			return 0, 0, err
		}
	}
	from, to := ticks[0][0].Time, ticks[len(ticks)-1][0].Time.Add(time.Nanosecond)
	for i := 0; i < numRacks; i++ {
		rack := topology.RackByIndex(i)
		recs := ref.Query(rack, from, to)
		want += len(recs)
		if sameRecords(db.Query(rack, from, to), recs) {
			matched += len(recs)
		}
	}
	return matched, want, nil
}

// storeLen is the store's record count.
func storeLen(db *tsdb.Store) int { return db.Len() }

// flushStore persists the store to dir and reports its segment bytes.
func flushStore(db *tsdb.Store, dir string) (int64, error) {
	db.SealAll()
	if err := db.Flush(dir); err != nil {
		return 0, err
	}
	return db.Stats().DiskBytes, nil
}

// ---------------------------------------------------------------------------
// Campaign sweeps.
// ---------------------------------------------------------------------------

// sweepJob is one job of the sweep; its spec is built in specFor.
type sweepJob struct {
	Name         string
	Seed         int64
	FailureScale float64
	Halls, Days  int
	Start        time.Time
}

func (j sweepJob) spec() campaign.JobSpec {
	return campaign.JobSpec{
		Version:      campaign.SpecVersion,
		Name:         j.Name,
		Seed:         j.Seed,
		Halls:        j.Halls,
		Racks:        numRacks,
		Start:        j.Start.Format("2006-01-02"),
		End:          j.Start.AddDate(0, 0, j.Days).Format("2006-01-02"),
		FailureScale: j.FailureScale,
	}
}

// jobResult is a job's outcome with the fields the queue and the worker
// stamp (id, name, seed, worker, attempt, elapsed time) cleared, so a
// dispatched result compares equal to a direct run of the same spec.
type jobResult string

func resultOf(r campaign.RunResult) jobResult {
	r.JobID, r.Name, r.Seed, r.Worker, r.Attempt, r.ElapsedSeconds = 0, "", 0, 0, 0, 0
	return jobResult(fmt.Sprintf("%+v", r))
}

// dispatcher is a campaign queue served over HTTP.
type dispatcher struct {
	q *campaign.Queue
	h http.Handler
}

func openDispatcher(dir string, lease time.Duration) (dispatcher, error) {
	q, err := campaign.OpenQueue(dir, campaign.QueueOptions{Lease: lease})
	if err != nil {
		return dispatcher{}, err
	}
	return dispatcher{q: q, h: campaign.NewDispatcher(q, nil).Handler()}, nil
}

// campaignClient is the analyst's client of a dispatcher.
type campaignClient struct{ c *campaign.Client }

func newCampaignClient(url string, hc *http.Client) campaignClient {
	return campaignClient{campaign.NewClient(url, hc)}
}

func (c campaignClient) submit(j sweepJob) error {
	_, err := c.c.Submit(context.Background(), j.spec())
	return err
}

// status polls the sweep's job states and reports how many are done.
func (c campaignClient) status() (done int, err error) {
	jobs, err := c.c.Status(context.Background())
	for _, j := range jobs {
		if j.State == campaign.StateDone {
			done++
		}
	}
	return done, err
}

// results fetches every completed result, keyed by job name.
func (c campaignClient) results() (map[string][]jobResult, error) {
	rs, err := c.c.Results(context.Background())
	if err != nil {
		return nil, err
	}
	out := make(map[string][]jobResult)
	for _, r := range rs {
		out[r.Name] = append(out[r.Name], resultOf(r))
	}
	return out, nil
}

// drainOutcome is what one worker's drain reported.
type drainOutcome struct {
	Completed, Duplicates int
	LeaseExpiries         uint64
}

// leaseExpiries reads the dispatcher's expired-lease counter.
func leaseExpiries() uint64 {
	return obs.Default().Counter("mira_campaign_leases_expired_total", "campaign leases that expired without a heartbeat").Value()
}

// drain runs one in-process worker against the dispatcher until the sweep
// drains. run, when non-nil, wraps campaign.RunJob (the worker's Run).
func drain(url string, hc *http.Client, run func(ctx context.Context, job func() error) error) (drainOutcome, error) {
	var out drainOutcome
	opts := campaign.WorkerOptions{HTTPClient: hc, Poll: 50 * time.Millisecond}
	if run != nil {
		opts.Run = func(ctx context.Context, spec campaign.JobSpec) (res campaign.RunResult, err error) {
			err = run(ctx, func() (err error) { res, err = campaign.RunJob(ctx, spec); return err })
			return res, err
		}
	}
	before := leaseExpiries()
	w := campaign.NewWorker(url, opts)
	err := w.RunLoop()
	out.Completed, out.Duplicates = w.Completed, w.Duplicates
	out.LeaseExpiries = leaseExpiries() - before
	return out, err
}

// runJobDirect runs a job's spec outside the campaign.
func runJobDirect(j sweepJob) (jobResult, error) {
	r, err := campaign.RunJob(context.Background(), j.spec())
	return resultOf(r), err
}
