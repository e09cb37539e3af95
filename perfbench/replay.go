package main

import (
	"fmt"
	"time"

	"mira/perfbench/loadgen"
)

// The replay workload reads a flushed store whose older part retention
// compaction folded into the cold tier. Set-up simulates, flushes and
// compacts; each pass reopens the store warm, replays the hot tier chunked,
// pushes Figs. 7/9 down across both tiers and regenerates Figs. 3/7/8/9,
// then runs the same figures through the telemetry client against a
// loopback server. Scan, decode and the wire dominate; the simulator only
// runs in set-up.
var (
	replayStart = day(2016, time.January, 1)
	replayEnd   = day(2016, time.March, 1)
)

// replayRetention keeps the newest month full-rate. Compaction folds whole
// 30-day partitions only, so the older month is what folds into 1-hour
// cold windows.
const replayRetention = 30 * 24 * time.Hour

func runReplay(e *runEnv) (*outcome, error) {
	o := newOutcome()
	o.method["window"] = replayStart.Format("2006-01-02") + ".." + replayEnd.Format("2006-01-02")
	o.method["retention"] = replayRetention.String()
	var ts tieredStore
	layer := newLayerSums()
	err := timeSetups(o, func(i int) error {
		dir, err := e.dir("store")
		if err != nil {
			return err
		}
		sp := e.tr.root("replay.setup")
		ts, err = buildTieredStore(sp, e.seed, replayStart, replayEnd, replayRetention, dir)
		sp.end()
		if err == nil && e.traced() {
			layer.add("tsdb.compact_s", ts.Compact.Seconds())
			layer.add("tsdb.cold_windows", float64(ts.Windows))
			layer.add("sim.run_s", spanTimes(e.tr, sp)["sim.run"].Seconds())
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	var (
		firstFP      string // figures and record count of the first pass
		costs        unitCosts
		remote, disk []float64
		reads        loadgen.Units
	)
	err = repeatUnits(e, func(tr *tracer, i int) error {
		root := tr.root("replay.pass")
		var out replayOutput
		cost, err := measure(func() (err error) { out, err = replayTiered(root, ts); return err })
		root.end()
		o.op(err)
		if err != nil {
			return nil
		}
		costs.add(cost, tr != nil)
		disk = append(disk, float64(out.DiskBytes)/(1<<20))
		if tr != nil {
			t := layer.unitTimes(tr, root, "replay.pass")
			layer.add("tsdb.open_s", t["tsdb.open"].Seconds())
			layer.add("tsdb.records", float64(out.Records))
			layer.addReplay(t["analysis.replay"], out.Scan)
			layer.add("analysis.pushdown_s", t["analysis.pushdown"].Seconds())
			layer.add("analysis.figures_s", t["analysis.figures"].Seconds())
		}
		o.check(out.PushdownFP == ts.PrefoldFP, "pass %d: Fig. 7/9 pushdown changed across the cold fold", i)
		o.check(out.Scan.Records > 0 && out.Scan.BlocksDecoded > 0, "pass %d: replay was not chunked (no scan stats)", i)
		fp := fmt.Sprint(out.FiguresFP, out.Records)
		if firstFP == "" {
			firstFP = fp
		}
		o.check(fp == firstFP, "pass %d: figures changed for the same seed", i)

		// The same figures over the wire.
		rsp := tr.root("replay.remote")
		meter := &wireMeter{}
		var h *handlerTimer
		handler := telemetryHandler(out.Store)
		if tr != nil {
			h = newHandlerTimer(handler, tr)
			handler = h
		}
		lb, err := serveLoopback(handler)
		if err != nil {
			return err
		}
		var figFP, pushFP string
		d, err := timeSettled(func() (err error) {
			figFP, pushFP, err = remoteReplay(rsp, newRemoteStore(lb.URL, meter.client()))
			return err
		})
		remote = append(remote, d.Seconds())
		lb.close()
		rsp.end()
		o.op(err)
		if err == nil {
			o.check(figFP == out.FiguresFP, "pass %d: remote Figs. 3/7/8/9 differ from local", i)
			o.check(pushFP == out.PushdownFP, "pass %d: remote Fig. 7/9 pushdown differs from local", i)
		}
		n, times := meter.take()
		reads.Add(msOf(times))
		if tr != nil {
			rt := spanTimes(tr, rsp)
			layer.add("net.remote_replay_s", rt["net.remote_replay"].Seconds())
			layer.add("net.remote_pushdown_s", rt["net.remote_pushdown"].Seconds())
			var scan time.Duration
			for _, d := range h.take("/v1/scan") {
				scan += d
			}
			layer.add("net.server.scan_s", scan.Seconds())
			if out.Records > 0 {
				layer.add("net.wire_bytes_per_rec", float64(n)/float64(out.Records))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := costs.report(o, e.traced()); err != nil {
		return nil, err
	}
	readTail := reads.Summary()
	o.metrics["disk_mib"] = loadgen.Median(disk)
	o.metrics["remote_wall_s"] = loadgen.Median(remote)
	o.metrics["read_p50_ms"] = readTail.P50
	o.metrics["ok_ratio"] = okRatio(o)
	o.method["read_tail"] = readTail
	if e.traced() {
		layer.addReadTail(readTail)
		layer.report(o, e.tr)
	}
	return o, nil
}
