package main

import (
	"time"

	"mira/perfbench/loadgen"
)

// layerSums collects per-layer values from each traced unit; the traced
// run reports each one's median.
type layerSums struct{ vals map[string][]float64 }

func newLayerSums() *layerSums { return &layerSums{vals: map[string][]float64{}} }

func (l *layerSums) add(name string, v float64) { l.vals[name] = append(l.vals[name], v) }

// report writes every collected metric's median, and the span count.
func (l *layerSums) report(o *outcome, tr *tracer) {
	for name, vs := range l.vals {
		o.metrics[name] = loadgen.Median(vs)
	}
	o.metrics["trace.spans"] = float64(tr.count())
}

// spanTimes returns total time per span name within one root's trace.
func spanTimes(tr *tracer, root span) map[string]time.Duration {
	total, _ := tr.layerTimes(map[uint64]bool{root.trace: true})
	return total
}

// unitTimes is spanTimes for a measured unit's root span, also recording
// the root's self time: the part of the unit no layer span covers.
func (l *layerSums) unitTimes(tr *tracer, root span, rootName string) map[string]time.Duration {
	total, self := tr.layerTimes(map[uint64]bool{root.trace: true})
	l.add("trace.root_self_s", self[rootName].Seconds())
	return total
}

// addSim records the simulator's split: Run, its recorder callbacks, and
// Run's own time without them.
func (l *layerSums) addSim(run time.Duration, rec recorderTimes, ticks, samples, incidents int) {
	self := run - rec.Collector - rec.Windows - rec.Ingest
	l.add("sim.run_s", run.Seconds())
	l.add("sim.self_s", self.Seconds())
	if ticks > 0 {
		l.add("sim.tick_us", float64(run)/float64(ticks)/1e3)
	}
	l.add("sim.ticks", float64(ticks))
	l.add("sim.samples", float64(samples))
	l.add("sim.incidents", float64(incidents))
	l.add("sim.rec.collector_s", rec.Collector.Seconds())
	l.add("sim.rec.windows_s", rec.Windows.Seconds())
	l.add("sim.rec.ingest_s", rec.Ingest.Seconds())
	if samples > 0 {
		l.add("tsdb.append_ns_per_rec", float64(rec.Ingest)/float64(samples))
	}
}

// addReplay records a local replay's time, rate and scan counters.
func (l *layerSums) addReplay(replay time.Duration, scan scanCounts) {
	l.add("analysis.replay_s", replay.Seconds())
	if replay > 0 {
		l.add("analysis.replay_mrec_per_s", float64(scan.Records)/replay.Seconds()/1e6)
	}
	l.add("analysis.blocks_decoded", float64(scan.BlocksDecoded))
	l.add("analysis.blocks_pruned", float64(scan.BlocksPruned))
}

// addFigures records one traced figures pass.
func (l *layerSums) addFigures(t map[string]time.Duration, out figuresOutput, rec recorderTimes) {
	l.addSim(t["sim.run"], rec, out.Ticks, out.Records, out.Incidents)
	l.add("tsdb.records", float64(out.Records))
	l.add("tsdb.seal_flush_s", (t["tsdb.seal"] + t["tsdb.flush"]).Seconds())
	l.add("tsdb.bytes_per_sample", out.BytesPerSample)
	l.add("tsdb.open_s", t["tsdb.open"].Seconds())
	l.addReplay(t["analysis.replay"], out.Scan)
	l.add("analysis.pushdown_s", t["analysis.pushdown"].Seconds())
	l.add("analysis.figures_s", t["analysis.figures"].Seconds())
	l.add("core.fig13_s", t["core.fig13"].Seconds())
}

// addReadTail records the run's read tail and the samples behind it.
func (l *layerSums) addReadTail(t loadgen.UnitsSummary) {
	l.add("read.p99_ms", t.Tail)
	l.add("read.samples", float64(t.N))
	l.add("read.tail_pct", t.Percentile)
}

// addTail records a latency sample set's median and tail in ms.
func (l *layerSums) addTail(prefix, unit string, ds []time.Duration) {
	if len(ds) == 0 {
		return
	}
	xs := make([]float64, len(ds))
	scale := float64(time.Millisecond)
	if unit == "us" {
		scale = float64(time.Microsecond)
	}
	for i, d := range ds {
		xs[i] = float64(d) / scale
	}
	t := loadgen.Summarize(xs)
	l.add(prefix+"_p50_"+unit, t.P50)
	l.add(prefix+"_p99_"+unit, t.Value)
}
