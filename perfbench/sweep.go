package main

import (
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"mira/perfbench/loadgen"
)

// The sweep workload drains a campaign: a dispatcher over a fresh queue
// directory with every job submitted in set-up, and one in-process worker
// running each claimed job with the real campaign.RunJob until the queue
// drains. Jobs are 2-hall × 48-rack fleets over a short window that vary
// seed and failure_scale. It is the only workload that measures the
// campaign layer (queue fsyncs, the lease protocol) and the multi-hall
// fleet path. While the worker drains, an analyst polls the sweep's status
// on a fixed schedule.
var sweepStart = day(2016, time.June, 1)

const (
	sweepJobs  = 8
	sweepHalls = 2
	sweepDays  = 2
	// sweepLease is short enough that jobs heartbeat: the worker
	// heartbeats every third of a lease.
	sweepLease = 300 * time.Millisecond
	// sweepPollRate is the analyst's status polls per second, enough for a
	// tail percentile per drain.
	sweepPollRate = 50.0
)

// sweepSpecs derives the sweep's jobs from the run's seed.
func sweepSpecs(seed int64) []sweepJob {
	// Mild scales: heavier ones make a job's cost and memory hang on the
	// storms its seed happens to draw.
	scales := []float64{0.5, 1, 1.5, 2}
	jobs := make([]sweepJob, sweepJobs)
	for j := range jobs {
		jobs[j] = sweepJob{
			Name: fmt.Sprintf("seed%d-job%d", seed, j), Seed: seed*100 + int64(j),
			FailureScale: scales[j%len(scales)], Halls: sweepHalls, Days: sweepDays, Start: sweepStart,
		}
	}
	return jobs
}

// sweepRig is a dispatcher over a fresh queue, served on loopback, with
// every job submitted, and the result each job must produce.
type sweepRig struct {
	want  map[string]jobResult
	dir   string
	lb    *loopback
	timer *handlerTimer
}

func (r *sweepRig) close() { r.lb.close() }

// directResults runs each job's spec outside the campaign, for the result
// a drain must reproduce.
func directResults(jobs []sweepJob) (map[string]jobResult, error) {
	want := make(map[string]jobResult, len(jobs))
	for _, j := range jobs {
		r, err := runJobDirect(j)
		if err != nil {
			return nil, fmt.Errorf("direct run of %s: %w", j.Name, err)
		}
		want[j.Name] = r
	}
	return want, nil
}

// newSweepRig opens a fresh queue in dir and submits jobs through the
// dispatcher's HTTP API.
func newSweepRig(dir string, tr *tracer, jobs []sweepJob, want map[string]jobResult) (*sweepRig, error) {
	d, err := openDispatcher(dir, sweepLease)
	if err != nil {
		return nil, err
	}
	rig := &sweepRig{want: want, dir: dir, timer: newHandlerTimer(d.h, tr)}
	var h = d.h
	if tr != nil {
		h = rig.timer
	}
	if rig.lb, err = serveLoopback(h); err != nil {
		return nil, err
	}
	c := newCampaignClient(rig.lb.URL, newHTTPClient())
	for _, j := range jobs {
		if err := c.submit(j); err != nil {
			rig.close()
			return nil, fmt.Errorf("submit %s: %w", j.Name, err)
		}
	}
	return rig, nil
}

func runSweep(e *runEnv) (*outcome, error) {
	o := newOutcome()
	jobs := sweepSpecs(e.seed)
	o.method["jobs"] = len(jobs)
	o.method["job_shape"] = fmt.Sprintf("%d halls x %d racks, %d days from %s", sweepHalls, numRacks, sweepDays, sweepStart.Format("2006-01-02"))
	o.method["workers"] = 1
	o.method["status_polls_per_s"] = sweepPollRate
	o.method["loop"] = "closed: one worker claims, runs and completes jobs; status polls are open-loop, timed from due"

	layer := newLayerSums()
	var (
		rig  *sweepRig
		want map[string]jobResult
	)
	prepare := func(tr *tracer) error {
		if rig != nil {
			rig.close()
		}
		dir, err := e.dir("queue")
		if err != nil {
			return err
		}
		rig, err = newSweepRig(dir, tr, jobs, want)
		if err == nil && tr != nil {
			layer.addTail("campaign.submit", "ms", rig.timer.take("/v1/campaign/submit"))
		}
		return err
	}
	// Set-up computes the reference results and prepares the first queue;
	// later drains only need a fresh queue.
	err := timeSetups(o, func(int) (err error) {
		if want, err = directResults(jobs); err != nil {
			return err
		}
		return prepare(e.tr)
	})
	if err != nil {
		return nil, err
	}
	defer func() { rig.close() }()

	var (
		costs        unitCosts
		disk, remote []float64
		polls        loadgen.Units
	)
	err = repeatUnits(e, func(tr *tracer, i int) error {
		if i > 0 {
			if err := prepare(tr); err != nil {
				return err
			}
		}
		root := tr.root("sweep.drain")
		// The worker runs jobs one at a time on the goroutine that drains.
		var jobTime []time.Duration
		run := func(ctx context.Context, job func() error) error {
			sp := root.child("campaign.job")
			t0 := time.Now()
			err := job()
			jobTime = append(jobTime, time.Since(t0))
			sp.end()
			return err
		}
		var out drainOutcome
		var samples []loadgen.Sample
		cost, err := measure(func() error {
			stop := make(chan struct{})
			polled := make(chan []loadgen.Sample, 1)
			watcher := newCampaignClient(rig.lb.URL, newHTTPClient())
			start := time.Now()
			go func() {
				polled <- loadgen.RunUntil(start, loadgen.Schedule{Rate: sweepPollRate, N: 1 << 16}, 1, stop,
					func(_, _ int) error { _, err := watcher.status(); return err })
			}()
			var err error
			out, err = drain(rig.lb.URL, newHTTPClient(), run)
			close(stop)
			samples = <-polled
			return err
		})
		root.end()
		o.op(err)
		if err != nil {
			return nil
		}
		lat := make([]float64, len(samples))
		for k, s := range samples {
			o.op(s.Err)
			lat[k] = ms(s.Latency())
		}
		polls.Add(lat)
		o.attempted += len(jobs)
		o.failed += len(jobs) - out.Completed
		o.check(out.Completed == len(jobs) && out.Duplicates == 0,
			"drain %d: %d of %d jobs completed, %d duplicate completions", i, out.Completed, len(jobs), out.Duplicates)
		costs.add(cost, tr != nil)
		n, err := dirBytes(rig.dir)
		if err != nil {
			return fmt.Errorf("queue size: %w", err)
		}
		disk = append(disk, float64(n)/(1<<20))

		// The analyst fetches the finished sweep's results.
		c := newCampaignClient(rig.lb.URL, newHTTPClient())
		var res map[string][]jobResult
		d, err := timeSettled(func() (err error) {
			if res, err = c.results(); err != nil {
				return err
			}
			_, err = c.status()
			return err
		})
		remote = append(remote, d.Seconds())
		o.op(err)
		for _, j := range jobs {
			got := res[j.Name]
			o.check(len(got) == 1, "drain %d: job %s has %d results, want exactly 1", i, j.Name, len(got))
			o.check(len(got) == 0 || got[0] == rig.want[j.Name], "drain %d: job %s: result differs from a direct RunJob of its spec", i, j.Name)
		}

		if tr != nil {
			layer.unitTimes(tr, root, "sweep.drain")
			claims := rig.timer.take("/v1/campaign/claim")
			layer.addTail("campaign.claim", "ms", claims)
			layer.addTail("campaign.heartbeat", "ms", rig.timer.take("/v1/campaign/heartbeat"))
			layer.addTail("campaign.complete", "ms", rig.timer.take("/v1/campaign/complete"))
			var jobSum time.Duration
			for _, d := range jobTime {
				jobSum += d
				layer.add("campaign.job_s", d.Seconds())
			}
			layer.add("campaign.overhead_ratio", (cost.Wall-jobSum).Seconds()/cost.Wall.Seconds())
			if len(claims) > 0 {
				layer.add("campaign.claims_useful_ratio", float64(out.Completed)/float64(len(claims)))
			}
			layer.add("campaign.lease_expiries", float64(out.LeaseExpiries))
			layer.add("campaign.duplicate_completes", float64(out.Duplicates))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := costs.report(o, e.traced()); err != nil {
		return nil, err
	}

	pollTail := polls.Summary()
	o.metrics["disk_mib"] = loadgen.Median(disk)
	o.metrics["remote_wall_s"] = loadgen.Median(remote)
	o.metrics["read_p50_ms"] = pollTail.P50
	o.metrics["ok_ratio"] = okRatio(o)
	o.method["read_tail"] = pollTail
	if e.traced() {
		layer.addReadTail(pollTail)
		layer.report(o, e.tr)
	}
	return o, nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
