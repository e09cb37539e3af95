// Package loadgen is the benchmark's open-loop load generator and the
// latency statistics every workload reports.
//
// An open loop sends on a schedule whatever the system's state, so a stall
// delays every request due during it, and each request is timed from the
// instant it was due, not from when it was finally sent. Run dispatches a
// fixed-rate schedule onto a fixed set of connection workers and records,
// per request, how late the generator handed it off, how long it waited for
// a free connection, and when it completed.
package loadgen

import (
	"math"
	"sort"
	"time"
)

// Schedule spaces n arrivals evenly at rate per second, the first one at
// offset zero.
type Schedule struct {
	Rate float64
	N    int
}

// Due returns the offset from the schedule's start at which arrival i is
// due.
func (s Schedule) Due(i int) time.Duration {
	return time.Duration(float64(i) * float64(time.Second) / s.Rate)
}

// Sample is one request's timeline, as offsets from the schedule's start.
type Sample struct {
	// Index is the arrival's position in the schedule.
	Index int
	// Due is when the schedule wanted the request sent.
	Due time.Duration
	// Dispatched is when the generator handed it to the connection queue.
	Dispatched time.Duration
	// Started is when a connection worker picked it up.
	Started time.Duration
	// Done is when the request completed.
	Done time.Duration
	// Err is the request's error, nil on success.
	Err error
}

// Latency is the request's time from due to done: what a caller who wanted
// it sent on schedule waited.
func (s Sample) Latency() time.Duration { return s.Done - s.Due }

// Late is how far behind schedule the generator dispatched the request.
func (s Sample) Late() time.Duration { return s.Dispatched - s.Due }

// ConnWait is how long the dispatched request queued for a free
// connection.
func (s Sample) ConnWait() time.Duration { return s.Started - s.Dispatched }

// Service is the request's time on its connection.
func (s Sample) Service() time.Duration { return s.Done - s.Started }

// Do performs arrival i on connection worker conn.
type Do func(conn, i int) error

// Run dispatches the schedule onto conns connection workers, each running
// one request at a time, and returns one Sample per arrival in schedule
// order. It returns once every request has completed. start is the
// schedule's zero instant; arrivals due before now are dispatched at once
// and show up as generator lateness.
func Run(start time.Time, s Schedule, conns int, do Do) []Sample {
	return RunUntil(start, s, conns, nil, do)
}

// RunUntil is Run for a schedule that ends early when stop closes: arrivals
// not yet due by then are never sent, and only the sent ones are returned.
func RunUntil(start time.Time, s Schedule, conns int, stop <-chan struct{}, do Do) []Sample {
	if conns < 1 {
		conns = 1
	}
	samples := make([]Sample, s.N)
	// The queue holds every arrival the connections have not yet picked up;
	// sizing it to the schedule means the generator never blocks on it, so
	// its lateness measures only its own timer and CPU delays.
	queue := make(chan int, s.N)
	done := make(chan struct{})
	for c := 0; c < conns; c++ {
		go func(c int) {
			defer func() { done <- struct{}{} }()
			for i := range queue {
				smp := &samples[i]
				smp.Started = time.Since(start)
				smp.Err = do(c, i)
				smp.Done = time.Since(start)
			}
		}(c)
	}
	sent := 0
	for ; sent < s.N; sent++ {
		i := sent
		due := s.Due(i)
		if wait := due - time.Since(start); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-stop:
				timer.Stop()
			}
		}
		if stopped(stop) {
			break
		}
		samples[i].Index = i
		samples[i].Due = due
		samples[i].Dispatched = time.Since(start)
		queue <- i
	}
	close(queue)
	for c := 0; c < conns; c++ {
		<-done
	}
	return samples[:sent]
}

func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// Tail is a latency summary: the median and the highest percentile that
// still has at least MinBeyond samples above it.
type Tail struct {
	N          int
	P50        float64
	Percentile float64 // the tail percentile reported, e.g. 99
	Value      float64 // the sample at that percentile
}

// MinBeyond is how many samples must lie above a reported tail percentile
// for it to mean more than one unlucky request.
const MinBeyond = 10

// Summarize sorts xs in place and returns its median and tail. The tail is
// the 99th percentile (nearest rank) when at least MinBeyond samples lie
// above it; otherwise it falls back to the highest percentile that does.
// With MinBeyond or fewer samples no percentile qualifies and the maximum
// is reported as percentile 100. An empty input gives a zero Tail.
func Summarize(xs []float64) Tail {
	n := len(xs)
	if n == 0 {
		return Tail{}
	}
	sort.Float64s(xs)
	t := Tail{N: n, P50: xs[nearestRank(n, 50)]}
	i := nearestRank(n, 99)
	if n-1-i < MinBeyond {
		i = n - 1 - MinBeyond
	}
	if i < 0 {
		t.Percentile, t.Value = 100, xs[n-1]
		return t
	}
	t.Percentile = 100 * float64(i+1) / float64(n)
	if t.Percentile > 99 {
		t.Percentile = 99
	}
	t.Value = xs[i]
	return t
}

// nearestRank is the 0-based index of the p-th percentile of n sorted
// samples by the nearest-rank rule.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r - 1
}

// Units gathers latency samples one measured unit (a pass, a drain, a
// stretch of a schedule) at a time. Its median pools every sample; its tail
// is the median over units of each unit's tail, so one unit that hit a
// stall of the host does not set the run's tail on its own.
type Units struct {
	all         []float64
	tails, pcts []float64
}

// Add records one unit's samples.
func (u *Units) Add(xs []float64) {
	if len(xs) == 0 {
		return
	}
	u.all = append(u.all, xs...)
	t := Summarize(append([]float64(nil), xs...))
	u.tails = append(u.tails, t.Value)
	u.pcts = append(u.pcts, t.Percentile)
}

// UnitsSummary is what Units reports.
type UnitsSummary struct {
	// N is the samples over all units, Units how many units gave them.
	N, Units int
	// P50 is the pooled median; Tail the median of the units' tails, each
	// taken at Percentile (the median of the units' percentiles).
	P50, Tail, Percentile float64
}

// Summary reports the pooled median and the median unit tail.
func (u *Units) Summary() UnitsSummary {
	pooled := Summarize(append([]float64(nil), u.all...))
	return UnitsSummary{N: pooled.N, Units: len(u.tails), P50: pooled.P50, Tail: Median(u.tails), Percentile: Median(u.pcts)}
}

// Median returns the median of xs (sorting a copy), or 0 when empty.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}
