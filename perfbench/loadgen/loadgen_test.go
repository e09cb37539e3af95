package loadgen

import (
	"errors"
	"testing"
	"time"
)

func TestSummarizeP99WhenTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // reversed: Summarize sorts
	}
	got := Summarize(xs)
	if got.N != 1000 || got.P50 != 500 || got.Percentile != 99 || got.Value != 990 {
		t.Fatalf("got %+v, want n=1000 p50=500 p99=990", got)
	}
}

func TestSummarizeFallsBackToTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	got := Summarize(xs)
	// 100 samples: p99 has one sample beyond it, so the tail drops to the
	// 90th percentile, the highest with ten samples above.
	if got.Percentile != 90 || got.Value != 90 {
		t.Fatalf("got %+v, want p90=90", got)
	}
	beyond := 0
	for _, x := range xs {
		if x > got.Value {
			beyond++
		}
	}
	if beyond != MinBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, MinBeyond)
	}
}

func TestSummarizeTooFewSamples(t *testing.T) {
	got := Summarize([]float64{3, 1, 2})
	if got.Percentile != 100 || got.Value != 3 || got.P50 != 2 {
		t.Fatalf("got %+v, want max 3 as percentile 100, median 2", got)
	}
	if z := Summarize(nil); z != (Tail{}) {
		t.Fatalf("empty input: got %+v", z)
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median %v, want 2.5", m)
	}
	if m := Median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("odd median %v, want 3", m)
	}
}

func TestScheduleDue(t *testing.T) {
	s := Schedule{Rate: 200, N: 10}
	if d := s.Due(3); d != 15*time.Millisecond {
		t.Fatalf("Due(3) = %v, want 15ms", d)
	}
}

// A stall on the only connection must show up in the latency of every
// request due during it: that is what timing from the due time means.
func TestRunTimesFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	s := Schedule{Rate: 500, N: 20} // one arrival every 2 ms
	smp := Run(time.Now(), s, 1, func(conn, i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if len(smp) != s.N {
		t.Fatalf("%d samples, want %d", len(smp), s.N)
	}
	for i, x := range smp {
		if x.Index != i || x.Due != s.Due(i) {
			t.Fatalf("sample %d: index %d due %v", i, x.Index, x.Due)
		}
		if x.Dispatched < x.Due || x.Started < x.Dispatched || x.Done < x.Started {
			t.Fatalf("sample %d out of order: %+v", i, x)
		}
	}
	// Request 10 was due 20 ms in but could not start before the stall
	// ended, so it waited for the connection and its latency covers that.
	x := smp[10]
	if x.ConnWait() <= 0 || x.Latency() < stall-x.Due-5*time.Millisecond {
		t.Fatalf("request 10 latency %v conn wait %v: the stall did not count", x.Latency(), x.ConnWait())
	}
}

func TestRunRecordsErrorsAndUsesEveryConnection(t *testing.T) {
	fail := errors.New("boom")
	used := make([]bool, 3)
	smp := Run(time.Now(), Schedule{Rate: 1000, N: 30}, 3, func(conn, i int) error {
		used[conn] = true // each worker writes only its own element
		time.Sleep(2 * time.Millisecond)
		if i%10 == 0 {
			return fail
		}
		return nil
	})
	errs := 0
	for _, x := range smp {
		if x.Err != nil {
			errs++
		}
	}
	if errs != 3 {
		t.Fatalf("%d errors recorded, want 3", errs)
	}
	for c, u := range used {
		if !u {
			t.Fatalf("connection %d never used", c)
		}
	}
}

func TestRunUntilStopsDispatching(t *testing.T) {
	stop := make(chan struct{})
	start := time.Now()
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(stop)
	}()
	smp := RunUntil(start, Schedule{Rate: 100, N: 1000}, 1, stop, func(conn, i int) error { return nil })
	// 10 ms apart: about five arrivals fall due in the first 50 ms.
	if len(smp) < 2 || len(smp) > 20 {
		t.Fatalf("%d arrivals sent before stop, want about 5", len(smp))
	}
	for i, x := range smp {
		if x.Index != i || x.Done < x.Started {
			t.Fatalf("sample %d malformed: %+v", i, x)
		}
	}
}

func TestUnitsTailIsMedianOverUnits(t *testing.T) {
	var u Units
	unit := func(tail float64) []float64 {
		xs := make([]float64, 1000)
		for i := range xs {
			xs[i] = 1
		}
		for i := 980; i < 1000; i++ {
			xs[i] = tail // 20 slow samples: the unit's p99
		}
		return xs
	}
	u.Add(unit(5))
	u.Add(unit(500)) // a unit that hit a stall
	u.Add(unit(6))
	u.Add(nil)
	got := u.Summary()
	if got.N != 3000 || got.Units != 3 || got.P50 != 1 || got.Tail != 6 || got.Percentile != 99 {
		t.Fatalf("got %+v, want 3000 samples over 3 units, p50 1, tail 6 at p99", got)
	}
}
