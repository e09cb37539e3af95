package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mira/perfbench/loadgen"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS drops the garbage of whatever ran before and restarts the
// kernel's peak-RSS watermark, so the next peakRSS reading covers only
// what runs after this call.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSS reads the process's peak resident set size (VmHWM) in bytes.
func peakRSS() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("read peak RSS: %w", err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM in /proc/self/status")
}

// measure runs f and reports its wall time, CPU time and peak RSS. Only
// one measure may run at a time: CPU time and RSS are process-wide.
func measure(f func() error) (m unitCost, err error) {
	if err := resetPeakRSS(); err != nil {
		return m, err
	}
	c0, t0 := cpuTime(), time.Now()
	if err := f(); err != nil {
		return m, err
	}
	m.Wall = time.Since(t0)
	m.CPU = cpuTime() - c0
	m.RSS, err = peakRSS()
	return m, err
}

// timeSettled reports f's wall time, starting after a garbage collection so
// the time does not hang on how much garbage the work before it left.
func timeSettled(f func() error) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

// unitCost is what one unit of work cost the process.
type unitCost struct {
	Wall, CPU time.Duration
	RSS       int64
}

// unitCosts collects each measured unit's cost, noting which ran traced.
type unitCosts struct{ wall, cpu, rss, traced, untraced []float64 }

func (u *unitCosts) add(c unitCost, traced bool) {
	u.wall = append(u.wall, c.Wall.Seconds())
	u.cpu = append(u.cpu, c.CPU.Seconds())
	u.rss = append(u.rss, float64(c.RSS)/(1<<20))
	if traced {
		u.traced = append(u.traced, c.Wall.Seconds())
	} else {
		u.untraced = append(u.untraced, c.Wall.Seconds())
	}
}

// report writes the medians of wall_s, cpu_s and peak_rss_mib over the
// units and, in traced runs, the tracing overhead: the traced units'
// median wall time minus the untraced ones'.
func (u *unitCosts) report(o *outcome, traced bool) error {
	if len(u.wall) == 0 {
		return fmt.Errorf("no unit completed")
	}
	o.metrics["wall_s"] = loadgen.Median(u.wall)
	o.metrics["cpu_s"] = loadgen.Median(u.cpu)
	o.metrics["peak_rss_mib"] = loadgen.Median(u.rss)
	o.method["units"] = len(u.wall)
	if traced {
		o.metrics["trace.overhead_s"] = loadgen.Median(u.traced) - loadgen.Median(u.untraced)
	}
	return nil
}
