// Package scheduler simulates Mira's Cobalt-style job scheduler at midplane
// granularity: FIFO dispatch with probabilistic backfilling, prod-long jobs
// pinned to row 0, capability-job drains, project reservations that go
// partially unused, Monday maintenance windows with burner jobs, and
// rack-failure integration (failed racks kill their jobs and stay down).
//
// The scheduler is the mechanism behind the paper's utilization findings:
// the 80%→93% multi-year growth, the INCITE/ALCC monthly profile, the
// Monday dip, row 0's elevated utilization, and the column hotspots.
package scheduler

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/workload"
)

// MidplaneState describes what a midplane is doing for power modeling.
type MidplaneState int

const (
	// Idle: powered on, no job.
	Idle MidplaneState = iota
	// Busy: running a production job.
	Busy
	// Burning: running a maintenance burner job.
	Burning
	// Down: powered off (rack failure or being serviced).
	Down
)

// slot is the state of one midplane.
type slot struct {
	busyUntil     time.Time
	intensity     float64
	burner        bool
	jobID         int64
	reservedUntil time.Time
	downUntil     time.Time
}

// Config holds the tunable scheduler parameters. The zero value is replaced
// by defaults in New.
type Config struct {
	// Seed drives all stochastic decisions.
	Seed int64
	// BackfillBase is the per-attempt probability that a hole can be
	// backfilled at the start of production (default 0.30).
	BackfillBase float64
	// BackfillGrowthPerYear is the annual improvement of backfilling
	// (default 0.06), reflecting scheduler and policy refinements.
	BackfillGrowthPerYear float64
	// MaintenanceEvery is the Monday cadence of maintenance (default 2 =
	// every other Monday).
	MaintenanceEvery int
	// ServiceFraction is the fraction of midplanes powered off for service
	// during maintenance (default 0.25); the rest run burner jobs.
	ServiceFraction float64
	// ReservationMeanDays is the mean gap between project reservations that
	// hold midplanes idle (default 10).
	ReservationMeanDays float64
	// QueueLimit caps the backlog; beyond it, arriving jobs are rejected
	// (users throttle themselves on a saturated machine). Default 400.
	QueueLimit int
}

func (c Config) withDefaults() Config {
	if c.BackfillBase == 0 {
		c.BackfillBase = 0.30
	}
	if c.BackfillGrowthPerYear == 0 {
		c.BackfillGrowthPerYear = 0.06
	}
	if c.MaintenanceEvery == 0 {
		c.MaintenanceEvery = 2
	}
	if c.ServiceFraction == 0 {
		c.ServiceFraction = 0.25
	}
	if c.ReservationMeanDays == 0 {
		c.ReservationMeanDays = 10
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = 400
	}
	return c
}

// Scheduler is the midplane-granular scheduler simulator.
type Scheduler struct {
	cfg   Config
	rng   *rand.Rand
	slots [topology.NumMidplanes]slot
	queue []workload.Job
	cal   timeutil.MaintenanceCalendar

	inMaintenance  bool
	maintenanceEnd time.Time

	// order holds the tick's placement visit order in order.idx: a
	// popularity-weighted shuffle, so user demand concentrates on some
	// racks without any index-order artifact.
	order keyedOrder
	// avoidUntil implements CMF-aware scheduling: placement treats a
	// flagged rack's midplanes as a last resort until the deadline passes.
	avoidUntil [topology.NumMidplanes]time.Time
	// exponent is 1/w for each midplane's placement weight w (users
	// habitually target certain racks, creating the paper's utilization
	// spread), the power weightedOrder raises its uniform draws to.
	exponent [topology.NumMidplanes]float64

	// Per-tick scratch, reused so a tick allocates nothing: the head
	// job's shadow (frees, banned), candidateSlots' preference buckets
	// and result, tryPlace's open/flagged split, and complete's set of
	// finished jobs.
	frees            freeOrder
	banned           [topology.NumMidplanes]bool
	buckets          [3][topology.NumMidplanes]int
	cands            [topology.NumMidplanes]int
	openBuf, flagBuf [topology.NumMidplanes]int
	done             []int64

	// Counters.
	started   int64
	killed    int64
	rejected  int64
	completed int64

	// Per-queue accounting.
	queueStats [3]QueueStats
}

// QueueStats accumulates per-queue scheduling statistics.
type QueueStats struct {
	Started       int64
	WaitHoursSum  float64
	RunHoursSum   float64
	MidplaneHours float64
}

// MeanWaitHours returns the mean queue wait of started jobs.
func (q QueueStats) MeanWaitHours() float64 {
	if q.Started == 0 {
		return 0
	}
	return q.WaitHoursSum / float64(q.Started)
}

// MeanRunHours returns the mean requested walltime of started jobs.
func (q QueueStats) MeanRunHours() float64 {
	if q.Started == 0 {
		return 0
	}
	return q.RunHoursSum / float64(q.Started)
}

// New creates a scheduler.
func New(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		cal: timeutil.MaintenanceCalendar{Every: cfg.MaintenanceEvery},
	}
	for rack := 0; rack < topology.NumRacks; rack++ {
		w := math.Exp(s.rng.NormFloat64() * 0.65)
		if w < 0.35 {
			w = 0.35
		}
		if w > 2.2 {
			w = 2.2
		}
		for m := 0; m < topology.MidplanesPerRack; m++ {
			s.exponent[rack*topology.MidplanesPerRack+m] = 1 / w
		}
	}
	// Rack (0,A) was the single most-targeted rack on Mira (paper Fig. 6b).
	base := topology.BusyRack.Index() * topology.MidplanesPerRack
	s.exponent[base] = 1 / 3.4
	s.exponent[base+1] = 1 / 3.4
	return s
}

// Submit adds jobs to the queue, rejecting beyond the backlog limit.
func (s *Scheduler) Submit(jobs []workload.Job) {
	for _, j := range jobs {
		if len(s.queue) >= s.cfg.QueueLimit {
			s.rejected++
			continue
		}
		s.queue = append(s.queue, j)
	}
}

// QueueDepth returns the number of queued jobs.
func (s *Scheduler) QueueDepth() int { return len(s.queue) }

// Stats reports cumulative scheduler counters.
type Stats struct {
	Started, Killed, Rejected, Completed int64
}

// Stats returns the cumulative counters.
func (s *Scheduler) Stats() Stats {
	return Stats{Started: s.started, Killed: s.killed, Rejected: s.rejected, Completed: s.completed}
}

// Step advances the scheduler to time now: completes finished jobs, handles
// maintenance transitions, starts reservations, and dispatches queued jobs.
func (s *Scheduler) Step(now time.Time) {
	s.weightedOrder()
	s.complete(now)
	s.handleMaintenance(now)
	s.maybeReserve(now)
	if !s.inMaintenance {
		s.dispatch(now)
	} else {
		s.refreshBurners(now)
	}
}

// weightedOrder draws a popularity-weighted random permutation of the
// midplanes into s.order.idx (Efraimidis-Spirakis sampling: sort by u^(1/w)
// descending).
func (s *Scheduler) weightedOrder() {
	o := &s.order
	for i := range o.key {
		o.idx[i] = i
		o.key[i] = math.Pow(s.rng.Float64(), s.exponent[i])
	}
	sort.Sort(o)
}

// keyedOrder and freeOrder are sort.Interface views of scheduler-owned
// arrays, so sorting them allocates nothing. sort.Sort runs the same
// pdqsort, comparison for comparison, as sort.Slice over the equivalent
// slice of structs, so ties (frequent among shadow free times) break
// exactly as they always have (TestSortMatchesSortSlice).
type keyedOrder struct {
	idx [topology.NumMidplanes]int
	key [topology.NumMidplanes]float64
}

func (o *keyedOrder) Len() int           { return topology.NumMidplanes }
func (o *keyedOrder) Less(a, b int) bool { return o.key[a] > o.key[b] }
func (o *keyedOrder) Swap(a, b int) {
	o.idx[a], o.idx[b] = o.idx[b], o.idx[a]
	o.key[a], o.key[b] = o.key[b], o.key[a]
}

type freeOrder struct {
	idx  [topology.NumMidplanes]int
	free [topology.NumMidplanes]time.Time
}

func (o *freeOrder) Len() int           { return topology.NumMidplanes }
func (o *freeOrder) Less(a, b int) bool { return o.free[a].Before(o.free[b]) }
func (o *freeOrder) Swap(a, b int) {
	o.idx[a], o.idx[b] = o.idx[b], o.idx[a]
	o.free[a], o.free[b] = o.free[b], o.free[a]
}

// complete frees slots whose jobs have finished.
func (s *Scheduler) complete(now time.Time) {
	s.done = s.done[:0]
	for i := range s.slots {
		sl := &s.slots[i]
		if sl.busyUntil.IsZero() || sl.busyUntil.After(now) {
			continue
		}
		if !sl.burner && sl.jobID != 0 && !slices.Contains(s.done, sl.jobID) {
			s.done = append(s.done, sl.jobID)
			s.completed++
		}
		sl.busyUntil = time.Time{}
		sl.jobID = 0
		sl.burner = false
		sl.intensity = 0
	}
}

// handleMaintenance enters and leaves Monday maintenance windows.
func (s *Scheduler) handleMaintenance(now time.Time) {
	inWindow := s.cal.InMaintenance(now)
	switch {
	case inWindow && !s.inMaintenance:
		s.inMaintenance = true
		// Find the window end by scanning forward at sample granularity.
		end := now
		for s.cal.InMaintenance(end) {
			end = end.Add(timeutil.SampleInterval)
		}
		s.maintenanceEnd = end
		// Drain: kill all user jobs.
		for i := range s.slots {
			sl := &s.slots[i]
			if sl.busyUntil.After(now) && !sl.burner {
				s.killSlot(i)
			}
		}
		// Power off a service subset; burners cover the rest.
		for i := range s.slots {
			if s.rng.Float64() < s.cfg.ServiceFraction {
				s.slots[i].downUntil = laterOf(s.slots[i].downUntil, s.maintenanceEnd)
			}
		}
		s.refreshBurners(now)
	case !inWindow && s.inMaintenance:
		s.inMaintenance = false
		// Burners end with the window via busyUntil; nothing else to do.
	}
}

// refreshBurners starts burner jobs on every available midplane during
// maintenance, keeping otherwise-idle racks warm (the paper: cold inlet
// coolant can damage inactive CPUs).
func (s *Scheduler) refreshBurners(now time.Time) {
	for i := range s.slots {
		sl := &s.slots[i]
		if s.slotAvailable(sl, now) {
			sl.busyUntil = s.maintenanceEnd
			sl.burner = true
			sl.jobID = -1
			sl.intensity = workload.BurnerIntensity
		}
	}
}

// maybeReserve occasionally reserves a block of midplanes that a project
// then leaves (partially) unused — one of the paper's sources of transient
// utilization drops.
func (s *Scheduler) maybeReserve(now time.Time) {
	perTick := timeutil.SampleInterval.Hours() / (s.cfg.ReservationMeanDays * 24)
	if s.rng.Float64() >= perTick {
		return
	}
	count := 8 + s.rng.Intn(17) // 8–24 midplanes
	hold := time.Duration(6+s.rng.Intn(13)) * time.Hour
	until := now.Add(hold)
	reserved := 0
	for _, i := range s.rng.Perm(topology.NumMidplanes) {
		if reserved >= count {
			break
		}
		sl := &s.slots[i]
		if s.slotAvailable(sl, now) {
			sl.reservedUntil = until
			reserved++
		}
	}
}

// slotAvailable reports whether a midplane can accept work at now.
func (s *Scheduler) slotAvailable(sl *slot, now time.Time) bool {
	return !sl.busyUntil.After(now) && !sl.reservedUntil.After(now) && !sl.downUntil.After(now)
}

// backfillProb returns the probability that a hole can be filled by an
// out-of-order job at time t; it improves over the production years.
func (s *Scheduler) backfillProb(t time.Time) float64 {
	years := t.Sub(timeutil.ProductionStart).Hours() / (365.25 * 24)
	p := s.cfg.BackfillBase + s.cfg.BackfillGrowthPerYear*years
	return math.Min(p, 0.98)
}

// dispatch places queued jobs with EASY backfilling: strict FIFO for the
// head job (a capability job at the head drains the machine behind a shadow
// reservation), and out-of-order starts for later jobs only when they finish
// before the head's projected start, so the head cannot starve. The queue is
// compacted in place: started jobs drop out, the rest keep their order.
func (s *Scheduler) dispatch(now time.Time) {
	q := s.queue
	head := 0
	for head < len(q) && s.tryPlace(&q[head], now, nil) {
		head++
	}
	if len(q)-head <= 1 {
		s.queue = q[:copy(q, q[head:])]
		return
	}
	shadow, restricted := s.shadow(&q[head], now)
	// Backfill pass over a bounded scan window.
	p := s.backfillProb(now)
	end := min(head+1+150, len(q))
	q[0] = q[head]
	kept := 1
	for i := head + 1; i < end; i++ {
		j := &q[i]
		// EASY rule: a backfilled job must not delay the head. Jobs ending
		// before the head's projected start may use any slot; longer jobs
		// must avoid the slots the head is waiting on.
		var banned *[topology.NumMidplanes]bool
		if restricted && !now.Add(j.Walltime).Before(shadow) {
			banned = &s.banned
		}
		if s.rng.Float64() < p && s.tryPlace(j, now, banned) {
			continue
		}
		// Keep scanning: later, smaller jobs may still fit this tick.
		q[kept] = *j
		kept++
	}
	kept += copy(q[kept:], q[end:])
	s.queue = q[:kept]
}

// shadow estimates when the head job will be able to start — the moment its
// Midplanes-th slot becomes free, assuming no further arrivals — and marks
// the slots it is waiting on (the earliest-free ones) in s.banned. All
// queues may ultimately use any midplane (prod-long merely prefers row 0),
// so every slot counts; restricted is false only for a job larger than the
// machine, which can never run and must not hold backfill up.
func (s *Scheduler) shadow(j *workload.Job, now time.Time) (shadow time.Time, restricted bool) {
	if j.Midplanes > topology.NumMidplanes {
		return now.Add(365 * 24 * time.Hour), false
	}
	f := &s.frees
	for i := range s.slots {
		sl := &s.slots[i]
		free := now
		for _, t := range [...]time.Time{sl.busyUntil, sl.reservedUntil, sl.downUntil} {
			if t.After(free) {
				free = t
			}
		}
		f.idx[i], f.free[i] = i, free
	}
	sort.Sort(f)
	s.banned = [topology.NumMidplanes]bool{}
	for _, i := range f.idx[:j.Midplanes] {
		s.banned[i] = true
	}
	return f.free[j.Midplanes-1], true
}

// tryPlace attempts to start the job now, honoring queue placement policy
// and avoiding banned slots (the head job's shadow reservation; nil bans
// nothing). It returns true when the job was started.
func (s *Scheduler) tryPlace(j *workload.Job, now time.Time, banned *[topology.NumMidplanes]bool) bool {
	// CMF-aware scheduling: flagged midplanes come after every unflagged
	// one, as a last resort.
	open, flagged := s.openBuf[:0], s.flagBuf[:0]
	for _, i := range s.candidateSlots(j, now) {
		switch {
		case banned != nil && banned[i]:
		case s.avoided(i, now):
			flagged = append(flagged, i)
		default:
			open = append(open, i)
		}
	}
	candidates := append(open, flagged...)
	if len(candidates) < j.Midplanes {
		return false
	}
	end := now.Add(j.Walltime)
	for _, i := range candidates[:j.Midplanes] {
		sl := &s.slots[i]
		sl.busyUntil = end
		sl.burner = false
		sl.jobID = j.ID
		sl.intensity = j.Intensity
	}
	s.started++
	q := &s.queueStats[int(j.Queue)]
	q.Started++
	if !j.Submitted.IsZero() && now.After(j.Submitted) {
		q.WaitHoursSum += now.Sub(j.Submitted).Hours()
	}
	q.RunHoursSum += j.Walltime.Hours()
	q.MidplaneHours += float64(j.Midplanes) * j.Walltime.Hours()
	return true
}

// QueueStatsFor returns the accumulated statistics of one queue.
func (s *Scheduler) QueueStatsFor(q workload.Queue) QueueStats {
	return s.queueStats[int(q)]
}

// candidateSlots returns available midplane indices ordered by the job's
// placement preference. Within each preference group, the tick's shuffled
// visit order applies, so no rack is systematically favored by index. The
// result aliases scratch that the next call overwrites.
func (s *Scheduler) candidateSlots(j *workload.Job, now time.Time) []int {
	var n [len(s.buckets)]int
	for _, idx := range s.order.idx {
		if s.slotAvailable(&s.slots[idx], now) {
			g := preference(j, idx)
			s.buckets[g][n[g]] = idx
			n[g]++
		}
	}
	out := s.cands[:0]
	for g := range s.buckets {
		out = append(out, s.buckets[g][:n[g]]...)
	}
	return out
}

// preference ranks midplane idx for the job; lower groups are tried first.
func preference(j *workload.Job, idx int) int {
	switch {
	case j.Queue == workload.ProdLong:
		// prod-long jobs are allocated racks from row 0 (paper §IV-A),
		// spilling onto other rows only when row 0 is full.
		if idx < topology.ColsPerRow*topology.MidplanesPerRack {
			return 0
		}
		return 1
	case j.AffinityCol >= 0:
		// Rack-affine users: the row-0 rack of their column first (the
		// habitual target), then the rest of the column, then anywhere.
		rack := idx / topology.MidplanesPerRack
		switch {
		case rack%topology.ColsPerRow != j.AffinityCol:
			return 2
		case rack < topology.ColsPerRow: // row 0
			return 0
		default:
			return 1
		}
	default:
		// Ordinary jobs place anywhere, visiting racks in the tick's
		// popularity-weighted order.
		return 0
	}
}

// killSlot terminates the job on slot i, killing all slots of that job.
func (s *Scheduler) killSlot(i int) {
	jobID := s.slots[i].jobID
	if jobID == 0 {
		return
	}
	for k := range s.slots {
		sl := &s.slots[k]
		if sl.jobID == jobID {
			sl.busyUntil = time.Time{}
			sl.jobID = 0
			sl.burner = false
			sl.intensity = 0
		}
	}
	s.killed++
}

// Avoid flags a rack for CMF-aware scheduling until the given time: no new
// jobs are placed on it while any alternative capacity exists, letting its
// running jobs drain ahead of a predicted coolant monitor failure (the
// paper's closing opportunity: "develop CMF-aware job schedulers").
func (s *Scheduler) Avoid(r topology.RackID, until time.Time) {
	base := r.Index() * topology.MidplanesPerRack
	for m := 0; m < topology.MidplanesPerRack; m++ {
		s.avoidUntil[base+m] = laterOf(s.avoidUntil[base+m], until)
	}
}

// avoided reports whether the midplane is flagged at now.
func (s *Scheduler) avoided(idx int, now time.Time) bool {
	return s.avoidUntil[idx].After(now)
}

// FailRacks takes the given racks down until the given time, killing every
// job with presence on them (coolant monitor failures kill whole racks and,
// through multi-rack jobs, many more jobs). It returns the number of jobs
// killed.
func (s *Scheduler) FailRacks(racks []topology.RackID, until time.Time) int {
	before := s.killed
	for _, r := range racks {
		base := r.Index() * topology.MidplanesPerRack
		for m := 0; m < topology.MidplanesPerRack; m++ {
			i := base + m
			if s.slots[i].jobID != 0 && !s.slots[i].burner {
				s.killSlot(i)
			}
			s.slots[i].busyUntil = time.Time{}
			s.slots[i].burner = false
			s.slots[i].jobID = 0
			s.slots[i].intensity = 0
			s.slots[i].downUntil = laterOf(s.slots[i].downUntil, until)
		}
	}
	return int(s.killed - before)
}

// RackDown reports whether the rack is powered off at now.
func (s *Scheduler) RackDown(r topology.RackID, now time.Time) bool {
	base := r.Index() * topology.MidplanesPerRack
	// A rack is down when all its midplanes are down (failures take whole
	// racks; maintenance service takes individual midplanes).
	for m := 0; m < topology.MidplanesPerRack; m++ {
		if !s.slots[base+m].downUntil.After(now) {
			return false
		}
	}
	return true
}

// MidplaneSnapshot describes one midplane for the power and cooling models.
type MidplaneSnapshot struct {
	State     MidplaneState
	Intensity float64
}

// Snapshot returns the state of every midplane at now, indexed by midplane
// number (rack.Index()*2 + m).
func (s *Scheduler) Snapshot(now time.Time) []MidplaneSnapshot {
	out := make([]MidplaneSnapshot, topology.NumMidplanes)
	for i := range s.slots {
		sl := &s.slots[i]
		switch {
		case sl.downUntil.After(now):
			out[i] = MidplaneSnapshot{State: Down}
		case sl.busyUntil.After(now) && sl.burner:
			out[i] = MidplaneSnapshot{State: Burning, Intensity: sl.intensity}
		case sl.busyUntil.After(now):
			out[i] = MidplaneSnapshot{State: Busy, Intensity: sl.intensity}
		default:
			out[i] = MidplaneSnapshot{State: Idle}
		}
	}
	return out
}

// SystemUtilization returns the fraction of nodes running jobs at now.
// Burner jobs count as utilization (they are jobs occupying nodes), matching
// the paper's definition of "percentage of nodes on which jobs are running";
// serviced/down midplanes do not.
func (s *Scheduler) SystemUtilization(now time.Time) float64 {
	busy := 0
	for i := range s.slots {
		if s.slots[i].busyUntil.After(now) && !s.slots[i].downUntil.After(now) {
			busy++
		}
	}
	return float64(busy) / float64(topology.NumMidplanes)
}

// RackUtilization returns the fraction of the rack's nodes running jobs.
func (s *Scheduler) RackUtilization(r topology.RackID, now time.Time) float64 {
	base := r.Index() * topology.MidplanesPerRack
	busy := 0
	for m := 0; m < topology.MidplanesPerRack; m++ {
		sl := &s.slots[base+m]
		if sl.busyUntil.After(now) && !sl.downUntil.After(now) {
			busy++
		}
	}
	return float64(busy) / float64(topology.MidplanesPerRack)
}

func laterOf(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
