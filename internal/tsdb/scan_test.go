package tsdb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"mira/internal/envdb"
	"mira/internal/sensors"
	"mira/internal/timeutil"
	"mira/internal/topology"
)

// scanRow is one materialized row of a chunk scan.
type scanRow struct {
	rec  sensors.Record
	tier envdb.Tier
}

// oracleScan is the brute-force reference for the chunk scan: every fleet
// rack's Query output over [from, to), stable-sorted by (instant, rack
// code). Query is time-ordered within a rack, so the stable sort is
// exactly the merge's contract. A row is TierDownsampled when it lies at or
// before its shard's last cold window — the compaction boundary.
func oracleScan(s *Store, from, to time.Time) []scanRow {
	var out []scanRow
	for i, rack := range s.Fleet().AllRacks() {
		coldEnd := int64(math.MinInt64)
		sh := &s.shards[i]
		sh.mu.RLock()
		if n := len(sh.cold); n > 0 {
			coldEnd = sh.cold[n-1].maxT
		}
		sh.mu.RUnlock()
		for _, r := range s.Query(rack, from, to) {
			tier := envdb.TierRaw
			if r.Time.UnixNano() <= coldEnd {
				tier = envdb.TierDownsampled
			}
			out = append(out, scanRow{r, tier})
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		ta, tb := out[a].rec.Time.UnixNano(), out[b].rec.Time.UnixNano()
		if ta != tb {
			return ta < tb
		}
		return out[a].rec.Rack.Code() < out[b].rec.Rack.Code()
	})
	return out
}

// oracleAll is oracleScan over the whole store.
func oracleAll(s *Store) []scanRow {
	return oracleScan(s, time.Unix(0, minTime), time.Unix(0, maxTime))
}

// collectRange materializes every row of a ranged chunk scan and reports
// the longest chunk it delivered.
func collectRange(t *testing.T, s *Store, from, to time.Time, workers int) (out []scanRow, longest int) {
	t.Helper()
	if err := s.ScanChunksRange(context.Background(), from, to, workers, nil, func(c *envdb.Chunk) bool {
		for i := 0; i < c.Len(); i++ {
			out = append(out, scanRow{c.Record(i), c.Tiers[i]})
		}
		longest = max(longest, c.Len())
		return true
	}); err != nil {
		t.Fatalf("ScanChunksRange(workers=%d): %v", workers, err)
	}
	return out, longest
}

// collectChunked materializes every row of a whole-store chunk scan.
func collectChunked(t *testing.T, s *Store, workers int) []scanRow {
	t.Helper()
	out, _ := collectRange(t, s, time.Unix(0, minTime), time.Unix(0, maxTime), workers)
	return out
}

// widestInstant is the most rows any one instant holds in rows — the
// largest merge round, by which a chunk may overshoot envdb.ChunkRows.
func widestInstant(rows []scanRow) int {
	widest, run := 0, 0
	for i := range rows {
		if i > 0 && rows[i].rec.Time.Equal(rows[i-1].rec.Time) {
			run++
		} else {
			run = 1
		}
		widest = max(widest, run)
	}
	return widest
}

// sameRows requires bit-identical sequences: same instants (including
// zone rendering, which the offline figures bucket by), same racks and
// tiers, same float bits on every channel.
func sameRows(t *testing.T, label string, got, want []scanRow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: visited %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i].rec, want[i].rec
		if !g.Time.Equal(w.Time) || g.Rack != w.Rack {
			t.Fatalf("%s: row %d = (%v, %v), want (%v, %v)", label, i, g.Time, g.Rack, w.Time, w.Rack)
		}
		if g.Time.Format(time.RFC3339) != w.Time.Format(time.RFC3339) {
			t.Fatalf("%s: row %d zone rendering %q, want %q",
				label, i, g.Time.Format(time.RFC3339), w.Time.Format(time.RFC3339))
		}
		for _, m := range sensors.AllMetrics() {
			if math.Float64bits(g.Value(m)) != math.Float64bits(w.Value(m)) {
				t.Fatalf("%s: row %d %v = %v, want %v", label, i, m, g.Value(m), w.Value(m))
			}
		}
		if got[i].tier != want[i].tier {
			t.Fatalf("%s: row %d tier = %v, want %v", label, i, got[i].tier, want[i].tier)
		}
	}
}

// TestMergedScanEquivalence: the chunk scan over a full machine must equal
// the oracle at every worker count, and again after a warm reopen.
func TestMergedScanEquivalence(t *testing.T) {
	s := NewStoreWith(Options{Partition: 24 * time.Hour})
	// All 48 racks, ~2 sealed partitions plus a live head each; every
	// tick exercises the full 48-way tie-break.
	const n = 600
	fill(t, n, topology.AllRacks(), s)

	want := oracleAll(s)
	if len(want) != n*topology.NumRacks {
		t.Fatalf("oracle has %d rows, want %d", len(want), n*topology.NumRacks)
	}
	for _, workers := range []int{1, 2, 3, 8, topology.NumRacks, 0} {
		sameRows(t, fmt.Sprintf("workers=%d", workers), collectChunked(t, s, workers), want)
	}

	// Warm reopen: flush to segments, reopen, scan again.
	dir := t.TempDir()
	if err := s.Flush(dir); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	re, err := Open(dir, Options{Partition: 24 * time.Hour})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sameRows(t, "warm reopen", collectChunked(t, re, 4), want)
}

// TestScanChunksRangeOracle holds the ranged chunk scan to the oracle over
// random ranges at 1/2/3/8 workers on the store shapes the merge must get
// right: a seal mid-ingest that splits equal timestamps across two runs,
// sparse racks on disjoint schedules, a compacted cold tier, a 2-hall
// fleet, a lone rack, and a rack whose history runs past the others'. No
// chunk may exceed envdb.ChunkRows by more than one merge round, however
// long a stream leads alone. An early stop must deliver exactly a prefix
// of the oracle.
func TestScanChunksRangeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	type namedStore struct {
		name string
		s    *Store
	}
	var stores []namedStore

	// Equal timestamps across a seal: the ticks after the seal repeat the
	// sealed block's last instant before moving on.
	split := NewStoreWith(Options{Partition: 24 * time.Hour})
	splitRacks := []topology.RackID{{Row: 0, Col: 1}, {Row: 0, Col: 2}, {Row: 2, Col: 9}}
	ts := base
	for i := 0; i < 900; i++ {
		for _, rack := range splitRacks {
			if err := split.Append(synthRecord(rng, rack, ts)); err != nil {
				t.Fatal(err)
			}
		}
		if i == 300 || i == 301 {
			split.SealAll()
			continue // repeat this instant after the seal
		}
		ts = ts.Add(timeutil.SampleInterval)
	}
	stores = append(stores, namedStore{"seal-split", split})

	// Sparse racks: each rack reports on its own stride — the highest
	// rack code every tick, lower codes less often — so a lone minimum
	// must stop short of a lower-code rack's record at the next instant.
	sparse := NewStoreWith(Options{Partition: 6 * time.Hour})
	for i := 0; i < 1200; i++ {
		for j, rack := range []topology.RackID{{Row: 0, Col: 0}, {Row: 1, Col: 4}, {Row: 2, Col: 15}} {
			if i%(3-j) == 0 {
				if err := sparse.Append(synthRecord(rng, rack, base.Add(time.Duration(i)*timeutil.SampleInterval))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	stores = append(stores, namedStore{"sparse", sparse})

	cold := NewStoreWith(Options{Partition: 6 * time.Hour, Retention: 12 * time.Hour})
	fill(t, 600, []topology.RackID{{Row: 0, Col: 0}, {Row: 1, Col: 9}, {Row: 2, Col: 3}}, cold)
	if st, err := cold.Compact(t.TempDir()); err != nil || st.Windows == 0 {
		t.Fatalf("Compact: %+v, %v", st, err)
	}
	stores = append(stores, namedStore{"cold-tier", cold})

	fleet := topology.Fleet{Halls: 2, Racks: 6}
	twoHall := NewStoreWith(Options{Partition: 12 * time.Hour, Fleet: fleet})
	fill(t, 500, fleet.AllRacks(), twoHall)
	stores = append(stores, namedStore{"two-hall", twoHall})

	// A lone stream: every round's minimum is held alone, with no other
	// stream to bound the copy.
	lone := NewStoreWith(Options{Partition: 6 * time.Hour})
	fill(t, 3*envdb.ChunkRows/2, []topology.RackID{{Row: 1, Col: 1}}, lone)
	stores = append(stores, namedStore{"lone-rack", lone})

	// A long tail: one rack's history runs far past two short ones', so the
	// merge ends on a stream that leads alone for more than a chunk.
	tail := NewStoreWith(Options{Partition: 6 * time.Hour})
	fill(t, 300, []topology.RackID{{Row: 0, Col: 4}, {Row: 2, Col: 0}}, tail)
	fill(t, 2*envdb.ChunkRows, []topology.RackID{{Row: 1, Col: 12}}, tail)
	stores = append(stores, namedStore{"long-tail", tail})

	for _, ns := range stores {
		name, s := ns.name, ns.s
		all := oracleAll(s)
		if name == "cold-tier" && all[0].tier != envdb.TierDownsampled {
			t.Fatal("cold-tier store has no downsampled rows")
		}
		first, last := all[0].rec.Time.UnixNano(), all[len(all)-1].rec.Time.UnixNano()
		for trial := 0; trial < 6; trial++ {
			a := first - int64(timeutil.SampleInterval) + rng.Int63n(last-first+2*int64(timeutil.SampleInterval))
			b := first - int64(timeutil.SampleInterval) + rng.Int63n(last-first+2*int64(timeutil.SampleInterval))
			if trial == 0 {
				a, b = first, last+1
			}
			if a > b {
				a, b = b, a
			}
			from, to := time.Unix(0, a), time.Unix(0, b)
			want := oracleScan(s, from, to)
			for _, workers := range []int{1, 2, 3, 8} {
				label := fmt.Sprintf("%s trial %d workers=%d", name, trial, workers)
				got, longest := collectRange(t, s, from, to, workers)
				sameRows(t, label, got, want)
				if bound := envdb.ChunkRows + widestInstant(want); longest > bound {
					t.Fatalf("%s: a chunk held %d rows, want ≤ %d", label, longest, bound)
				}
			}
		}

		// Early stop after the first chunk: a clean return, and the rows
		// seen are the oracle's prefix.
		var got []scanRow
		if err := s.ScanChunks(context.Background(), 2, func(c *envdb.Chunk) bool {
			for i := 0; i < c.Len(); i++ {
				got = append(got, scanRow{c.Record(i), c.Tiers[i]})
			}
			return false
		}); err != nil {
			t.Fatalf("%s early stop: %v", name, err)
		}
		if len(got) == 0 || len(got) > len(all) {
			t.Fatalf("%s early stop delivered %d rows of %d", name, len(got), len(all))
		}
		sameRows(t, name+" early stop", got, all[:len(got)])
	}
}

// TestMergedScanEarlyStop exercises abandonment: stopping the visitor
// mid-scan must release the pool without deadlock or leaked workers
// (goroutine leaks show up as -race hammer flakiness; deadlocks as test
// timeouts), for whole-store and ranged scans alike.
func TestMergedScanEarlyStop(t *testing.T) {
	s := NewStoreWith(Options{Partition: 12 * time.Hour})
	fill(t, 500, topology.AllRacks(), s)

	for _, workers := range []int{1, 3, 0} {
		chunks := 0
		if err := s.ScanChunks(context.Background(), workers, func(*envdb.Chunk) bool {
			chunks++
			return chunks < 2
		}); err != nil {
			t.Fatalf("early stop: %v", err)
		}
		if chunks != 2 {
			t.Fatalf("visited %d chunks, want 2", chunks)
		}
	}
	mid := base.Add(250 * timeutil.SampleInterval)
	if err := s.ScanChunksRange(context.Background(), base, mid, 3, nil, func(*envdb.Chunk) bool { return false }); err != nil {
		t.Fatalf("ranged early stop: %v", err)
	}
}

func TestMergedScanEmptyStore(t *testing.T) {
	s := NewStore()
	if err := s.ScanChunks(context.Background(), 4, func(*envdb.Chunk) bool {
		t.Fatal("no chunks expected")
		return false
	}); err != nil {
		t.Fatalf("empty scan: %v", err)
	}
}

// TestMergedScanCorruption white-boxes a corrupt sealed payload into one
// shard: the chunk scan must surface it as an error (not a panic, unlike
// the EachRecord surface), while a scan that stops before the corrupt
// block stays clean thanks to demand-driven decoding — the merge reads at
// most a chunk plus one prefetched run past the consumer's stop. The
// consumer's first look comes after one chunk, so each store holds well
// over a chunk before its last block: a single rack (every round a lone
// minimum) and two tick-aligned racks (every round tied).
func TestMergedScanCorruption(t *testing.T) {
	for _, tc := range []struct {
		name  string
		racks []topology.RackID
		ticks int
	}{
		{"one rack", []topology.RackID{{Row: 1, Col: 1}}, 6000},
		{"two racks", []topology.RackID{{Row: 1, Col: 1}, {Row: 1, Col: 2}}, 6000},
	} {
		s := NewStoreWith(Options{Partition: 6 * time.Hour})
		fill(t, tc.ticks, tc.racks, s)
		s.SealAll()

		// 6000 ticks in 6-hour partitions: ~83 blocks per rack; the first
		// chunk ends ~57 blocks (one rack) or ~28 (two) into each.
		sh := &s.shards[tc.racks[0].Index()]
		if len(sh.sealed) < 80 {
			t.Fatalf("%s: need ≥80 sealed blocks, got %d", tc.name, len(sh.sealed))
		}
		sh.sealed[len(sh.sealed)-1].times = []byte{0xff, 0xff, 0xff}

		if err := s.ScanChunks(context.Background(), 2, func(*envdb.Chunk) bool { return false }); err != nil {
			t.Fatalf("%s: early-stopped scan should not surface the corrupt tail: %v", tc.name, err)
		}
		if err := s.ScanChunks(context.Background(), 2, func(*envdb.Chunk) bool { return true }); err == nil {
			t.Fatalf("%s: full scan over corrupt block should error", tc.name)
		}
	}
}

// TestEachRecordUntilSurfacesCorruption pins the EachRecordUntil bugfix:
// corruption may not be silently dropped even when the visitor stops the
// scan early — the error-free surface panics on it.
func TestEachRecordUntilSurfacesCorruption(t *testing.T) {
	s := NewStoreWith(Options{Partition: 6 * time.Hour})
	rack := topology.RackID{Row: 0, Col: 3}
	fill(t, 200, []topology.RackID{rack}, s)
	s.SealAll()
	s.shards[rack.Index()].sealed[0].times = []byte{0x00}

	defer func() {
		if recover() == nil {
			t.Fatal("EachRecordUntil over a corrupt shard should panic even with an early-stopping visitor")
		}
	}()
	s.EachRecordUntil(func(sensors.Record) bool { return false })
}

// TestMergedScanDuringIngest hammers chunk scans against concurrent
// appends (run under -race by make check): scans run on snapshots, so
// each must observe an internally consistent, time-ordered sequence.
func TestMergedScanDuringIngest(t *testing.T) {
	s := NewStoreWith(Options{Partition: time.Hour})
	racks := []topology.RackID{{Row: 0, Col: 2}, {Row: 1, Col: 7}, {Row: 2, Col: 11}, {Row: 1, Col: 14}}
	const perRack = 1500

	var wg sync.WaitGroup
	for _, rack := range racks {
		wg.Add(1)
		go func(rack topology.RackID) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(rack.Index())))
			for i := 0; i < perRack; i++ {
				ts := base.Add(time.Duration(i) * timeutil.SampleInterval)
				if err := s.Append(synthRecord(rng, rack, ts)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(rack)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for scanning := true; scanning; {
		select {
		case <-done:
			scanning = false
		default:
		}
		var prevT int64 = math.MinInt64
		prevRack := -1
		n := 0
		if err := s.ScanChunks(context.Background(), 3, func(c *envdb.Chunk) bool {
			for i, k := range c.Times {
				rack := int(c.Racks[i])
				if k < prevT || (k == prevT && rack <= prevRack) {
					t.Errorf("merge order violation at row %d: (%d,%d) after (%d,%d)", n, k, rack, prevT, prevRack)
					return false
				}
				prevT, prevRack = k, rack
				n++
			}
			return true
		}); err != nil {
			t.Fatalf("scan during ingest: %v", err)
		}
	}

	// Steady state: the final scan sees everything.
	if got := len(collectChunked(t, s, 4)); got != perRack*len(racks) {
		t.Fatalf("final scan visited %d rows, want %d", got, perRack*len(racks))
	}
}
