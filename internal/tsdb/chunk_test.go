package tsdb

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mira/internal/envdb"
	"mira/internal/sensors"
	"mira/internal/timeutil"
	"mira/internal/topology"
)

// TestChunkedScanEquivalence: the chunk rows of a multi-partition store
// must equal the oracle bit for bit — instants, racks, tiers, float bits —
// before and after retention compaction folds the oldest partitions into
// the cold tier.
func TestChunkedScanEquivalence(t *testing.T) {
	s := NewStoreWith(Options{Partition: 6 * time.Hour, Retention: 12 * time.Hour})
	fill(t, 600, topology.AllRacks()[:12], s)
	for _, workers := range []int{1, 3, 8, 0} {
		sameRows(t, fmt.Sprintf("hot workers=%d", workers), collectChunked(t, s, workers), oracleAll(s))
	}
	if _, err := s.Compact(t.TempDir()); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	want := oracleAll(s)
	for _, workers := range []int{1, 3, 8, 0} {
		sameRows(t, fmt.Sprintf("compacted workers=%d", workers), collectChunked(t, s, workers), want)
	}
}

// TestChunkedScanTiers checks that chunk rows carry the storage tier of a
// compacted store: downsampled windows first, then raw samples.
func TestChunkedScanTiers(t *testing.T) {
	s := NewStoreWith(Options{
		Partition: 6 * time.Hour,
		Retention: 12 * time.Hour,
	})
	racks := []topology.RackID{{Row: 0, Col: 0}, {Row: 1, Col: 9}}
	fill(t, 600, racks, s)
	if _, err := s.Compact(t.TempDir()); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	got := collectChunked(t, s, 2)
	sameRows(t, "tiers", got, oracleAll(s))
	down := 0
	for i, r := range got {
		if r.tier == envdb.TierDownsampled {
			if down != i {
				t.Fatalf("row %d is downsampled after %d raw rows", i, i-down)
			}
			down++
		}
	}
	if down == 0 || down == len(got) {
		t.Fatalf("compacted store produced %d downsampled rows of %d — test store mis-built", down, len(got))
	}
}

// TestChunkedScanEqualTimestampsAcrossSeal pins the cross-run continuation
// of the round merge: sealing mid-partition can split records with equal
// timestamps for one rack across two runs, and the chunk path must still
// emit them consecutively in the right global slot.
func TestChunkedScanEqualTimestampsAcrossSeal(t *testing.T) {
	s := NewStoreWith(Options{Partition: 24 * time.Hour})
	rng := rand.New(rand.NewSource(5))
	racks := []topology.RackID{{Row: 0, Col: 1}, {Row: 0, Col: 2}}
	ts := base
	for i := 0; i < 40; i++ {
		for _, rack := range racks {
			if err := s.Append(synthRecord(rng, rack, ts)); err != nil {
				t.Fatal(err)
			}
		}
		if i == 19 {
			// Seal with the next appends repeating this exact timestamp:
			// rack 0's equal-timestamp records now span a sealed block and
			// the fresh head.
			s.SealAll()
			continue // do not advance ts
		}
		ts = ts.Add(timeutil.SampleInterval)
	}
	sameRows(t, "equal timestamps across seal", collectChunked(t, s, 2), oracleAll(s))
}

// TestChunkedScanEarlyStopAndEmpty: stopping after the first chunk must
// release the pool without deadlock, and an empty store must yield no
// callback at all.
func TestChunkedScanEarlyStopAndEmpty(t *testing.T) {
	s := NewStoreWith(Options{Partition: 12 * time.Hour})
	fill(t, 500, topology.AllRacks(), s)
	chunks := 0
	if err := s.ScanChunks(context.Background(), 4, func(c *envdb.Chunk) bool {
		if c.Len() == 0 {
			t.Fatal("empty chunk delivered")
		}
		chunks++
		return false
	}); err != nil {
		t.Fatalf("early stop: %v", err)
	}
	if chunks != 1 {
		t.Fatalf("visited %d chunks after stopping at the first, want 1", chunks)
	}

	if err := NewStore().ScanChunks(context.Background(), 2, func(*envdb.Chunk) bool {
		t.Fatal("no chunks expected from an empty store")
		return false
	}); err != nil {
		t.Fatalf("empty scan: %v", err)
	}
}

// TestChunkedScanCorruption: a corrupt sealed payload must surface as an
// error from the chunked scan, not a panic.
func TestChunkedScanCorruption(t *testing.T) {
	s := NewStoreWith(Options{Partition: 6 * time.Hour})
	rack := topology.RackID{Row: 1, Col: 1}
	fill(t, 500, []topology.RackID{rack}, s)
	s.SealAll()
	sh := &s.shards[rack.Index()]
	sh.sealed[len(sh.sealed)-1].times = []byte{0xff, 0xff, 0xff}
	if err := s.ScanChunks(context.Background(), 2, func(*envdb.Chunk) bool { return true }); err == nil {
		t.Fatal("chunked scan over corrupt block should error")
	}
}

// scanWhere is a whole-store chunk scan on 2 workers pruned by pred.
func scanWhere(s *Store, pred BlockPredicate, f func(*envdb.Chunk) bool) error {
	return s.ScanChunksRange(context.Background(), time.Unix(0, minTime), time.Unix(0, maxTime), 2, pred, f)
}

// TestChunkedScanPruning: zone-map predicates skip sealed blocks without
// decoding them. The proof that pruned blocks are never touched: one block
// is corrupted, and the scan stays clean as long as the predicate excludes
// it — then fails when the predicate admits it.
func TestChunkedScanPruning(t *testing.T) {
	s := NewStoreWith(Options{Partition: 6 * time.Hour})
	rack := topology.RackID{Row: 2, Col: 4}
	fill(t, 500, []topology.RackID{rack}, s)
	s.SealAll()

	want := oracleAll(s)
	sh := &s.shards[rack.Index()]
	if len(sh.sealed) < 2 {
		t.Fatalf("need ≥2 sealed blocks, got %d", len(sh.sealed))
	}

	// A tautological predicate prunes nothing and changes nothing.
	all := func(zones *[sensors.NumMetrics]ZoneMap) bool {
		z := zones[sensors.MetricPower]
		return !z.usable() || z.Max >= z.Min
	}
	var got []scanRow
	if err := scanWhere(s, all, func(c *envdb.Chunk) bool {
		for i := 0; i < c.Len(); i++ {
			got = append(got, scanRow{c.Record(i), c.Tiers[i]})
		}
		return true
	}); err != nil {
		t.Fatalf("scan(all): %v", err)
	}
	sameRows(t, "tautological predicate", got, want)

	// An impossible predicate prunes every sealed block: zero rows.
	none := func(*[sensors.NumMetrics]ZoneMap) bool { return false }
	rows := 0
	if err := scanWhere(s, none, func(c *envdb.Chunk) bool {
		rows += c.Len()
		return true
	}); err != nil {
		t.Fatalf("scan(none): %v", err)
	}
	if rows != 0 {
		t.Fatalf("impossible predicate yielded %d rows, want 0", rows)
	}

	// Corrupt one block's payload. Pruning it keeps the scan clean —
	// proving the block was skipped before any decode — while admitting it
	// surfaces the corruption.
	bad := sh.sealed[1]
	badMin := bad.zones[sensors.MetricPower].Min
	bad.times = []byte{0xff, 0xff, 0xff}
	skipBad := func(zones *[sensors.NumMetrics]ZoneMap) bool {
		z := zones[sensors.MetricPower]
		return !z.usable() || z.Min != badMin
	}
	if err := scanWhere(s, skipBad, func(*envdb.Chunk) bool { return true }); err != nil {
		t.Fatalf("scan pruning the corrupt block should stay clean: %v", err)
	}
	if err := scanWhere(s, all, func(*envdb.Chunk) bool { return true }); err == nil {
		t.Fatal("scan admitting the corrupt block should error")
	}
}

// TestScanStopsAtRangeEnd pins the early-termination bugfix: a scan whose
// range ends early in the trace must stop walking the block list at the
// first block past the range instead of bounds-checking every remaining
// block (and, before the fix, the same `continue` pattern kept the stream
// alive to the end of the trace).
func TestScanStopsAtRangeEnd(t *testing.T) {
	s := NewStoreWith(Options{Partition: time.Hour})
	rack := topology.RackID{Row: 0, Col: 7}
	const n = 1200 // 100 one-hour partitions at 300 s cadence
	fill(t, n, []topology.RackID{rack}, s)
	s.SealAll()

	// Range covering only the first ~2 partitions.
	from := base
	to := base.Add(20 * timeutil.SampleInterval)
	streams := s.scanShards(context.Background(), from, to, 1, nil)
	cm := newChunkMerger(streams)
	got := 0
	for cm.fill() {
		got += cm.chunk.Len()
	}
	if cm.err != nil {
		t.Fatalf("merge: %v", cm.err)
	}
	cm.close() // workers joined: stream state is safe to inspect

	if got != 20 {
		t.Fatalf("visited %d records, want 20", got)
	}
	st := streams[rack.Index()]
	if total := len(st.blocks); total < 100 {
		t.Fatalf("test store has %d blocks, want ≥100", total)
	}
	// Two blocks decoded, then the third (first past the range) terminates
	// the stream without advancing the cursor over the tail.
	if st.nextBlock > 3 {
		t.Fatalf("stream advanced to block %d of %d; early termination should stop ≤3", st.nextBlock, len(st.blocks))
	}
}
