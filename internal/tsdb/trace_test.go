package tsdb

import (
	"context"
	"testing"
	"time"

	"mira/internal/envdb"
	"mira/internal/obs"
	"mira/internal/timeutil"
	"mira/internal/topology"
)

// TestScanWorkerSpansJoinScanTrace pins the goroutine parent-linkage fix:
// the per-block decode spans started inside the scan's worker pool must
// be children of the chunk-scan span, not fresh roots — the scan context
// has to be threaded into the pool, not dropped at the goroutine boundary.
func TestScanWorkerSpansJoinScanTrace(t *testing.T) {
	s := NewStoreWith(Options{Partition: 24 * time.Hour})
	fill(t, 400, topology.AllRacks()[:6], s)

	ctx, root := obs.Span(context.Background(), "test.scan_trace")
	n := 0
	if err := s.ScanChunks(ctx, 4, func(c *envdb.Chunk) bool {
		n += c.Len()
		return true
	}); err != nil {
		t.Fatalf("ScanChunks: %v", err)
	}
	root.End()
	if n != 400*6 {
		t.Fatalf("scanned %d records, want %d", n, 400*6)
	}

	frags := obs.TraceByID(root.Context().Trace)
	if len(frags) == 0 {
		t.Fatal("scan trace not retained")
	}
	var spans []obs.SpanRecord
	for _, f := range frags {
		spans = append(spans, f.Spans...)
	}
	var mergedID obs.SpanID
	for _, sp := range spans {
		if sp.Name == "tsdb.scan_chunked" {
			mergedID = sp.ID
			if sp.Parent != root.Context().Span {
				t.Fatalf("tsdb.scan_chunked parent %s, want root %s", sp.Parent, root.Context().Span)
			}
		}
	}
	if mergedID == 0 {
		t.Fatal("no tsdb.scan_chunked span in trace")
	}
	blocks := 0
	for _, sp := range spans {
		if sp.Name != "tsdb.scan_block" {
			continue
		}
		blocks++
		if sp.Parent == 0 {
			t.Fatal("tsdb.scan_block span is a root: worker pool dropped the scan context")
		}
		if sp.Parent != mergedID {
			t.Fatalf("tsdb.scan_block parent %s, want tsdb.scan_chunked %s", sp.Parent, mergedID)
		}
	}
	if blocks == 0 {
		t.Fatal("no tsdb.scan_block worker spans in trace")
	}
}

// TestPlainScanStartsNoSpans pins the no-pollution side of the same fix:
// a chunk scan under a context without a trace — the threshold auditor's
// ranged scan, a plain local scan — must not mint root traces, neither for
// itself nor per decoded block.
func TestPlainScanStartsNoSpans(t *testing.T) {
	s := NewStoreWith(Options{Partition: 24 * time.Hour})
	fill(t, 300, topology.AllRacks()[:4], s)

	before := make(map[obs.TraceID]bool)
	for _, tr := range obs.Traces() {
		before[tr.Trace] = true
	}
	rows := 0
	count := func(c *envdb.Chunk) bool { rows += c.Len(); return true }
	if err := s.ScanChunksRange(context.Background(), base, base.Add(200*timeutil.SampleInterval), 4, nil, count); err != nil {
		t.Fatalf("ranged scan: %v", err)
	}
	if err := s.ScanChunks(context.Background(), 4, count); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if rows != (200+300)*4 {
		t.Fatalf("scanned %d rows, want %d", rows, (200+300)*4)
	}
	for _, tr := range obs.Traces() {
		if !before[tr.Trace] {
			t.Fatalf("plain scan minted trace %s with %d spans (first: %q)",
				tr.Trace, len(tr.Spans), tr.Spans[0].Name)
		}
	}
}
