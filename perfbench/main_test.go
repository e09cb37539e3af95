package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// BENCHMARK.json at the repository root declares the metrics this program
// prints; the two lists must not drift apart.
func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	ms := time.Millisecond
	// Hand-built spans: a 100 ms parent with two overlapping children
	// covering 10..40 and 30..60, and one child outside it.
	tr.spans = []spanRecord{
		{Name: "pass", Trace: 1, ID: 1, Start: 0, End: 100 * ms},
		{Name: "a", Trace: 1, ID: 2, Parent: 1, Start: 10 * ms, End: 40 * ms},
		{Name: "b", Trace: 1, ID: 3, Parent: 1, Start: 30 * ms, End: 60 * ms},
		{Name: "c", Trace: 1, ID: 4, Parent: 1, Start: 150 * ms, End: 160 * ms},
		{Name: "pass", Trace: 2, ID: 5, Start: 200 * ms, End: 210 * ms},
	}
	total, self := tr.layerTimes(map[uint64]bool{1: true})
	if total["pass"] != 100*ms || self["pass"] != 50*ms {
		t.Fatalf("pass total %v self %v, want 100ms and 50ms", total["pass"], self["pass"])
	}
	if total["a"] != 30*ms || self["a"] != 30*ms {
		t.Fatalf("leaf a total %v self %v, want 30ms", total["a"], self["a"])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.root("x")
	sp.child("y").end()
	sp.end()
	if err := sp.within("z", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if tr.count() != 0 {
		t.Fatal("nil tracer counted spans")
	}
}
