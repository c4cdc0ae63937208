package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestUnionLen(t *testing.T) {
	cases := []struct {
		iv     [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 100, 0},
		{[][2]int64{{10, 20}, {30, 40}}, 0, 100, 20},
		{[][2]int64{{10, 30}, {20, 40}, {35, 50}}, 0, 100, 40}, // overlapping shards
		{[][2]int64{{10, 30}, {12, 18}}, 0, 100, 20},           // nested
		{[][2]int64{{0, 50}, {60, 200}}, 20, 100, 70},          // clipped to the parent
	}
	for _, c := range cases {
		if got := unionLen(c.iv, c.lo, c.hi); got != c.want {
			t.Errorf("unionLen(%v, %d, %d) = %d, want %d", c.iv, c.lo, c.hi, got, c.want)
		}
	}
}

// TestLinkForks pins that a fork links only to the single session that
// can own it, and stays unlinked when two sessions could.
func TestLinkForks(t *testing.T) {
	set := func(ids ...int) map[int]struct{} {
		m := map[int]struct{}{}
		for _, id := range ids {
			m[id] = struct{}{}
		}
		return m
	}
	sessions := []sessionRef{
		{id: 1, start: 0, end: 100, objs: set(1, 2, 3)},
		{id: 2, start: 50, end: 150, objs: set(3, 4), buildsPlan: true},
		{id: 3, start: 200, end: 300, objs: set(1, 2, 3)},
	}
	forks := []*fork{
		{id: 10, created: 10, objs: set(1, 2)},          // only session 1 is in flight
		{id: 11, created: 60, objs: set(3)},             // sessions 1 and 2 both own object 3
		{id: 12, created: 60, objs: set(4)},             // only session 2 owns object 4
		{id: 13, created: 60, objs: set(), built: true}, // only session 2 builds
		{id: 14, created: 250, objs: set(1)},            // only session 3 is in flight
		{id: 15, created: 170, objs: set(1)},            // no session in flight
	}
	got := linkForks(forks, sessions)
	want := map[int64]int64{10: 1, 12: 2, 13: 2, 14: 3}
	if len(got) != len(want) {
		t.Fatalf("links %v, want %v", got, want)
	}
	for f, s := range want {
		if got[f] != s {
			t.Errorf("fork %d linked to %d, want %d", f, got[f], s)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics pins that BENCHMARK.json declares
// exactly the workloads and metrics this program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: %d metrics declared, %d reported", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s %d: declared %s [%s], reported %s [%s]", kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
