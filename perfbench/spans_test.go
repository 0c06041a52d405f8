package main

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []Span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: union 10..60
		{Name: "c", Start: 90, End: 120, Parent: 0}, // sticks out: counts 90..100
		{Name: "d", Start: 35, End: 38, Parent: 1},  // grandchild: only a's business
	}
	self := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 3, 30, 30, 3}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("%s: self %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
}

func TestSelfTimeWithoutChildrenIsDuration(t *testing.T) {
	self := selfTimes([]Span{{Start: 5, End: 17, Parent: -1}})
	if self[0] != 12 {
		t.Errorf("self = %d, want 12", self[0])
	}
}

func TestNestPlacesImportedLeavesByMidpoint(t *testing.T) {
	spans := []Span{
		{Name: "infer", Start: 0, End: 1000},
		{Name: "search.run", Start: 10, End: 990},
		{Name: "op1", Start: 100, End: 200},
		{Name: "op2", Start: 200, End: 300},
		// Imported leaves: the first straddles op1's start by a clock
		// read, the second ends just past op1, the third falls between
		// calls.
		{Name: "kernel.newview", Start: 98, End: 150},
		{Name: "collective.x", Start: 150, End: 203},
		{Name: "kernel.evaluate", Start: 400, End: 410},
	}
	nest(spans, 4)
	parent := func(i int) string {
		if spans[i].Parent < 0 {
			return "-"
		}
		return spans[spans[i].Parent].Name
	}
	want := []string{"-", "infer", "search.run", "search.run", "op1", "op1", "search.run"}
	for i, w := range want {
		if got := parent(i); got != w {
			t.Errorf("%s: parent %s, want %s", spans[i].Name, got, w)
		}
	}
	self := selfTimes(spans)
	// op1 (100..200) is covered by 100..150 and 150..200 (clipped).
	if self[2] != 0 {
		t.Errorf("op1 self = %d, want 0", self[2])
	}
}

func TestTelemetrySpansAlignClocks(t *testing.T) {
	base := time.Unix(100, 0)
	stream := strings.Join([]string{
		fmt.Sprintf(`{"ev":"meta","ranks":2,"start_unix_ns":%d}`, base.UnixNano()+500),
		`{"ev":"span","rank":0,"kind":"kernel","class":"newview","t_ns":1000,"dur_ns":200}`,
		`{"ev":"span","rank":1,"kind":"kernel","class":"newview","t_ns":1000,"dur_ns":200}`,
		`{"ev":"iter","rank":0,"iter":1,"lnl":-5,"t_ns":3000}`,
		`{"ev":"span","rank":0,"kind":"collective","class":"likelihood-eval","t_ns":2000,"dur_ns":50}`,
	}, "\n")
	got, err := telemetrySpans([]byte(stream), base, "run")
	if err != nil {
		t.Fatal(err)
	}
	want := []Span{
		{Name: "kernel.newview", Start: 1500, End: 1700, Parent: -1, Run: "run"},
		{Name: "collective.likelihood-eval", Start: 2500, End: 2550, Parent: -1, Run: "run"},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if _, err := telemetrySpans([]byte(`{"ev":"span","rank":0}`), base, "run"); err == nil {
		t.Error("a span before the meta event was accepted")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.record("x", tr.now())
	if tr.now() != 0 {
		t.Error("nil tracer read the clock")
	}
}
