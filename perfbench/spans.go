package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span is one timed interval of a traced run. Times are nanoseconds
// since the tracer's base instant. Parent indexes the enclosing span in
// the same trace (-1 for a root); Run identifies the traced inference.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// tracer keeps the spans of one traced run in memory. It is used by a
// single goroutine: rank 0's, the only rank whose layers are wrapped.
type tracer struct {
	base  time.Time
	run   string
	spans []Span
}

func newTracer(run string) *tracer {
	return &tracer{base: time.Now(), run: run}
}

// now returns nanoseconds since the tracer's base (monotonic). Like
// every tracer method it is a no-op on a nil tracer, which is how ranks
// other than 0 run the same code untraced.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// record closes a span opened at start (a value of now). Parents are
// assigned afterwards by nest, so recording costs one append.
func (t *tracer) record(name string, start int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, Span{Name: name, Start: start, End: t.now(), Parent: -1, Run: t.run})
}

// nest assigns every span's parent. spans[:own] were recorded by one
// goroutine on the tracer's clock and nest properly: each gets the
// innermost span open when it started. spans[own:] were imported from
// the telemetry stream, whose clock is aligned to within a few hundred
// nanoseconds; they are leaves placed by their midpoint, so an edge
// that straddles its enclosing call by a clock read still lands under
// that call and never becomes anyone's parent.
func nest(spans []Span, own int) {
	at := func(i int) int64 {
		if i >= own {
			return spans[i].Start + spans[i].Dur()/2
		}
		return spans[i].Start
	}
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if at(ia) != at(ib) {
			return at(ia) < at(ib)
		}
		return spans[ia].End > spans[ib].End
	})
	var open []int
	for _, i := range order {
		for len(open) > 0 && spans[open[len(open)-1]].End <= at(i) {
			open = open[:len(open)-1]
		}
		spans[i].Parent = -1
		if len(open) > 0 {
			spans[i].Parent = open[len(open)-1]
		}
		if i < own {
			open = append(open, i)
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children may overlap each
// other and may stick out of the parent; only the union of their
// intervals clipped to the parent counts, so no instant is subtracted
// twice.
func selfTimes(spans []Span) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make([][]iv, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, p := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered int64
		curLo, curHi := int64(0), int64(0)
		started := false
		flush := func() {
			if started && curHi > curLo {
				covered += curHi - curLo
			}
		}
		for _, c := range ivs {
			lo, hi := max(c.lo, p.Start), min(c.hi, p.End)
			if hi <= lo {
				continue
			}
			if started && lo <= curHi {
				curHi = max(curHi, hi)
				continue
			}
			flush()
			curLo, curHi, started = lo, hi, true
		}
		flush()
		self[i] = p.Dur() - covered
	}
	return self
}

// telemetrySpans converts rank 0's kernel and collective spans from a
// telemetry JSONL stream into Spans on the tracer's clock. The stream's
// meta event carries the collector's wall-clock epoch; base is the
// tracer's, so the offset between the two clocks is exact up to the
// wall-clock reads themselves.
func telemetrySpans(stream []byte, base time.Time, run string) ([]Span, error) {
	var (
		out    []Span
		offset int64
		meta   bool
	)
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var ev struct {
			Ev      string `json:"ev"`
			Rank    int    `json:"rank"`
			Kind    string `json:"kind"`
			Class   string `json:"class"`
			TNS     int64  `json:"t_ns"`
			DurNS   int64  `json:"dur_ns"`
			StartNS int64  `json:"start_unix_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("telemetry stream: %w", err)
		}
		switch ev.Ev {
		case "meta":
			offset, meta = ev.StartNS-base.UnixNano(), true
		case "span":
			if ev.Rank != 0 {
				continue
			}
			if !meta {
				return nil, fmt.Errorf("telemetry stream: span before meta event")
			}
			start := ev.TNS + offset
			out = append(out, Span{Name: ev.Kind + "." + ev.Class, Start: start, End: start + ev.DurNS, Parent: -1, Run: run})
		}
	}
	return out, sc.Err()
}

// writeJSONLines writes items to the file at path, one JSON object per
// line.
func writeJSONLines[T any](path string, items []T) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, it := range items {
		if err := enc.Encode(it); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
