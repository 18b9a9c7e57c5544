package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share op, the
// id of the operation's root span; parent links a child to its caller.
type span struct {
	name       string
	id, parent int64
	op         int64
	lane       int
	start, end time.Time
	args       map[string]float64
}

func (s span) ms() float64 { return float64(s.end.Sub(s.start)) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes share the traced code path.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span id, so a root span's children can name it as their
// parent before the root itself ends. It returns 0 on a nil tracer.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores s, assigning an id when it has none.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.id == 0 {
		t.next++
		s.id = t.next
	}
	t.spans = append(t.spans, s)
}

// named returns the recorded spans with the given name.
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// merge appends another tracer's spans (ids are kept distinct by offset).
func (t *tracer) merge(o *tracer) {
	o.mu.Lock()
	spans := append([]span(nil), o.spans...)
	o.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	base := t.next
	for _, s := range spans {
		s.id += base
		if s.op != 0 {
			s.op += base
		}
		if s.parent != 0 {
			s.parent += base
		}
		t.spans = append(t.spans, s)
		t.next = max(t.next, s.id)
	}
}

// selfTimes returns each span name's total self time in milliseconds: its
// spans' durations minus the part of each interval its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.name] += float64(s.end.Sub(s.start)-covered(s, children[s.id])) / 1e6
	}
	return out
}

// covered returns how much of p's interval the union of kids covers.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start.Before(kids[j].start) })
	var total time.Duration
	var curS, curE time.Time
	for i, k := range kids {
		s, e := k.start, k.end
		if s.Before(p.start) {
			s = p.start
		}
		if e.After(p.end) {
			e = p.end
		}
		if !e.After(s) {
			continue
		}
		if i == 0 || s.After(curE) {
			total += curE.Sub(curS)
			curS, curE = s, e
		} else if e.After(curE) {
			curE = e
		}
	}
	return total + curE.Sub(curS)
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which Perfetto and chrome://tracing open.
type chromeEvent struct {
	Name string             `json:"name"`
	Cat  string             `json:"cat"`
	Ph   string             `json:"ph"`
	Ts   float64            `json:"ts"`
	Dur  float64            `json:"dur"`
	Pid  int                `json:"pid"`
	Tid  int                `json:"tid"`
	Args map[string]float64 `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]float64{"id": float64(s.id), "parent": float64(s.parent), "op": float64(s.op)}
		for k, v := range s.args {
			args[k] = v
		}
		cat, _, _ := strings.Cut(s.name, ".")
		events = append(events, chromeEvent{
			Name: s.name, Cat: cat, Ph: "X",
			Ts:  float64(s.start.Sub(t.t0)) / 1e3,
			Dur: float64(s.end.Sub(s.start)) / 1e3,
			Pid: 1, Tid: s.lane, Args: args,
		})
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
