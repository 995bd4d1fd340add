package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// span is one host-time interval around a public call into a layer. Spans
// of one repetition share Workload and Rep; Parent is the enclosing span's
// ID (0 for a root).
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Rep      string  `json:"rep"`
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
}

// counterSample is a public counter read at a simulate-slice boundary.
type counterSample struct {
	Name  string  `json:"counter"`
	AtUS  float64 `json:"at_us"`
	Value float64 `json:"value"`
}

// recorder keeps one repetition's spans and counter samples in memory. It
// is always on — a repetition makes a few dozen spans, so the timed runs
// read their section times from it too — and the traced repetition differs
// only in slicing the simulate section, profiling it, and writing the
// recorder out at exit.
type recorder struct {
	workload, rep string
	t0            time.Time
	spans         []span
	open          []int
	counters      []counterSample
	// cpuProfile, when non-nil, receives a runtime/pprof CPU profile taken
	// over the simulate span.
	cpuProfile io.Writer
}

func newRecorder(workload, rep string) *recorder {
	return &recorder{workload: workload, rep: rep, t0: time.Now()}
}

func (r *recorder) nowUS() float64 { return float64(time.Since(r.t0).Nanoseconds()) / 1e3 }

// do runs fn inside a span named name, nested under the currently open span.
func (r *recorder) do(name string, fn func()) {
	id := len(r.spans) + 1
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Workload: r.workload, Rep: r.rep, StartUS: r.nowUS()})
	r.open = append(r.open, id)
	defer func() {
		r.open = r.open[:len(r.open)-1]
		r.spans[id-1].EndUS = r.nowUS()
	}()
	fn()
}

// simulate runs fn inside the "sim.run" span, under the CPU profiler when
// the repetition is traced. The profiler starts before and stops after the
// span: StopCPUProfile waits for the profile reader's next poll, which
// must not be charged to the simulate section.
func (r *recorder) simulate(fn func()) error {
	if r.cpuProfile != nil {
		if err := pprof.StartCPUProfile(r.cpuProfile); err != nil {
			return fmt.Errorf("start CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	r.do(spanSimulate, fn)
	return nil
}

// count records a counter sample at the current host time.
func (r *recorder) count(name string, v float64) {
	r.counters = append(r.counters, counterSample{Name: name, AtUS: r.nowUS(), Value: v})
}

// maxCount is the largest sample of the named counter (0 if never sampled).
func (r *recorder) maxCount(name string) float64 {
	var m float64
	for _, c := range r.counters {
		if c.Name == name && c.Value > m {
			m = c.Value
		}
	}
	return m
}

// seconds is the summed duration of every span with the given name.
func (r *recorder) seconds(name string) float64 {
	var us float64
	for _, s := range r.spans {
		if s.Name == name {
			us += s.EndUS - s.StartUS
		}
	}
	return us / 1e6
}

// chromeEvent is one record of the Chrome trace-event format ("X" complete
// events for spans, "C" counter events), loadable in chrome://tracing and
// ui.perfetto.dev.
type chromeEvent struct {
	Name string             `json:"name"`
	Ph   string             `json:"ph"`
	TS   float64            `json:"ts"`
	Dur  float64            `json:"dur,omitempty"`
	PID  int                `json:"pid"`
	TID  int                `json:"tid"`
	Args map[string]float64 `json:"args,omitempty"`
}

// writeFiles writes <dir>/<workload>.spans.jsonl (one span or counter
// sample per line) and <dir>/<workload>.trace.json (Chrome trace events).
func (r *recorder) writeFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, r.workload+".spans.jsonl"), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for _, s := range r.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		for _, c := range r.counters {
			if err := enc.Encode(c); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	events := make([]chromeEvent, 0, len(r.spans)+len(r.counters))
	for _, s := range r.spans {
		events = append(events, chromeEvent{Name: s.Name, Ph: "X", TS: s.StartUS, Dur: s.EndUS - s.StartUS, PID: 1, TID: 1})
	}
	for _, c := range r.counters {
		events = append(events, chromeEvent{Name: c.Name, Ph: "C", TS: c.AtUS, PID: 1, TID: 1, Args: map[string]float64{"value": c.Value}})
	}
	return writeFile(filepath.Join(dir, r.workload+".trace.json"), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	})
}

// writeFile creates path, hands a buffered writer to fill, and reports the
// first of the fill, flush and close errors.
func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := fill(bw); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
