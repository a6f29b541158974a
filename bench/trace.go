package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call; Parent 0 marks a root.
type span struct {
	ID       int            `json:"id"`
	Parent   int            `json:"parent"`
	Name     string         `json:"name"`
	Workload string         `json:"workload"`
	Start    int64          `json:"start_ns"`
	End      int64          `json:"end_ns"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Times are
// nanoseconds since the tracer was made. A nil tracer records nothing, so
// untraced code paths call it unconditionally.
type tracer struct {
	workload string
	epoch    time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, name string, attrs map[string]any) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload, Start: now, Attrs: attrs})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// timed runs fn as a span under parent and returns how long it took.
func (t *tracer) timed(parent int, name string, attrs map[string]any, fn func()) time.Duration {
	id := t.begin(parent, name, attrs)
	start := time.Now()
	fn()
	took := time.Since(start)
	t.end(id)
	return took
}

// total returns the summed duration of every span called name, in
// seconds.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s time.Duration
	for _, sp := range t.spans {
		if sp.Name == name {
			s += sp.dur()
		}
	}
	return s.Seconds()
}

// write emits the spans as JSON lines.
func (t *tracer) write(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
	}
	return nil
}

// closedLoop calls fn(slot, i) for every i in [0, n) from `workers`
// goroutines: each takes the next index as soon as its previous call
// returns, so no more than `workers` calls are ever in flight. It returns
// once every call has.
func closedLoop(workers, n int, fn func(slot, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for slot := 0; slot < workers; slot++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(slot, i)
			}
		}()
	}
	wg.Wait()
}
