// Package obs is the repository's observability layer: a small,
// dependency-free metrics registry (counters, gauges, histograms) with
// hand-rolled Prometheus text exposition, a deterministic flattened view
// for result aggregation, and the per-engine instruments (Scope) that
// engine runs report into.
//
// The zero-overhead contract (DESIGN.md §8): engines count per-event
// quantities — losses, resyncs, re-elections, churn transitions,
// long-range exchanges, ARQ retries, delivery latencies — in a plain
// per-run Tally, and keep their transmission, tick and convergence
// totals in their own counters. One Scope.EndRun call per run adds both
// to the shared instruments with atomics, so no tick and no event pays
// an atomic add. A nil *Scope makes EndRun one branch; a nil *Registry
// is simply never consulted.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The zero value reads 0.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the gauge (lock-free CAS loop).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into cumulative le-buckets, Prometheus
// style. Bucket counts and the observation count are exact under
// concurrency; the float sum uses a CAS loop (its value is
// scrape-accurate but accumulation-order dependent, which is why Flatten
// excludes it).
type Histogram struct {
	upper   []float64 // ascending upper bounds; the +Inf bucket is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     Gauge
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.buckets[bucketIndex(h.upper, v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// add records a run's tally share of observations: one atomic add per
// non-empty bucket, then the count and the sum.
func (h *Histogram) add(t *tallyHist) {
	var count uint64
	for i, c := range t.n[:len(h.buckets)] {
		if c > 0 {
			h.buckets[i].Add(c)
			count += c
		}
	}
	if count > 0 {
		h.count.Add(count)
		h.sum.Add(t.sum)
	}
}

// bucketIndex returns the bucket v falls in: the first bound at or above
// v, or len(upper), the +Inf bucket, past the last one. NaN is at or
// below no bound, so it lands in the +Inf bucket only and no cumulative
// bucket below it counts it. Histogram and Tally share it.
func bucketIndex(upper []float64, v float64) int {
	i := 0
	for i < len(upper) && !(v <= upper[i]) {
		i++
	}
	return i
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the running sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

type metricType int

const (
	counterType metricType = iota + 1
	gaugeType
	histogramType
)

func (t metricType) String() string {
	switch t {
	case counterType:
		return "counter"
	case gaugeType:
		return "gauge"
	case histogramType:
		return "histogram"
	default:
		return "untyped"
	}
}

// series is one labelled instrument inside a family; exactly one of
// c/g/h is set, matching the family's type.
type series struct {
	labels string // rendered, sorted `k="v"` pairs joined by ","; "" when unlabelled
	// keys are the series' scalar names, rendered once at registration:
	// a counter's or gauge's own name; a histogram's bucket names in
	// bound order, then its +Inf bucket, count and sum names.
	keys []string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

type family struct {
	name, help string
	typ        metricType
	upper      []float64 // histogram families: the shared bucket bounds
	series     map[string]*series
}

// Registry holds metric families and serves them as Prometheus text
// exposition, a deterministic flattened map, or a scrape-time values
// map. The zero value is not usable; call NewRegistry. All methods are
// safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	// all holds every series in registration order, and flatKeys the
	// number of keys Flatten reports for them.
	all        []*series
	flatKeys   int
	collectors []*func()
	scopes     map[string]*Scope
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		scopes:   make(map[string]*Scope),
	}
}

// OnScrape registers fn to run before every exposition (WritePrometheus,
// Values, Handler) — the hook lazy metrics (cache hit rates, runtime
// stats) refresh through. fn runs outside the registry lock, so it may
// register and update metrics freely. The returned function removes fn
// again: a collector that holds a finished run's state must be removed,
// or a long-lived registry keeps that state reachable and runs fn on
// every later scrape.
func (r *Registry) OnScrape(fn func()) (remove func()) {
	p := &fn
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, p)
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.collectors = slices.DeleteFunc(r.collectors, func(q *func()) bool { return q == p })
	}
}

func (r *Registry) runCollectors() {
	r.mu.Lock()
	fns := slices.Clone(r.collectors)
	r.mu.Unlock()
	for _, fn := range fns {
		(*fn)()
	}
}

// lookup returns (creating if needed) the series for (name, labels),
// validating type consistency. labels alternate key, value.
func (r *Registry) lookup(name, help string, typ metricType, upper []float64, labels []string) *series {
	rendered := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, upper: upper, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	s := f.series[rendered]
	if s == nil {
		s = &series{labels: rendered}
		switch typ {
		case counterType:
			s.c = &Counter{}
			s.keys = []string{seriesName(name, rendered, "")}
			r.flatKeys++
		case gaugeType:
			s.g = &Gauge{}
			s.keys = []string{seriesName(name, rendered, "")}
		case histogramType:
			s.h = &Histogram{upper: f.upper, buckets: make([]atomic.Uint64, len(f.upper)+1)}
			for _, ub := range f.upper {
				s.keys = append(s.keys, seriesName(name+"_bucket", rendered, `le="`+formatFloat(ub)+`"`))
			}
			s.keys = append(s.keys, seriesName(name+"_bucket", rendered, `le="+Inf"`),
				seriesName(name+"_count", rendered, ""), seriesName(name+"_sum", rendered, ""))
			r.flatKeys += len(f.upper) + 2
		}
		f.series[rendered] = s
		r.all = append(r.all, s)
	}
	return s
}

// Counter registers (or returns the existing) counter under name with
// the given label pairs (key, value, key, value, ...). Registering the
// same (name, labels) twice returns the same instrument.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.lookup(name, help, counterType, nil, labels).c
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.lookup(name, help, gaugeType, nil, labels).g
}

// Histogram registers (or returns the existing) histogram with the given
// ascending upper bounds (+Inf is implicit). The first registration of a
// name fixes the family's buckets; later series share them.
func (r *Registry) Histogram(name, help string, upper []float64, labels ...string) *Histogram {
	for i := 1; i < len(upper); i++ {
		if upper[i] <= upper[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
		}
	}
	return r.lookup(name, help, histogramType, append([]float64(nil), upper...), labels).h
}

// renderLabels renders alternating key/value pairs as sorted, escaped
// `k="v"` terms joined by commas.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: odd label list (want key, value pairs)")
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format:
// backslash, double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string (backslash and newline only).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// snapshot returns the families sorted by name and, per family, the
// series sorted by rendered labels — the deterministic iteration every
// exposition uses.
func (r *Registry) snapshot() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func sortedSeries(f *family) []*series {
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].labels < out[j].labels })
	return out
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// seriesName renders `name{labels}` (or bare name when unlabelled),
// optionally splicing an extra pre-rendered term (the histogram le).
func seriesName(name, labels, extra string) string {
	if labels == "" && extra == "" {
		return name
	}
	terms := labels
	if extra != "" {
		if terms != "" {
			terms += ","
		}
		terms += extra
	}
	return name + "{" + terms + "}"
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, series sorted by
// labels, histogram buckets cumulative with an explicit +Inf. Scrape
// collectors run first.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.runCollectors()
	var b strings.Builder
	for _, f := range r.snapshot() {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range sortedSeries(f) {
			switch f.typ {
			case counterType:
				fmt.Fprintf(&b, "%s %d\n", s.keys[0], s.c.Value())
			case gaugeType:
				fmt.Fprintf(&b, "%s %s\n", s.keys[0], formatFloat(s.g.Value()))
			case histogramType:
				var cum uint64
				for i := range s.h.upper {
					cum += s.h.buckets[i].Load()
					fmt.Fprintf(&b, "%s %d\n", s.keys[i], cum)
				}
				count := s.h.Count()
				k := len(s.h.upper)
				fmt.Fprintf(&b, "%s %d\n", s.keys[k], count)
				fmt.Fprintf(&b, "%s %s\n", s.keys[k+2], formatFloat(s.h.Sum()))
				fmt.Fprintf(&b, "%s %d\n", s.keys[k+1], count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Flatten returns the registry's deterministic scalar view: counter
// values plus histogram cumulative bucket counts and observation counts,
// keyed by their exposition name. Gauges and histogram float sums are
// deliberately excluded — gauges are scrape-time state and float sums
// accumulate in worker order, and Flatten feeds the sweep's
// bit-identical aggregation (SweepReport.Metrics, Result.Metrics).
// Collectors do not run. Every key was rendered when its series was
// registered, so a call costs one map entry per key and nothing more: a
// sweep executor takes one per task for its metric deltas.
func (r *Registry) Flatten() map[string]float64 {
	all, n := r.series()
	out := make(map[string]float64, n)
	for _, s := range all {
		switch {
		case s.c != nil:
			out[s.keys[0]] = float64(s.c.Value())
		case s.h != nil:
			s.h.flatten(out, s.keys)
		}
	}
	return out
}

// series returns every series in registration order and Flatten's key
// count. Series are only ever appended, so the slice stays valid
// outside the lock.
func (r *Registry) series() ([]*series, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.all, r.flatKeys
}

// flatten writes h's cumulative bucket counts and its observation count
// into out under keys (see series.keys).
func (h *Histogram) flatten(out map[string]float64, keys []string) {
	var cum uint64
	for i := range h.upper {
		cum += h.buckets[i].Load()
		out[keys[i]] = float64(cum)
	}
	count := h.Count()
	out[keys[len(h.upper)]] = float64(count)
	out[keys[len(h.upper)+1]] = float64(count)
}

// Values returns every scalar the registry holds — counters, gauges,
// histogram buckets, counts, and sums — after running scrape collectors.
// Unlike Flatten the result is scrape-time state, not deterministic.
func (r *Registry) Values() map[string]float64 {
	r.runCollectors()
	out := r.Flatten()
	all, _ := r.series()
	for _, s := range all {
		switch {
		case s.g != nil:
			out[s.keys[0]] = s.g.Value()
		case s.h != nil:
			out[s.keys[len(s.keys)-1]] = s.h.Sum()
		}
	}
	return out
}

// Handler serves the registry as a Prometheus /metrics endpoint.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
