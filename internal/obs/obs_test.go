package obs

import (
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the exact exposition bytes for a small
// registry covering every instrument type, label rendering, and the
// cumulative histogram encoding — the format contract /metrics serves.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_events_total", "Events seen.", "engine", "boyd", "category", "near").Add(7)
	r.Counter("app_events_total", "Events seen.", "engine", "boyd", "category", "far").Add(2)
	r.Gauge("app_temperature", "Current temperature.").Set(1.5)
	h := r.Histogram("app_hops", "Hop cost.", []float64{1, 4, 16})
	h.Observe(1)
	h.Observe(3)
	h.Observe(99)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_events_total Events seen.
# TYPE app_events_total counter
app_events_total{category="far",engine="boyd"} 2
app_events_total{category="near",engine="boyd"} 7
# HELP app_hops Hop cost.
# TYPE app_hops histogram
app_hops_bucket{le="1"} 1
app_hops_bucket{le="4"} 2
app_hops_bucket{le="16"} 2
app_hops_bucket{le="+Inf"} 3
app_hops_sum 103
app_hops_count 3
# HELP app_temperature Current temperature.
# TYPE app_temperature gauge
app_temperature 1.5
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHistogramInvariants checks the bucket algebra under arbitrary
// observations: cumulative counts are monotone, the +Inf bucket equals
// the observation count, and the sum tracks the inputs.
func TestHistogramInvariants(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("inv_hops", "h", []float64{1, 2, 4, 8})
	vals := []float64{0, 1, 1.5, 2, 3, 7, 8, 9, 1000}
	var sum float64
	for _, v := range vals {
		h.Observe(v)
		sum += v
	}
	if h.Count() != uint64(len(vals)) {
		t.Fatalf("count %d, want %d", h.Count(), len(vals))
	}
	if h.Sum() != sum {
		t.Fatalf("sum %v, want %v", h.Sum(), sum)
	}
	// Cumulative bucket counts from the flattened view must be monotone
	// and end at the observation count.
	flat := r.Flatten()
	bounds := []string{`le="1"`, `le="2"`, `le="4"`, `le="8"`, `le="+Inf"`}
	wantCum := []float64{2, 4, 5, 7, 9} // 0,1 | 1.5,2 | 3 | 7,8 | 9,1000
	prev := -1.0
	for i, le := range bounds {
		got := flat["inv_hops_bucket{"+le+"}"]
		if got != wantCum[i] {
			t.Errorf("bucket %s = %v, want %v", le, got, wantCum[i])
		}
		if got < prev {
			t.Errorf("bucket %s = %v not monotone (prev %v)", le, got, prev)
		}
		prev = got
	}
	if flat["inv_hops_count"] != float64(len(vals)) {
		t.Errorf("flattened count %v, want %d", flat["inv_hops_count"], len(vals))
	}
	// Descending bucket bounds are a programming error, caught loudly.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("descending buckets not rejected")
			}
		}()
		r.Histogram("bad", "b", []float64{4, 2})
	}()
}

// TestLabelEscaping pins the text-format escaping rules for label values
// (backslash, quote, newline) and HELP text.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "Help with \\ and\nnewline.", "path", "a\\b\"c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `# HELP esc_total Help with \\ and\nnewline.`) {
		t.Errorf("HELP not escaped:\n%s", out)
	}
	if !strings.Contains(out, `esc_total{path="a\\b\"c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

// TestRegistryTypeMismatchPanics: one name, one type.
func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("type mismatch not rejected")
		}
	}()
	r.Gauge("x_total", "x")
}

// TestFlattenExcludesScrapeState: gauges and histogram float sums are
// scrape-time state and must not leak into the deterministic view.
func TestFlattenExcludesScrapeState(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "c").Add(3)
	r.Gauge("g", "g").Set(7)
	r.Histogram("h", "h", []float64{1}).Observe(0.5)
	collectorRan := false
	r.OnScrape(func() { collectorRan = true })

	flat := r.Flatten()
	if collectorRan {
		t.Error("Flatten ran scrape collectors")
	}
	if _, ok := flat["g"]; ok {
		t.Error("gauge leaked into Flatten")
	}
	if _, ok := flat["h_sum"]; ok {
		t.Error("histogram sum leaked into Flatten")
	}
	if flat["c_total"] != 3 || flat["h_count"] != 1 {
		t.Errorf("flatten values wrong: %v", flat)
	}

	vals := r.Values()
	if !collectorRan {
		t.Error("Values did not run scrape collectors")
	}
	if vals["g"] != 7 || vals["h_sum"] != 0.5 {
		t.Errorf("values missing scrape state: %v", vals)
	}
}

// TestHandler serves the registry over HTTP and checks the content type
// and a sample line — the /metrics contract.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total", "h", "engine", "boyd").Add(5)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if !strings.Contains(b.String(), `h_total{engine="boyd"} 5`) {
		t.Errorf("metric missing from response:\n%s", b.String())
	}
}

// TestScopeMemoized: one scope per engine label, shared instruments.
func TestScopeMemoized(t *testing.T) {
	r := NewRegistry()
	a, b := r.Scope("boyd"), r.Scope("boyd")
	if a != b {
		t.Error("scope not memoized")
	}
	if r.Scope("geographic") == a {
		t.Error("distinct engines share a scope")
	}
	var ta, tb Tally
	ta.Loss(3)
	tb.Loss(2)
	a.EndRun(&ta, 0, 0, 0, 0, 0, false, 0)
	b.EndRun(&tb, 0, 0, 0, 0, 0, false, 0)
	flat := r.Flatten()
	if flat[`geogossip_losses_total{engine="boyd"}`] != 2 {
		t.Errorf("shared loss counter: %v", flat)
	}
	if flat[`geogossip_loss_transmissions_total{engine="boyd"}`] != 5 {
		t.Errorf("shared loss cost counter: %v", flat)
	}
}

// TestScopeEndRun checks the run-end flush lands on every instrument,
// the run's tally included.
func TestScopeEndRun(t *testing.T) {
	r := NewRegistry()
	s := r.Scope("async")
	var first, second Tally
	first.FarExchange(24)
	first.AddFarExchanges(5)
	first.Reelection()
	second.Resync()
	second.Churn(true)
	second.Churn(false)
	second.Retransmit()
	second.ARQTimeout()
	second.ARQTimeout()
	second.BackoffWait(3)
	second.DeliveryLatency(0.5)
	s.EndRun(&first, 10, 20, 30, 40, 99, true, 1e-4)
	s.EndRun(&second, 1, 2, 3, 4, 1, false, 0.5)
	flat := r.Flatten()
	checks := map[string]float64{
		`geogossip_transmissions_total{category="near",engine="async"}`:    11,
		`geogossip_transmissions_total{category="far",engine="async"}`:     22,
		`geogossip_transmissions_total{category="control",engine="async"}`: 33,
		`geogossip_transmissions_total{category="flood",engine="async"}`:   44,
		`geogossip_ticks_total{engine="async"}`:                            100,
		`geogossip_runs_total{engine="async"}`:                             2,
		`geogossip_runs_converged_total{engine="async"}`:                   1,
		`geogossip_far_exchanges_total{engine="async"}`:                    6,
		`geogossip_far_exchange_hops_count{engine="async"}`:                1,
		`geogossip_far_exchange_hops_bucket{engine="async",le="16"}`:       0,
		`geogossip_far_exchange_hops_bucket{engine="async",le="32"}`:       1,
		`geogossip_reelections_total{engine="async"}`:                      1,
		`geogossip_resyncs_total{engine="async"}`:                          1,
		`geogossip_churn_revivals_total{engine="async"}`:                   1,
		`geogossip_churn_crashes_total{engine="async"}`:                    1,
		`geogossip_arq_retransmissions_total{engine="async"}`:              1,
		`geogossip_arq_timeouts_total{engine="async"}`:                     2,
		`geogossip_arq_backoff_wait_bucket{engine="async",le="1"}`:         0,
		`geogossip_arq_backoff_wait_bucket{engine="async",le="4"}`:         1,
		`geogossip_delivery_latency_bucket{engine="async",le="0.25"}`:      0,
		`geogossip_delivery_latency_bucket{engine="async",le="1"}`:         1,
		`geogossip_delivery_latency_count{engine="async"}`:                 1,
	}
	for k, want := range checks {
		if flat[k] != want {
			t.Errorf("%s = %v, want %v", k, flat[k], want)
		}
	}
	if got := s.farHops.Sum(); got != 24 {
		t.Errorf("far-hop sum %v, want 24", got)
	}
}

// TestTallyFlushMatchesPerEventObserve: flushing a tally once leaves the
// same Flatten view as observing each event on the instruments directly,
// on every bucket boundary and past the last one.
func TestTallyFlushMatchesPerEventObserve(t *testing.T) {
	flushed, direct := NewRegistry(), NewRegistry()
	s, d := flushed.Scope("boyd"), direct.Scope("boyd")
	var tally Tally
	for _, v := range []float64{0, 0.25, 0.3, 1, 3.9, 4, 4.1, 4096, 5000} {
		tally.DeliveryLatency(v)
		d.deliveryLat.Observe(v)
		tally.BackoffWait(2 * v)
		d.backoffWait.Observe(2 * v)
	}
	for _, hops := range []int{0, 1, 2, 3, 256, 257, 1000} {
		tally.FarExchange(hops)
		d.farExchanges.Inc()
		d.farHops.Observe(float64(hops))
	}
	s.EndRun(&tally, 1, 2, 3, 4, 5, true, 1e-3)
	d.EndRun(nil, 1, 2, 3, 4, 5, true, 1e-3)
	if f, g := flushed.Flatten(), direct.Flatten(); !reflect.DeepEqual(f, g) {
		t.Fatalf("flushed tally differs from per-event observation:\nflushed: %v\ndirect:  %v", f, g)
	}
}

// TestNaNLandsInInfBucketOnly: a NaN observation is at or below no bound,
// so no finite cumulative bucket may count it — in particular a NaN
// final error must not read as converged below 1e-8 — on the histogram
// and on the tally alike.
func TestNaNLandsInInfBucketOnly(t *testing.T) {
	r := NewRegistry()
	s := r.Scope("affine-async")
	var tally Tally
	tally.DeliveryLatency(math.NaN())
	tally.FarExchange(0)
	s.EndRun(&tally, 0, 0, 0, 0, 0, false, math.NaN())
	flat := r.Flatten()
	for _, le := range ErrBuckets {
		k := `geogossip_run_final_error_bucket{engine="affine-async",le="` + formatFloat(le) + `"}`
		if flat[k] != 0 {
			t.Errorf("%s = %v, want 0 for a NaN final error", k, flat[k])
		}
	}
	if got := flat[`geogossip_run_final_error_bucket{engine="affine-async",le="+Inf"}`]; got != 1 {
		t.Errorf("NaN final error missing from the +Inf bucket: %v", got)
	}
	for _, le := range LatencyBuckets {
		k := `geogossip_delivery_latency_bucket{engine="affine-async",le="` + formatFloat(le) + `"}`
		if flat[k] != 0 {
			t.Errorf("%s = %v, want 0 for a NaN latency", k, flat[k])
		}
	}
	if got := flat[`geogossip_delivery_latency_count{engine="affine-async"}`]; got != 1 {
		t.Errorf("NaN latency count %v, want 1", got)
	}
	if got := bucketIndex(ErrBuckets, math.Inf(1)); got != len(ErrBuckets) {
		t.Errorf("+Inf in bucket %d, want %d", got, len(ErrBuckets))
	}
	if got := bucketIndex(ErrBuckets, math.Inf(-1)); got != 0 {
		t.Errorf("-Inf in bucket %d, want 0", got)
	}
}

// TestNilScopeIsFree pins the zero-overhead contract (DESIGN.md §8): a
// nil scope's flush and a nil tally's counts cost zero allocations.
func TestNilScopeIsFree(t *testing.T) {
	var s *Scope
	var tally Tally
	var none *Tally
	if avg := testing.AllocsPerRun(1000, func() {
		tally.Loss(3)
		none.Loss(3)
		none.FarExchange(12)
		none.DeliveryLatency(1)
		s.EndRun(&tally, 1, 2, 3, 4, 5, true, 1e-3)
	}); avg != 0 {
		t.Errorf("nil scope allocated %v per event batch, want 0", avg)
	}
}

// TestLiveScopeAllocFree: counting into a tally and flushing it into a
// live registry allocates nothing.
func TestLiveScopeAllocFree(t *testing.T) {
	r := NewRegistry()
	s := r.Scope("boyd")
	var tally Tally
	if avg := testing.AllocsPerRun(1000, func() {
		tally.Reset()
		tally.Loss(3)
		tally.FarExchange(12)
		tally.Reelection()
		tally.Resync()
		tally.Churn(true)
		tally.Retransmit()
		tally.ARQTimeout()
		tally.BackoffWait(2)
		tally.DeliveryLatency(0.5)
		s.EndRun(&tally, 1, 2, 3, 4, 5, true, 1e-3)
	}); avg != 0 {
		t.Errorf("live scope allocated %v per event batch, want 0", avg)
	}
}

// TestFormatFloat pins the special values the text format requires.
func TestFormatFloat(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{1.5, "1.5"},
		{1e-9, "1e-09"},
		{0, "0"},
	} {
		if got := formatFloat(tc.v); got != tc.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}
