package channel

import (
	"math"
	"reflect"
	"testing"

	"geogossip/internal/geo"
	"geogossip/internal/rng"
)

// randomSpec generates a valid Spec covering the whole grammar —
// loss models, every jamming-field variant, cuts, the transport layer
// (delay distributions, reorder/dup, ARQ), and the three churn targets —
// from a deterministic stream.
func randomSpec(r *rng.RNG) Spec {
	var s Spec
	// probability p in (0, 1] quantized so formatFloat round-trips are
	// exercised on short and long decimal forms alike.
	prob := func() float64 {
		if r.Bernoulli(0.5) {
			return float64(1+r.IntN(99)) / 100
		}
		return r.Float64()
	}
	coord := func() float64 { return r.Float64() }
	switch r.IntN(3) {
	case 1:
		s.Loss = LossBernoulli
		s.LossRate = prob()
	case 2:
		s.Loss = LossGilbertElliott
		s.GE = GEParams{PGoodToBad: prob(), PBadToGood: prob(), LossGood: prob(), LossBad: prob()}
	}
	for k := r.IntN(3); k > 0; k-- {
		f := FieldParams{Kind: FieldDisk, Center: geo.Pt(coord(), coord()), Radius: 0.05 + r.Float64()/2, Loss: prob()}
		switch r.IntN(4) {
		case 1: // one-shot window
			f.From = uint64(r.IntN(1000))
			f.Until = f.From + 1 + uint64(r.IntN(1000))
		case 2: // periodic
			f.From = uint64(r.IntN(1000))
			f.Until = f.From + 1 + uint64(r.IntN(1000))
			f.Period = f.Until - f.From + uint64(r.IntN(1000))
		case 3: // moving (velocity nonzero so the mjam form round-trips)
			f.Vel = geo.Pt(0.001+r.Float64()/100, 0.001+r.Float64()/100)
		}
		if r.Bernoulli(0.2) {
			f = FieldParams{Kind: FieldPolygon, Loss: prob(),
				Poly: []geo.Point{geo.Pt(0.1, 0.1), geo.Pt(coord()/2+0.5, 0.1), geo.Pt(0.5, coord()/2+0.5)}}
		}
		s.Fields = append(s.Fields, f)
	}
	if r.Bernoulli(0.4) {
		from := uint64(r.IntN(1000))
		s.Cut = CutParams{A: coord() + 0.1, B: coord(), C: coord(), From: from, Until: from + 1 + uint64(r.IntN(1000))}
	}
	switch r.IntN(4) {
	case 1:
		s.Delay = DelayParams{Kind: DelayFixed, A: 0.01 + r.Float64()*10}
	case 2:
		lo := r.Float64()
		s.Delay = DelayParams{Kind: DelayUniform, A: lo, B: lo + 0.01 + r.Float64()*5}
	case 3:
		s.Delay = DelayParams{Kind: DelayExp, A: 0.01 + r.Float64()*10}
	}
	if !s.Delay.IsZero() && r.Bernoulli(0.4) {
		s.Reorder = prob()
	}
	if r.Bernoulli(0.3) {
		s.Dup = prob()
	}
	if r.Bernoulli(0.4) {
		s.ARQ = ARQParams{Retries: 1 + r.IntN(8), Timeout: r.Float64() * 100, Backoff: 1 + r.Float64()*3}
	}
	if r.Bernoulli(0.6) {
		s.Churn = ChurnParams{MeanUp: 1 + r.Float64()*1e5, MeanDown: r.Float64() * 1e4}
		switch r.IntN(3) {
		case 1:
			s.ChurnTarget = TargetReps
		case 2:
			s.ChurnTarget = TargetHubs
			s.HubCount = 1 + r.IntN(40)
		}
	}
	return s
}

// TestSpecRoundTripProperty: every generated spec must survive
// print → parse → print unchanged — the serialization is lossless over
// the full grammar, spatial forms included.
func TestSpecRoundTripProperty(t *testing.T) {
	r := rng.New(20260729)
	for i := 0; i < 2000; i++ {
		s := randomSpec(r)
		if err := s.Validate(); err != nil {
			t.Fatalf("case %d: generated invalid spec %+v: %v", i, s, err)
		}
		text := s.String()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("case %d: Parse(String(%+v) = %q): %v", i, s, text, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("case %d: round trip %q changed the spec:\n have %+v\n want %+v", i, text, back, s)
		}
		if again := back.String(); again != text {
			t.Fatalf("case %d: second print differs: %q -> %q", i, text, again)
		}
	}
}

// TestComposeMatchesParse: composing two specs is what Parse does with
// their texts joined by "+" — both fail, or both return the same spec.
func TestComposeMatchesParse(t *testing.T) {
	r := rng.New(20261018)
	composed := 0
	for i := 0; i < 2000; i++ {
		a, b := randomSpec(r), randomSpec(r)
		got, err := a.Compose(b)
		text := a.String() + "+" + b.String()
		want, perr := Parse(text)
		if (err == nil) != (perr == nil) {
			t.Fatalf("case %d: Compose error %v, Parse(%q) error %v", i, err, text, perr)
		}
		if err != nil {
			continue
		}
		composed++
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: %q composed to\n have %+v\n want %+v", i, text, got, want)
		}
	}
	if composed == 0 {
		t.Fatal("no generated pair composed")
	}
}

// FuzzSpecRoundTrip feeds arbitrary text to Parse; whatever it accepts
// must re-serialize to a fixed point (one canonicalizing round allowed
// for alternative spellings like "loss:" or ".2").
func FuzzSpecRoundTrip(f *testing.F) {
	for _, seed := range []string{
		"perfect",
		"bernoulli:0.2",
		"loss:.5",
		"ge:0.05/0.2/0.01/0.6",
		"churn:50000/10000",
		"repchurn:50000/0",
		"hubchurn:1000/500/8",
		"jam:0.5/0.5/0.2/0.9",
		"jam:0.25/0.75/0.1/1/100/200",
		"jam:0.25/0.75/0.1/1/100/200/1000",
		"mjam:0.5/0.5/0.15/0.8/0.0001/0.00005",
		"jampoly:0.7/0.2/0.2/0.8/0.2/0.5/0.8",
		"cut:1/0/0.5/1000/2000",
		"bernoulli:0.1+jam:0.5/0.5/0.2/0.9+cut:0/1/0.3/5/50+repchurn:1e4/1e3",
		"delay:fixed/0.1",
		"delay:uniform/0.1/0.3",
		"delay:exp/0.5",
		"delay:exp/0.5+reorder:0.1",
		"dup:0.05",
		"arq:3/0.5/2",
		"arq:2/0/1",
		"ge:0.05/0.3/0.01/0.8+delay:exp/0.5+reorder:0.05+dup:0.02+arq:3/2/2+churn:5e4/1e4",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return // rejected input is fine; accepted input must round-trip
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Parse(%q) returned invalid spec %+v: %v", text, s, err)
		}
		canon := s.String()
		back, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) -> String %q does not re-parse: %v", text, canon, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("Parse(%q): canonical form %q parses to a different spec", text, canon)
		}
		if again := back.String(); again != canon {
			t.Fatalf("Parse(%q): String not a fixed point: %q -> %q", text, canon, again)
		}
		// Estimated loss must be a valid probability for every accepted spec.
		if p := s.ExpectedLossRate(); math.IsNaN(p) || p < 0 || p > 1 {
			t.Fatalf("Parse(%q): expected loss rate %v outside [0, 1]", text, p)
		}
	})
}
