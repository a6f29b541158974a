package channel

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"geogossip/internal/geo"
	"geogossip/internal/obs"
	"geogossip/internal/rng"
	"geogossip/internal/trace"
)

// LossModel enumerates the packet-loss processes a Spec can select.
type LossModel int

const (
	// LossNone delivers every packet (between live nodes).
	LossNone LossModel = iota
	// LossBernoulli loses packets i.i.d. with Spec.LossRate.
	LossBernoulli
	// LossGilbertElliott loses packets in bursts per Spec.GE.
	LossGilbertElliott
)

// String implements fmt.Stringer.
func (m LossModel) String() string {
	switch m {
	case LossNone:
		return "perfect"
	case LossBernoulli:
		return "bernoulli"
	case LossGilbertElliott:
		return "gilbert-elliott"
	default:
		return fmt.Sprintf("loss-model(%d)", int(m))
	}
}

// Target selects which nodes a churn component may kill.
type Target int

const (
	// TargetAll churns every node uniformly (the default).
	TargetAll Target = iota
	// TargetReps churns only hierarchy representatives — the adversarial
	// model aimed at the nodes the paper's protocol routes everything
	// through. Requires Env.Reps at Build time.
	TargetReps
	// TargetHubs churns only the Spec.HubCount highest-degree nodes.
	// Requires Env.HubOrder at Build time.
	TargetHubs
)

// String implements fmt.Stringer.
func (t Target) String() string {
	switch t {
	case TargetAll:
		return "all"
	case TargetReps:
		return "reps"
	case TargetHubs:
		return "hubs"
	default:
		return fmt.Sprintf("target(%d)", int(t))
	}
}

// Spec is a declarative, serializable fault-model description: a loss
// process, optional spatial jamming fields, an optional partition/heal
// cut, and optional (possibly targeted) node churn. The zero Spec is the
// perfect medium. Specs travel through facade options, sweep axes, and
// CLI flags; Build turns one into a live Medium wired to an engine's
// RNG streams and network context.
type Spec struct {
	// Loss selects the packet-loss process.
	Loss LossModel
	// LossRate is the i.i.d. loss probability (LossBernoulli only).
	LossRate float64
	// GE parameterizes burst loss (LossGilbertElliott only).
	GE GEParams
	// Fields lists spatial jamming regions overlaid on the loss process.
	Fields []FieldParams
	// Cut severs delivery across a line for a time window, then heals.
	Cut CutParams
	// Churn overlays crash-stop node failure when Churn.MeanUp > 0.
	Churn ChurnParams
	// ChurnTarget restricts churn to a node class (TargetAll is uniform).
	ChurnTarget Target
	// HubCount is the number of highest-degree nodes TargetHubs churns.
	HubCount int

	// Transport-reliability layer (DESIGN.md §12). All zero by default:
	// instantaneous, single-shot delivery, the historical model.

	// Delay selects a per-hop transport delay distribution.
	Delay DelayParams
	// Reorder delivers packets out of order with this probability (the
	// straggler waits out one extra medium traversal); requires Delay.
	Reorder float64
	// Dup duplicates delivered packets with this probability, charging
	// the duplicate copy's airtime.
	Dup float64
	// ARQ enables transport-level retransmission when ARQ.Retries > 0.
	ARQ ARQParams
}

// IsZero reports whether the spec is the perfect medium.
func (s Spec) IsZero() bool {
	return s.Loss == LossNone && !s.HasChurn() && !s.Spatial() && !s.HasTransport()
}

// HasTransport reports whether the spec has transport-reliability
// components (delay, reorder, dup, or ARQ) — the layer that activates
// the run's Timeline and SimSeconds accounting.
func (s Spec) HasTransport() bool {
	return !s.Delay.IsZero() || s.Reorder > 0 || s.Dup > 0 || !s.ARQ.IsZero()
}

// HasDelayLayer reports whether the spec needs the delay stage (a delay
// distribution or a reorder/dup decorator).
func (s Spec) HasDelayLayer() bool {
	return !s.Delay.IsZero() || s.Reorder > 0 || s.Dup > 0
}

// TransportOnly reports whether the spec consists solely of transport
// components — the shape the sweep transport axis composes onto fault
// models.
func (s Spec) TransportOnly() bool {
	return s.HasTransport() && s.Loss == LossNone && len(s.Fields) == 0 &&
		!s.HasCut() && !s.HasChurn()
}

// HasChurn reports whether the spec overlays node churn.
func (s Spec) HasChurn() bool { return s.Churn.MeanUp > 0 }

// HasCut reports whether the spec includes a partition/heal event.
func (s Spec) HasCut() bool { return !s.Cut.IsZero() }

// Spatial reports whether the spec has geometry-dependent components
// (jamming fields or a cut), which require Env.Points at Build time.
func (s Spec) Spatial() bool { return len(s.Fields) > 0 || s.HasCut() }

// TargetsReps reports whether the spec churns hierarchy representatives.
func (s Spec) TargetsReps() bool { return s.HasChurn() && s.ChurnTarget == TargetReps }

// TargetsHubs reports whether the spec churns high-degree hubs.
func (s Spec) TargetsHubs() bool { return s.HasChurn() && s.ChurnTarget == TargetHubs }

// HasLoss reports whether the spec's loss processes (the id-blind model
// or any jamming field) can drop packets between live nodes.
func (s Spec) HasLoss() bool {
	for _, f := range s.Fields {
		if f.Loss > 0 {
			return true
		}
	}
	switch s.Loss {
	case LossBernoulli:
		return s.LossRate > 0
	case LossGilbertElliott:
		return s.GE.LossGood > 0 || s.GE.LossBad > 0
	}
	return false
}

// ExpectedLossRate returns an estimate of the long-run per-packet loss
// probability for uniform traffic: the loss process's stationary rate
// composed (as independent events) with each field's mean loss (loss ×
// area fraction × duty cycle). Cut and churn components are excluded —
// their impact is structural, not a rate.
func (s Spec) ExpectedLossRate() float64 {
	var base float64
	switch s.Loss {
	case LossBernoulli:
		base = s.LossRate
	case LossGilbertElliott:
		base = s.GE.StationaryLoss()
	}
	if len(s.Fields) == 0 {
		return base // exact: no survive-product rounding residue
	}
	survive := 1 - base
	for _, f := range s.Fields {
		survive *= 1 - f.MeanLoss()
	}
	return 1 - survive
}

// Validate reports the first problem with the spec.
func (s Spec) Validate() error {
	if err := s.checkFinite(); err != nil {
		return err
	}
	switch s.Loss {
	case LossNone:
		if s.LossRate != 0 {
			return fmt.Errorf("channel: loss rate %v set without a loss model", s.LossRate)
		}
	case LossBernoulli:
		if s.LossRate < 0 || s.LossRate > 1 {
			return fmt.Errorf("channel: loss rate %v outside [0, 1]", s.LossRate)
		}
	case LossGilbertElliott:
		for _, p := range []struct {
			name string
			v    float64
		}{
			{"good-to-bad transition", s.GE.PGoodToBad},
			{"bad-to-good transition", s.GE.PBadToGood},
			{"good-state loss", s.GE.LossGood},
			{"bad-state loss", s.GE.LossBad},
		} {
			if p.v < 0 || p.v > 1 {
				return fmt.Errorf("channel: gilbert-elliott %s probability %v outside [0, 1]", p.name, p.v)
			}
		}
	default:
		return fmt.Errorf("channel: unknown loss model %d", int(s.Loss))
	}
	for _, f := range s.Fields {
		if err := f.validate(); err != nil {
			return err
		}
	}
	if err := s.Cut.validate(); err != nil {
		return err
	}
	if s.Churn.MeanUp < 0 || s.Churn.MeanDown < 0 {
		return fmt.Errorf("channel: negative churn duration (up %v, down %v)", s.Churn.MeanUp, s.Churn.MeanDown)
	}
	if s.Churn.MeanUp == 0 && s.Churn.MeanDown != 0 {
		return fmt.Errorf("channel: churn mean-down %v set without mean-up", s.Churn.MeanDown)
	}
	switch s.ChurnTarget {
	case TargetAll, TargetReps:
		if s.HubCount != 0 {
			return fmt.Errorf("channel: hub count %d set without hub-targeted churn", s.HubCount)
		}
	case TargetHubs:
		if !s.HasChurn() {
			return fmt.Errorf("channel: hub-targeted churn without a churn component")
		}
		if s.HubCount <= 0 {
			return fmt.Errorf("channel: hub-targeted churn needs a positive hub count, got %d", s.HubCount)
		}
	default:
		return fmt.Errorf("channel: unknown churn target %d", int(s.ChurnTarget))
	}
	if s.ChurnTarget == TargetReps && !s.HasChurn() {
		return fmt.Errorf("channel: rep-targeted churn without a churn component")
	}
	if err := s.Delay.validate(); err != nil {
		return err
	}
	if s.Reorder < 0 || s.Reorder > 1 {
		return fmt.Errorf("channel: reorder probability %v outside [0, 1]", s.Reorder)
	}
	if s.Reorder > 0 && s.Delay.IsZero() {
		return fmt.Errorf("channel: reorder component without a delay distribution to draw the straggler penalty from")
	}
	if s.Dup < 0 || s.Dup > 1 {
		return fmt.Errorf("channel: dup probability %v outside [0, 1]", s.Dup)
	}
	if err := s.ARQ.validate(); err != nil {
		return err
	}
	return nil
}

// checkFinite rejects a NaN or ±Inf float parameter, the rule Parse
// applies to spec text, so a Spec built in code obeys it too. The range
// checks in Validate assume finite values: NaN fails every comparison,
// so it passes a two-sided bound, and +Inf passes a one-sided one.
func (s Spec) checkFinite() error {
	if err := finite("loss rate", s.LossRate); err != nil {
		return err
	}
	if err := finite("gilbert-elliott probability", s.GE.PGoodToBad, s.GE.PBadToGood, s.GE.LossGood, s.GE.LossBad); err != nil {
		return err
	}
	for _, f := range s.Fields {
		if err := finite("field parameter", f.Center.X, f.Center.Y, f.Radius, f.Loss, f.Vel.X, f.Vel.Y); err != nil {
			return err
		}
		for _, v := range f.Poly {
			if err := finite("field polygon vertex", v.X, v.Y); err != nil {
				return err
			}
		}
	}
	if err := finite("cut line coefficient", s.Cut.A, s.Cut.B, s.Cut.C); err != nil {
		return err
	}
	if err := finite("churn duration", s.Churn.MeanUp, s.Churn.MeanDown); err != nil {
		return err
	}
	if err := finite("delay parameter", s.Delay.A, s.Delay.B); err != nil {
		return err
	}
	if err := finite("reorder/dup probability", s.Reorder, s.Dup); err != nil {
		return err
	}
	return finite("arq timeout/backoff", s.ARQ.Timeout, s.ARQ.Backoff)
}

// finite returns an error naming what when any of vs is NaN or ±Inf.
func finite(what string, vs ...float64) error {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("channel: %s %v is not finite", what, v)
		}
	}
	return nil
}

// Env supplies the network context a spec binds to at Build time, and
// the run-local state the transport stages write to: the engine's
// timeline, its per-run metrics tally and its tracer. The zero Env
// suits every non-spatial, non-targeted spec; spatial and targeted
// components fail Build with a descriptive error when their context is
// missing, so an engine that cannot provide (say) hierarchy
// representatives rejects rep-targeted specs instead of silently running
// them as uniform churn. Transport components without a Timeline or a
// Tally still decide, draw and charge as usual; their latency and
// counts are discarded.
type Env struct {
	// Points holds the node positions (required by jamming fields and
	// cuts — every Packet the engine submits must carry positions from
	// the same table).
	Points []geo.Point
	// Reps lists the hierarchy-representative node ids (required by
	// rep-targeted churn). The set is frozen at Build time: the attack
	// targets the nodes holding rep roles when the run starts, so a
	// successor installed by re-election is outside it and will not
	// crash — rep churn models a one-shot decapitation strike, not an
	// adversary that perpetually chases the role.
	Reps []int32
	// HubOrder lists node ids in descending degree order, ties broken by
	// id (required by hub-targeted churn, which kills the first HubCount
	// entries).
	HubOrder []int32
	// Timeline receives the transport layer's latency and completion
	// times (specs with delay/arq components). Nil discards latency —
	// delivery verdicts, draws and charges are unaffected.
	Timeline *Timeline
	// Tally optionally counts transport metrics (retransmissions,
	// timeouts, backoff waits, delivery latency) in the run's per-run
	// tally, which the engine flushes once at run end; nil discards them.
	Tally *obs.Tally
	// Tracer optionally receives transport events (retransmit, timeout).
	Tracer trace.Tracer
}

// Build turns the spec into a live Medium over n nodes: BuildWith on a
// fresh Pool.
func (s Spec) Build(n int, env Env, lossRNG, churnRNG *rng.RNG) (*Medium, error) {
	return s.BuildWith(nil, n, env, lossRNG, churnRNG)
}

// String renders the spec in the compact form Parse accepts. Components
// print in canonical order — loss model, jamming fields (in declaration
// order), cut, delay, reorder, dup, arq, churn — joined by "+":
//
//	perfect
//	bernoulli:P
//	ge:PGB/PBG/EG/EB
//	jam:CX/CY/R/LOSS[/FROM/UNTIL[/PERIOD]]
//	mjam:CX/CY/R/LOSS/VX/VY
//	jampoly:LOSS/X1/Y1/X2/Y2/X3/Y3[/...]
//	cut:A/B/C/FROM/UNTIL
//	delay:fixed/D | delay:uniform/LO/HI | delay:exp/MEAN
//	reorder:P
//	dup:P
//	arq:RETRIES/TIMEOUT/BACKOFF
//	churn:UP/DOWN | repchurn:UP/DOWN | hubchurn:UP/DOWN/K
//
// e.g. "bernoulli:0.2+jam:0.5/0.5/0.2/0.9+churn:50000/10000" or
// "ge:0.05/0.3/0.01/0.8+delay:exp/0.5+arq:3/2/2".
func (s Spec) String() string {
	var parts []string
	switch s.Loss {
	case LossBernoulli:
		parts = append(parts, "bernoulli:"+formatFloat(s.LossRate))
	case LossGilbertElliott:
		parts = append(parts, fmt.Sprintf("ge:%s/%s/%s/%s",
			formatFloat(s.GE.PGoodToBad), formatFloat(s.GE.PBadToGood),
			formatFloat(s.GE.LossGood), formatFloat(s.GE.LossBad)))
	}
	for _, f := range s.Fields {
		parts = append(parts, formatField(f))
	}
	if s.HasCut() {
		parts = append(parts, fmt.Sprintf("cut:%s/%s/%s/%d/%d",
			formatFloat(s.Cut.A), formatFloat(s.Cut.B), formatFloat(s.Cut.C),
			s.Cut.From, s.Cut.Until))
	}
	switch s.Delay.Kind {
	case DelayFixed:
		parts = append(parts, "delay:fixed/"+formatFloat(s.Delay.A))
	case DelayUniform:
		parts = append(parts, fmt.Sprintf("delay:uniform/%s/%s", formatFloat(s.Delay.A), formatFloat(s.Delay.B)))
	case DelayExp:
		parts = append(parts, "delay:exp/"+formatFloat(s.Delay.A))
	}
	if s.Reorder > 0 {
		parts = append(parts, "reorder:"+formatFloat(s.Reorder))
	}
	if s.Dup > 0 {
		parts = append(parts, "dup:"+formatFloat(s.Dup))
	}
	if !s.ARQ.IsZero() {
		parts = append(parts, fmt.Sprintf("arq:%d/%s/%s",
			s.ARQ.Retries, formatFloat(s.ARQ.Timeout), formatFloat(s.ARQ.Backoff)))
	}
	if s.HasChurn() {
		up, down := formatFloat(s.Churn.MeanUp), formatFloat(s.Churn.MeanDown)
		switch s.ChurnTarget {
		case TargetReps:
			parts = append(parts, fmt.Sprintf("repchurn:%s/%s", up, down))
		case TargetHubs:
			parts = append(parts, fmt.Sprintf("hubchurn:%s/%s/%d", up, down, s.HubCount))
		default:
			parts = append(parts, fmt.Sprintf("churn:%s/%s", up, down))
		}
	}
	if len(parts) == 0 {
		return "perfect"
	}
	return strings.Join(parts, "+")
}

func formatField(f FieldParams) string {
	switch {
	case f.Kind == FieldPolygon:
		var b strings.Builder
		b.WriteString("jampoly:" + formatFloat(f.Loss))
		for _, v := range f.Poly {
			b.WriteString("/" + formatFloat(v.X) + "/" + formatFloat(v.Y))
		}
		return b.String()
	case f.Moving():
		return fmt.Sprintf("mjam:%s/%s/%s/%s/%s/%s",
			formatFloat(f.Center.X), formatFloat(f.Center.Y),
			formatFloat(f.Radius), formatFloat(f.Loss),
			formatFloat(f.Vel.X), formatFloat(f.Vel.Y))
	case f.Period > 0:
		return fmt.Sprintf("jam:%s/%s/%s/%s/%d/%d/%d",
			formatFloat(f.Center.X), formatFloat(f.Center.Y),
			formatFloat(f.Radius), formatFloat(f.Loss), f.From, f.Until, f.Period)
	case f.Scheduled():
		return fmt.Sprintf("jam:%s/%s/%s/%s/%d/%d",
			formatFloat(f.Center.X), formatFloat(f.Center.Y),
			formatFloat(f.Radius), formatFloat(f.Loss), f.From, f.Until)
	default:
		return fmt.Sprintf("jam:%s/%s/%s/%s",
			formatFloat(f.Center.X), formatFloat(f.Center.Y),
			formatFloat(f.Radius), formatFloat(f.Loss))
	}
}

func formatFloat(v float64) string {
	s := strconv.FormatFloat(v, 'g', -1, 64)
	// "+" separates components, so exponent forms like 1e+06 must drop
	// the sign (ParseFloat accepts 1e06). Found by FuzzSpecRoundTrip.
	return strings.ReplaceAll(s, "e+", "e")
}

// Compose returns the medium s and o describe together: the one rule
// for combining media, which Parse applies to each "+" component and the
// facade's shorthand options and the sweep's medium axes apply to whole
// specs. The result has at most one loss model, cut, delay, reorder,
// dup, ARQ and churn component, its jamming fields are s's followed by
// o's, and it must validate.
func (s Spec) Compose(o Spec) (Spec, error) {
	out, err := s.compose(o)
	if err != nil {
		return s, err
	}
	return out, out.Validate()
}

// compose is Compose without the validation: Parse adds one component
// at a time, and a reorder component is only valid once the delay it
// draws from has been added.
func (s Spec) compose(o Spec) (Spec, error) {
	for _, c := range [...]struct {
		what string
		both bool
	}{
		{"loss models", s.Loss != LossNone && o.Loss != LossNone},
		{"cut components", s.HasCut() && o.HasCut()},
		{"delay components", !s.Delay.IsZero() && !o.Delay.IsZero()},
		{"reorder components", s.Reorder > 0 && o.Reorder > 0},
		{"dup components", s.Dup > 0 && o.Dup > 0},
		{"arq components", !s.ARQ.IsZero() && !o.ARQ.IsZero()},
		{"churn components", s.HasChurn() && o.HasChurn()},
	} {
		if c.both {
			return s, fmt.Errorf("channel: spec %q has two %s", s.String()+"+"+o.String(), c.what)
		}
	}
	// Each component is now set on one side at most: take it from there.
	if s.Loss == LossNone {
		s.Loss, s.LossRate, s.GE = o.Loss, o.LossRate, o.GE
	}
	if !s.HasChurn() {
		s.Churn, s.ChurnTarget, s.HubCount = o.Churn, o.ChurnTarget, o.HubCount
	}
	if len(o.Fields) > 0 {
		s.Fields = append(slices.Clip(s.Fields), o.Fields...)
	}
	s.Cut, s.Delay, s.ARQ = cmp.Or(s.Cut, o.Cut), cmp.Or(s.Delay, o.Delay), cmp.Or(s.ARQ, o.ARQ)
	s.Reorder, s.Dup = cmp.Or(s.Reorder, o.Reorder), cmp.Or(s.Dup, o.Dup)
	return s, nil
}

// Parse reads the compact spec form produced by String. The empty string
// and "perfect" both mean the perfect medium. Components separated by
// "+" compose (see Compose); parameters within a component separate
// with "/". See Spec.String for the grammar.
func Parse(text string) (Spec, error) {
	var s Spec
	text = strings.TrimSpace(text)
	if text == "" || text == "perfect" {
		return s, nil
	}
	for _, part := range strings.Split(text, "+") {
		c, err := parseComponent(strings.TrimSpace(part))
		if err == nil {
			s, err = s.compose(c)
		}
		if err != nil {
			return s, err
		}
	}
	return s, s.Validate()
}

// parseComponent reads one component of the grammar into a spec that
// holds it alone.
func parseComponent(part string) (Spec, error) {
	var s Spec
	kind, args, _ := strings.Cut(part, ":")
	switch kind {
	case "perfect":
		// no-op component, composes with anything
	case "bernoulli", "loss":
		vals, err := parseFloatList(part, args, 1)
		if err != nil {
			return s, err
		}
		s.Loss, s.LossRate = LossBernoulli, vals[0]
	case "ge", "gilbert-elliott":
		vals, err := parseFloatList(part, args, 4)
		if err != nil {
			return s, err
		}
		s.Loss = LossGilbertElliott
		s.GE = GEParams{PGoodToBad: vals[0], PBadToGood: vals[1], LossGood: vals[2], LossBad: vals[3]}
	case "jam":
		f, err := parseJam(part, args)
		if err != nil {
			return s, err
		}
		s.Fields = []FieldParams{f}
	case "mjam":
		vals, err := parseFloatList(part, args, 6)
		if err != nil {
			return s, err
		}
		s.Fields = []FieldParams{{
			Kind:   FieldDisk,
			Center: geo.Pt(vals[0], vals[1]),
			Radius: vals[2],
			Loss:   vals[3],
			Vel:    geo.Pt(vals[4], vals[5]),
		}}
	case "jampoly":
		f, err := parseJamPoly(part, args)
		if err != nil {
			return s, err
		}
		s.Fields = []FieldParams{f}
	case "cut":
		vals, err := parseFloatList(part, args, 5)
		if err != nil {
			return s, err
		}
		from, until, err := parseWindow(part, vals[3], vals[4])
		if err != nil {
			return s, err
		}
		s.Cut = CutParams{A: vals[0], B: vals[1], C: vals[2], From: from, Until: until}
		if s.Cut.IsZero() {
			// The zero CutParams encodes "no cut", so an all-zero
			// component would silently validate as a no-op.
			return s, fmt.Errorf("channel: cut component %q is all zero (no line, no window)", part)
		}
	case "delay":
		d, err := parseDelay(part, args)
		if err != nil {
			return s, err
		}
		s.Delay = d
	case "reorder":
		vals, err := parseFloatList(part, args, 1)
		if err != nil {
			return s, err
		}
		if vals[0] <= 0 {
			return s, fmt.Errorf("channel: reorder component %q: probability must be positive", part)
		}
		s.Reorder = vals[0]
	case "dup":
		vals, err := parseFloatList(part, args, 1)
		if err != nil {
			return s, err
		}
		if vals[0] <= 0 {
			return s, fmt.Errorf("channel: dup component %q: probability must be positive", part)
		}
		s.Dup = vals[0]
	case "arq":
		vals, err := parseFloatList(part, args, 3)
		if err != nil {
			return s, err
		}
		retries := int(vals[0])
		if float64(retries) != vals[0] || retries <= 0 {
			return s, fmt.Errorf("channel: arq component %q: retries must be a positive integer", part)
		}
		s.ARQ = ARQParams{Retries: retries, Timeout: vals[1], Backoff: vals[2]}
	case "churn", "repchurn", "hubchurn":
		want := 2
		if kind == "hubchurn" {
			want = 3
		}
		vals, err := parseFloatList(part, args, want)
		if err != nil {
			return s, err
		}
		if vals[0] <= 0 {
			return s, fmt.Errorf("channel: churn component %q: mean up-time must be positive", part)
		}
		s.Churn = ChurnParams{MeanUp: vals[0], MeanDown: vals[1]}
		switch kind {
		case "repchurn":
			s.ChurnTarget = TargetReps
		case "hubchurn":
			s.ChurnTarget = TargetHubs
			k := int(vals[2])
			if float64(k) != vals[2] || k <= 0 {
				return s, fmt.Errorf("channel: hub churn component %q: hub count must be a positive integer", part)
			}
			s.HubCount = k
		}
	default:
		return s, fmt.Errorf("channel: unknown fault component %q (want perfect, bernoulli:P, ge:PGB/PBG/EG/EB, jam:CX/CY/R/LOSS[/FROM/UNTIL[/PERIOD]], mjam:CX/CY/R/LOSS/VX/VY, jampoly:LOSS/X1/Y1/..., cut:A/B/C/FROM/UNTIL, delay:fixed/D, delay:uniform/LO/HI, delay:exp/MEAN, reorder:P, dup:P, arq:RETRIES/TIMEOUT/BACKOFF, churn:UP/DOWN, repchurn:UP/DOWN, or hubchurn:UP/DOWN/K)", part)
	}
	return s, nil
}

// parseJam reads the disk jammer forms: 4 parameters (static), 6
// (one-shot window), or 7 (periodic on/off).
func parseJam(part, args string) (FieldParams, error) {
	fields := strings.Split(args, "/")
	n := len(fields)
	if args == "" || (n != 4 && n != 6 && n != 7) {
		return FieldParams{}, fmt.Errorf("channel: component %q wants 4, 6 or 7 parameters", part)
	}
	vals, err := parseFloatList(part, args, n)
	if err != nil {
		return FieldParams{}, err
	}
	f := FieldParams{
		Kind:   FieldDisk,
		Center: geo.Pt(vals[0], vals[1]),
		Radius: vals[2],
		Loss:   vals[3],
	}
	if n >= 6 {
		f.From, f.Until, err = parseWindow(part, vals[4], vals[5])
		if err != nil {
			return FieldParams{}, err
		}
		if f.From == 0 && f.Until == 0 {
			// 0/0 would silently read as "always active" (the unscheduled
			// encoding); make the caller say what they mean.
			return FieldParams{}, fmt.Errorf("channel: component %q: window 0/0 is empty (omit the window for an always-on field)", part)
		}
	}
	if n == 7 {
		if vals[6] < 0 || vals[6] != float64(uint64(vals[6])) {
			return FieldParams{}, fmt.Errorf("channel: component %q: period %v must be a non-negative integer", part, vals[6])
		}
		f.Period = uint64(vals[6])
	}
	return f, nil
}

// parseDelay reads the delay distribution forms: "delay:fixed/D",
// "delay:uniform/LO/HI", "delay:exp/MEAN".
func parseDelay(part, args string) (DelayParams, error) {
	kind, params, _ := strings.Cut(args, "/")
	var d DelayParams
	var want int
	switch kind {
	case "fixed":
		d.Kind, want = DelayFixed, 1
	case "uniform":
		d.Kind, want = DelayUniform, 2
	case "exp":
		d.Kind, want = DelayExp, 1
	default:
		return d, fmt.Errorf("channel: component %q wants a distribution (fixed/D, uniform/LO/HI, or exp/MEAN)", part)
	}
	vals, err := parseFloatList(part, params, want)
	if err != nil {
		return d, err
	}
	d.A = vals[0]
	if want == 2 {
		d.B = vals[1]
	}
	return d, nil
}

// parseJamPoly reads "jampoly:LOSS/X1/Y1/.../Xk/Yk" (k >= 3 vertices).
func parseJamPoly(part, args string) (FieldParams, error) {
	fields := strings.Split(args, "/")
	n := len(fields)
	if args == "" || n < 7 || n%2 == 0 {
		return FieldParams{}, fmt.Errorf("channel: component %q wants a loss followed by at least 3 x/y vertex pairs", part)
	}
	vals, err := parseFloatList(part, args, n)
	if err != nil {
		return FieldParams{}, err
	}
	f := FieldParams{Kind: FieldPolygon, Loss: vals[0]}
	for i := 1; i < n; i += 2 {
		f.Poly = append(f.Poly, geo.Pt(vals[i], vals[i+1]))
	}
	return f, nil
}

// parseWindow converts a FROM/UNTIL float pair to the uint64 time window
// every scheduled component uses.
func parseWindow(part string, from, until float64) (uint64, uint64, error) {
	for _, v := range []float64{from, until} {
		if v < 0 || v != float64(uint64(v)) {
			return 0, 0, fmt.Errorf("channel: component %q: window bound %v must be a non-negative integer", part, v)
		}
	}
	return uint64(from), uint64(until), nil
}

func parseFloatList(part, args string, want int) ([]float64, error) {
	fields := strings.Split(args, "/")
	if args == "" || len(fields) != want {
		return nil, fmt.Errorf("channel: component %q wants %d parameter(s)", part, want)
	}
	out := make([]float64, want)
	for i, f := range fields {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("channel: component %q: bad parameter %q", part, f)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// NaN slips through every range check (all comparisons are
			// false), turning the component into a silent no-op.
			return nil, fmt.Errorf("channel: component %q: parameter %q is not finite", part, f)
		}
		out[i] = v
	}
	return out, nil
}
