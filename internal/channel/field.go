package channel

import (
	"fmt"
	"math"

	"geogossip/internal/geo"
	"geogossip/internal/rng"
)

// FieldKind enumerates jamming-field shapes.
type FieldKind int

const (
	// FieldDisk is a circular jamming region (static, scheduled, or
	// moving).
	FieldDisk FieldKind = iota + 1
	// FieldPolygon is a convex polygonal jamming region.
	FieldPolygon
)

// FieldParams declaratively describes one spatially-correlated loss
// field: a region of the unit square in which packets are lost with an
// elevated probability — the jamming / interference / obstruction model
// geometric sensor deployments exhibit and id-only loss processes cannot
// express. The zero value is no field.
type FieldParams struct {
	// Kind selects the region shape.
	Kind FieldKind
	// Center and Radius define the disk (FieldDisk).
	Center geo.Point
	Radius float64
	// Poly lists the polygon vertices in counter-clockwise order
	// (FieldPolygon); the polygon must be convex.
	Poly []geo.Point
	// Loss is the per-packet loss probability inside the region.
	Loss float64
	// From and Until bound the active window [From, Until) in the
	// channel's time unit. Both zero means always active. With Period > 0
	// the window repeats: the field is on when now >= From and
	// (now-From) mod Period < Until-From — the scheduled on/off jammer.
	From, Until uint64
	// Period is the on/off cycle length (0 = the window fires once).
	Period uint64
	// Vel moves the disk centre by Vel per time unit, reflecting off the
	// unit-square walls (FieldDisk only) — the moving-jammer variant.
	Vel geo.Point
}

// Active reports whether the field is on at time now.
func (f FieldParams) Active(now uint64) bool {
	if f.From == 0 && f.Until == 0 {
		return true
	}
	if now < f.From {
		return false
	}
	if f.Period > 0 {
		return (now-f.From)%f.Period < f.Until-f.From
	}
	return now < f.Until
}

// Moving reports whether the disk travels.
func (f FieldParams) Moving() bool { return f.Vel.X != 0 || f.Vel.Y != 0 }

// Scheduled reports whether the field has an on/off window.
func (f FieldParams) Scheduled() bool { return f.From != 0 || f.Until != 0 }

// CenterAt returns the disk centre at time now: the start centre
// translated by Vel·now and reflected back into the unit square
// (triangle-wave folding), so a moving jammer bounces off the walls
// forever and its position is a pure function of time.
func (f FieldParams) CenterAt(now uint64) geo.Point {
	if !f.Moving() {
		return f.Center
	}
	t := float64(now)
	return geo.Pt(reflect01(f.Center.X+f.Vel.X*t), reflect01(f.Center.Y+f.Vel.Y*t))
}

// reflect01 folds x into [0, 1] as a triangle wave (reflection off both
// walls).
func reflect01(x float64) float64 {
	x = math.Mod(x, 2)
	if x < 0 {
		x += 2
	}
	if x > 1 {
		x = 2 - x
	}
	return x
}

// LossAt returns the field's local loss probability at position p and
// time now: Loss inside the (current) region while active, 0 elsewhere.
func (f FieldParams) LossAt(p geo.Point, now uint64) float64 {
	if f.Loss <= 0 || !f.Active(now) {
		return 0
	}
	switch f.Kind {
	case FieldDisk:
		if f.CenterAt(now).Dist2(p) <= f.Radius*f.Radius {
			return f.Loss
		}
	case FieldPolygon:
		if geo.Polygon(f.Poly).Contains(p) {
			return f.Loss
		}
	}
	return 0
}

// AreaFraction returns the fraction of the unit square the region covers
// (used by MeanLoss to estimate the field's long-run impact on uniform
// traffic). Disks are clipped against the unit square; polygon area is
// clipped the same way, so regions extending past the field boundary
// never claim more than the whole square.
func (f FieldParams) AreaFraction() float64 {
	switch f.Kind {
	case FieldDisk:
		return geo.DiskSquareOverlap(f.Center, f.Radius)
	case FieldPolygon:
		clipped := geo.Polygon(f.Poly).
			ClipHalfPlane(-1, 0, 0). // x >= 0
			ClipHalfPlane(1, 0, 1).  // x <= 1
			ClipHalfPlane(0, -1, 0). // y >= 0
			ClipHalfPlane(0, 1, 1)   // y <= 1
		return clipped.Area()
	}
	return 0
}

// DutyCycle returns the long-run fraction of time the field is active.
// One-shot windows count as active (a conservative budgeting choice: the
// window dominates exactly the part of the run it covers).
func (f FieldParams) DutyCycle() float64 {
	if !f.Scheduled() || f.Period == 0 {
		return 1
	}
	return float64(f.Until-f.From) / float64(f.Period)
}

// MeanLoss returns the field's expected per-packet loss for a packet
// whose sample point is uniform on the unit square: Loss × area fraction
// × duty cycle. It is a budgeting estimate, not an exact stationary
// rate — real traffic is not uniform, routes sample three points, and a
// moving disk is clipped at its initial centre rather than averaged
// over its trajectory.
func (f FieldParams) MeanLoss() float64 {
	return f.Loss * f.AreaFraction() * f.DutyCycle()
}

// validate reports the first problem with the field parameters.
func (f FieldParams) validate() error {
	switch f.Kind {
	case FieldDisk:
		if f.Radius <= 0 {
			return fmt.Errorf("channel: jamming disk radius %v must be positive", f.Radius)
		}
	case FieldPolygon:
		if len(f.Poly) < 3 {
			return fmt.Errorf("channel: jamming polygon needs at least 3 vertices, got %d", len(f.Poly))
		}
		if !geo.Polygon(f.Poly).IsConvexCCW() {
			return fmt.Errorf("channel: jamming polygon must be convex with counter-clockwise vertices")
		}
		if f.Moving() {
			return fmt.Errorf("channel: jamming polygons cannot move")
		}
	default:
		return fmt.Errorf("channel: unknown field kind %d", int(f.Kind))
	}
	if f.Loss < 0 || f.Loss > 1 {
		return fmt.Errorf("channel: field loss %v outside [0, 1]", f.Loss)
	}
	if f.Scheduled() && f.Until <= f.From {
		return fmt.Errorf("channel: field window [%d, %d) is empty", f.From, f.Until)
	}
	if f.Period > 0 && !f.Scheduled() {
		return fmt.Errorf("channel: field period %d set without an on-window", f.Period)
	}
	// The spec grammar has no form combining motion or a polygon with an
	// on/off window; rejecting the combinations keeps every valid spec
	// printable and round-trippable (Spec.String would otherwise drop
	// the window silently).
	if f.Moving() && f.Scheduled() {
		return fmt.Errorf("channel: a moving jammer cannot also have an on/off window")
	}
	if f.Kind == FieldPolygon && f.Scheduled() {
		return fmt.Errorf("channel: jamming polygons cannot be scheduled")
	}
	if f.Period > 0 && f.Period < f.Until-f.From {
		return fmt.Errorf("channel: field period %d shorter than its on-window %d", f.Period, f.Until-f.From)
	}
	return nil
}

// SpatialLoss overlays geometry-correlated loss on an inner medium: each
// delivery samples every active field at the packet's source, midpoint
// and destination (the midpoint standing in for the route's path, which
// greedy routing keeps close to the straight line) and takes the worst
// local probability per field; independent fields then compose as
// independent loss events. A packet that survives the fields still faces
// the inner channel.
//
// Draw discipline mirrors Bernoulli: one Bernoulli draw per delivery
// only when the combined probability is positive, plus one IntN draw for
// the failure point of a lost multi-hop leg — so traffic outside every
// field consumes no randomness.
//
// Hot-path structure: every delivery of a spatial-fault run evaluates
// every field at three sample points, so each field is precompiled into
// a fieldEval carrying the region's bounding box — points outside the
// box are rejected with four comparisons before any disk or polygon
// math — and a moving disk's reflected centre (the expensive part of
// its evaluation) is computed once per decision time, not once per
// sample point. Both are pure rearrangements: the loss probability per
// packet is bit-identical to evaluating FieldParams.LossAt per point.
type SpatialLoss struct {
	inner Channel
	evals []fieldEval
	r     *rng.RNG
}

// fieldEval is one field plus its precompiled fast-rejection state.
type fieldEval struct {
	f FieldParams
	// minX..maxY is the region's bounding box (inclusive): for disks the
	// centre ± radius, for polygons the vertex hull box. Recomputed per
	// decision time for moving disks, fixed otherwise.
	minX, minY, maxX, maxY float64
	// center is the disk centre the box was built around.
	center geo.Point
	// boxNow is the decision time the moving box corresponds to; primed
	// marks it valid (time zero is a legitimate Now).
	boxNow uint64
	primed bool
	moving bool
}

// NewSpatialLoss wraps inner (nil selects Perfect) with the given loss
// fields, drawing from r.
func NewSpatialLoss(inner Channel, fields []FieldParams, r *rng.RNG) *SpatialLoss {
	s := &SpatialLoss{}
	s.reset(inner, fields, r)
	return s
}

// reset re-initializes a pooled SpatialLoss in place, keeping the
// evaluator storage.
func (s *SpatialLoss) reset(inner Channel, fields []FieldParams, r *rng.RNG) {
	if inner == nil {
		inner = Perfect{}
	}
	if cap(s.evals) >= len(fields) {
		s.evals = s.evals[:len(fields)]
	} else {
		s.evals = make([]fieldEval, len(fields))
	}
	s.inner, s.r = inner, r
	for i, f := range fields {
		s.evals[i] = fieldEval{}
		s.initEval(&s.evals[i], f)
	}
}

// initEval fills one evaluator with its field and precompiled
// fast-rejection state.
func (s *SpatialLoss) initEval(ev *fieldEval, f FieldParams) {
	ev.f = f
	ev.moving = f.Moving()
	switch {
	case f.Kind == FieldDisk && !ev.moving:
		ev.center = f.Center
		ev.setDiskBox(f.Center, f.Radius)
	case f.Kind == FieldPolygon:
		ev.minX, ev.minY = math.Inf(1), math.Inf(1)
		ev.maxX, ev.maxY = math.Inf(-1), math.Inf(-1)
		for _, v := range f.Poly {
			ev.minX = math.Min(ev.minX, v.X)
			ev.minY = math.Min(ev.minY, v.Y)
			ev.maxX = math.Max(ev.maxX, v.X)
			ev.maxY = math.Max(ev.maxY, v.Y)
		}
	}
}

func (ev *fieldEval) setDiskBox(c geo.Point, radius float64) {
	ev.minX, ev.minY = c.X-radius, c.Y-radius
	ev.maxX, ev.maxY = c.X+radius, c.Y+radius
}

// outside reports whether p provably lies outside the field region (the
// bounding-box early-out). False only means "needs the exact test".
func (ev *fieldEval) outside(p geo.Point) bool {
	return p.X < ev.minX || p.X > ev.maxX || p.Y < ev.minY || p.Y > ev.maxY
}

// lossAtPoint is FieldParams.LossAt with the activity check hoisted and
// the disk centre supplied by the caller.
func (ev *fieldEval) lossAtPoint(p geo.Point) float64 {
	if ev.outside(p) {
		return 0
	}
	f := &ev.f
	switch f.Kind {
	case FieldDisk:
		if ev.center.Dist2(p) <= f.Radius*f.Radius {
			return f.Loss
		}
	case FieldPolygon:
		if geo.Polygon(f.Poly).Contains(p) {
			return f.Loss
		}
	}
	return 0
}

// lossAt combines the fields' local probabilities for the packet: per
// field the maximum over the three sample points, across fields the
// independent-events composition 1 − Π(1 − qᵢ).
func (s *SpatialLoss) lossAt(p Packet) float64 {
	survive := 1.0
	mid := p.Mid()
	for i := range s.evals {
		ev := &s.evals[i]
		f := &ev.f
		if f.Loss <= 0 || !f.Active(p.Now) {
			continue
		}
		if ev.moving && (!ev.primed || ev.boxNow != p.Now) {
			// One reflected-centre computation per decision time covers
			// all three sample points (and any further packet at the
			// same time).
			ev.center = f.CenterAt(p.Now)
			ev.setDiskBox(ev.center, f.Radius)
			ev.boxNow, ev.primed = p.Now, true
		}
		q := ev.lossAtPoint(p.SrcPos)
		if v := ev.lossAtPoint(mid); v > q {
			q = v
		}
		if v := ev.lossAtPoint(p.DstPos); v > q {
			q = v
		}
		survive *= 1 - q
	}
	return 1 - survive
}

// Advance implements Channel.
func (s *SpatialLoss) Advance(now uint64) { s.inner.Advance(now) }

// Alive implements Channel.
func (s *SpatialLoss) Alive(i int32) bool { return s.inner.Alive(i) }

// DeliverHop implements Channel.
func (s *SpatialLoss) DeliverHop(p Packet) (bool, int) {
	if q := s.lossAt(p); q > 0 && s.r.Bernoulli(q) {
		return false, 1
	}
	return s.inner.DeliverHop(p)
}

// DeliverRoute implements Channel.
func (s *SpatialLoss) DeliverRoute(p Packet) (bool, int) {
	if q := s.lossAt(p); q > 0 && s.r.Bernoulli(q) {
		return false, partialCost(s.r, p.Hops)
	}
	return s.inner.DeliverRoute(p)
}

// DeliverRoundTrip implements Channel.
func (s *SpatialLoss) DeliverRoundTrip(p Packet) (bool, int) {
	// Both legs cross the same geometry: lost unless both survive.
	if q := s.lossAt(p); q > 0 && s.r.Bernoulli(1-(1-q)*(1-q)) {
		return false, partialCost(s.r, 2*p.Hops)
	}
	return s.inner.DeliverRoundTrip(p)
}

// Name implements Channel.
func (s *SpatialLoss) Name() string {
	if s.inner.Name() == "perfect" {
		return "jam"
	}
	return s.inner.Name() + "+jam"
}

// CutParams describes a partition/heal event: during [From, Until) the
// line a·x + b·y = c severs the network — any packet whose endpoints lie
// on opposite sides is dropped deterministically — and afterwards the
// medium heals. This is the bridge-collapse / backbone-outage scenario:
// unlike random loss, no amount of retrying crosses the cut until it
// heals.
type CutParams struct {
	// A, B and C define the cut line a·x + b·y = c.
	A, B, C float64
	// From and Until bound the severed window [From, Until) in the
	// channel's time unit.
	From, Until uint64
}

// Active reports whether the cut severs at time now.
func (c CutParams) Active(now uint64) bool { return now >= c.From && now < c.Until }

// Severs reports whether the segment p→q crosses the cut line.
func (c CutParams) Severs(p, q geo.Point) bool {
	sp := c.A*p.X + c.B*p.Y - c.C
	sq := c.A*q.X + c.B*q.Y - c.C
	return (sp < 0) != (sq < 0)
}

// IsZero reports whether the params describe no cut.
func (c CutParams) IsZero() bool { return c == CutParams{} }

func (c CutParams) validate() error {
	if c.IsZero() {
		return nil
	}
	if c.A == 0 && c.B == 0 {
		return fmt.Errorf("channel: cut line 0·x + 0·y = %v is degenerate", c.C)
	}
	if c.Until <= c.From {
		return fmt.Errorf("channel: cut window [%d, %d) is empty", c.From, c.Until)
	}
	return nil
}

// Partition drops every packet crossing an active cut line, consuming no
// randomness: a crossing route dies (approximately) at the cut, paying
// half its hops.
type Partition struct {
	inner Channel
	cut   CutParams
}

// NewPartition wraps inner (nil selects Perfect) with the cut.
func NewPartition(inner Channel, cut CutParams) *Partition {
	if inner == nil {
		inner = Perfect{}
	}
	return &Partition{inner: inner, cut: cut}
}

// Advance implements Channel.
func (c *Partition) Advance(now uint64) { c.inner.Advance(now) }

// Alive implements Channel.
func (c *Partition) Alive(i int32) bool { return c.inner.Alive(i) }

// DeliverHop implements Channel.
func (c *Partition) DeliverHop(p Packet) (bool, int) {
	if c.cut.Active(p.Now) && c.cut.Severs(p.SrcPos, p.DstPos) {
		return false, 1
	}
	return c.inner.DeliverHop(p)
}

// DeliverRoute implements Channel.
func (c *Partition) DeliverRoute(p Packet) (bool, int) {
	if c.cut.Active(p.Now) && c.cut.Severs(p.SrcPos, p.DstPos) {
		return false, (p.Hops + 1) / 2 // died at the cut, roughly midway
	}
	return c.inner.DeliverRoute(p)
}

// DeliverRoundTrip implements Channel.
func (c *Partition) DeliverRoundTrip(p Packet) (bool, int) {
	if c.cut.Active(p.Now) && c.cut.Severs(p.SrcPos, p.DstPos) {
		return false, (p.Hops + 1) / 2 // outbound leg died at the cut
	}
	return c.inner.DeliverRoundTrip(p)
}

// Name implements Channel.
func (c *Partition) Name() string {
	if c.inner.Name() == "perfect" {
		return "cut"
	}
	return c.inner.Name() + "+cut"
}

// Compile-time interface checks.
var (
	_ Channel = (*SpatialLoss)(nil)
	_ Channel = (*Partition)(nil)
)
