package channel

import (
	"fmt"
	"math"

	"geogossip/internal/geo"
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
func (f FieldParams) Active(now uint64) bool { return windowOn(f.From, f.Until, f.Period, now) }

// windowOn reports whether the window [from, until), repeating every
// period when period > 0, is on at time now; from and until both zero
// means always on. The Medium's field stage calls it with the fields of
// a FieldParams it holds, since a value-receiver call would copy the
// whole struct.
func windowOn(from, until, period, now uint64) bool {
	if from == 0 && until == 0 {
		return true
	}
	if now < from {
		return false
	}
	if period > 0 {
		return (now-from)%period < until-from
	}
	return now < until
}

// Moving reports whether the disk travels.
func (f FieldParams) Moving() bool { return f.Vel.X != 0 || f.Vel.Y != 0 }

// Scheduled reports whether the field has an on/off window.
func (f FieldParams) Scheduled() bool { return f.From != 0 || f.Until != 0 }

// CenterAt returns the disk centre at time now: the start centre
// translated by Vel·now and reflected back into the unit square
// (triangle-wave folding), so a moving jammer bounces off the walls
// forever and its position is a pure function of time.
func (f *FieldParams) CenterAt(now uint64) geo.Point {
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

// jammer is one jamming field as a Medium evaluates it: the field, the
// disk centre its sample points are measured from — the fixed centre,
// or a moving disk's reflected centre at decision time at, computed once
// per decision time (the expensive part of its evaluation) rather than
// once per sample point — and a polygon's bounding box.
type jammer struct {
	f      FieldParams
	moving bool
	center geo.Point
	at     uint64
	// primed marks center as the moving disk's centre at time at (time
	// zero is a legitimate Now).
	primed bool
	// minX..maxY is a polygon's vertex bounding box (inclusive).
	minX, minY, maxX, maxY float64
}

// newJammer precompiles one field's evaluation state.
func newJammer(f FieldParams) jammer {
	j := jammer{f: f, moving: f.Moving(), center: f.Center}
	if f.Kind == FieldPolygon {
		j.minX, j.minY = math.Inf(1), math.Inf(1)
		j.maxX, j.maxY = math.Inf(-1), math.Inf(-1)
		for _, v := range f.Poly {
			j.minX, j.minY = min(j.minX, v.X), min(j.minY, v.Y)
			j.maxX, j.maxY = max(j.maxX, v.X), max(j.maxY, v.Y)
		}
	}
	return j
}

// inPolygon reports whether q lies in the polygon, rejecting points
// outside its bounding box before the edge tests.
func (j *jammer) inPolygon(q geo.Point) bool {
	return q.X >= j.minX && q.X <= j.maxX && q.Y >= j.minY && q.Y <= j.maxY &&
		geo.Polygon(j.f.Poly).Contains(q)
}

// fieldLoss combines the fields' local loss probabilities for the
// packet. Each active field is sampled at the packet's source, midpoint
// and destination (the midpoint standing in for the route's path, which
// greedy routing keeps close to the straight line) and applies its Loss
// when any sample lies inside it, the worst of FieldParams.LossAt over
// the three points; independent fields then compose as independent loss
// events, 1 − Π(1 − qᵢ).
//
// A disk compares the smallest of the three squared distances with
// Radius², the test LossAt makes per point, so a packet costs three
// distances and one branch per disk. A bounding-box early-out would cost
// four data-dependent branches per point, which mispredict on the random
// endpoints real traffic has. A polygon keeps its box: the edge tests
// it saves cost more than the branches.
func (m *Medium) fieldLoss(p *Packet) float64 {
	survive := 1.0
	mid := p.Mid()
	for i := range m.fields {
		j := &m.fields[i]
		f := &j.f
		if f.Loss <= 0 || !windowOn(f.From, f.Until, f.Period, p.Now) {
			continue
		}
		var in bool
		switch f.Kind {
		case FieldDisk:
			if j.moving && (!j.primed || j.at != p.Now) {
				j.center, j.at, j.primed = f.CenterAt(p.Now), p.Now, true
			}
			c := j.center
			in = min(c.Dist2(p.SrcPos), c.Dist2(mid), c.Dist2(p.DstPos)) <= f.Radius*f.Radius
		case FieldPolygon:
			in = j.inPolygon(p.SrcPos) || j.inPolygon(mid) || j.inPolygon(p.DstPos)
		}
		if in {
			survive *= 1 - f.Loss
		}
	}
	return 1 - survive
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
func (c *CutParams) Active(now uint64) bool { return now >= c.From && now < c.Until }

// Severs reports whether the segment p→q crosses the cut line.
func (c *CutParams) Severs(p, q geo.Point) bool {
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
