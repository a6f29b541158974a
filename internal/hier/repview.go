package hier

// RepView is a copy-on-write representative overlay over an immutable
// base Hierarchy: the structural tree (squares, members, rects, levels)
// stays shared and read-only, while representative assignments and the
// derived node→roles table live in a small mutable layer the view owns.
// It replaces the per-run deep Clone the recovery engines used: binding
// is O(1) when the base is unchanged, Reset is O(1) (epoch bump + table
// swap), and a run pays copy costs only when it actually re-elects —
// exactly the "reset in O(reelections), not O(squares)" contract pooled
// run states need.
//
// Semantics match Hierarchy.ReelectSquare / Reelect bit for bit: the
// nearest-alive-member takeover rule, the no-change conditions, and the
// role-list ordering (append on takeover, order-preserving removal) are
// identical, so a RepView-driven recovery run reproduces a Clone-driven
// one exactly. Node protocol levels are not maintained — no engine reads
// them mid-run.
//
// A RepView is single-goroutine, like the engines that own it. The base
// hierarchy is never written.
type RepView struct {
	base *Hierarchy

	// repBase[id] is the base hierarchy's representative of square id,
	// materialized once per Bind so reads are one array load.
	repBase []int32
	// rep is the active table: it aliases repBase until the first
	// re-election of a run copies it into repBuf (copy-on-write).
	rep    []int32
	repBuf []int32
	dirty  bool

	// Flattened base node→roles table: node i represents the squares
	// rolesBaseIDs[rolesBaseOff[i]:rolesBaseOff[i+1]] (ascending square
	// ID, matching Build's RepRoles order).
	rolesBaseOff []int32
	rolesBaseIDs []int32
	// Epoch-stamped per-node role overlay: ovEpoch[i] == epoch means node
	// i's roles changed this run and live in ovRoles[i] (a buffer reused
	// across runs). Reset is the epoch bump.
	epoch   uint32
	ovEpoch []uint32
	ovRoles [][]int32

	// survivors is reusable scratch for the takeover search.
	survivors []int32
}

// NewRepView returns a view bound to h.
func NewRepView(h *Hierarchy) *RepView {
	v := &RepView{}
	v.Bind(h)
	return v
}

// Bind points the view at h, rebuilding the base tables only when the
// base actually changed; rebinding to the same hierarchy is O(1). Bind
// implies Reset.
func (v *RepView) Bind(h *Hierarchy) {
	if v.base == h {
		v.Reset()
		return
	}
	v.base = h
	n := len(h.NodeLeaf)
	v.repBase = make([]int32, len(h.Squares))
	counts := make([]int32, n+1)
	roles := 0
	for _, sq := range h.Squares {
		v.repBase[sq.ID] = sq.Rep
		if sq.Rep >= 0 {
			counts[sq.Rep+1]++
			roles++
		}
	}
	v.rolesBaseOff = counts
	for i := 1; i <= n; i++ {
		v.rolesBaseOff[i] += v.rolesBaseOff[i-1]
	}
	v.rolesBaseIDs = make([]int32, roles)
	fill := make([]int32, n)
	copy(fill, v.rolesBaseOff[:n])
	for _, sq := range h.Squares {
		if sq.Rep >= 0 {
			v.rolesBaseIDs[fill[sq.Rep]] = int32(sq.ID)
			fill[sq.Rep]++
		}
	}
	v.repBuf = nil
	v.ovEpoch = make([]uint32, n)
	v.ovRoles = make([][]int32, n)
	v.epoch = 0
	v.Reset()
}

// Base returns the bound hierarchy.
func (v *RepView) Base() *Hierarchy { return v.base }

// Reset reverts every overlay write, returning the view to the base
// representative state in O(1).
func (v *RepView) Reset() {
	v.rep = v.repBase
	v.dirty = false
	v.epoch++
	if v.epoch == 0 { // uint32 wraparound: stale stamps would read as current
		clear(v.ovEpoch)
		v.epoch = 1
	}
}

// Rep returns the current representative of square id (-1 when none).
func (v *RepView) Rep(id int) int32 { return v.rep[id] }

// Roles returns the square IDs node i currently represents, in the same
// order Hierarchy.RepRoles maintains. The slice is view-owned: read-only,
// valid until the next ReelectSquare or Reset. A view with no
// re-election this run skips the overlay: ReelectSquare sets dirty
// (through write) before it touches any role, so no role of a clean view
// lives in the overlay.
func (v *RepView) Roles(i int32) []int32 {
	if v.dirty && v.ovEpoch[i] == v.epoch {
		return v.ovRoles[i]
	}
	return v.rolesBaseIDs[v.rolesBaseOff[i]:v.rolesBaseOff[i+1]]
}

// HasRoles reports whether node i currently represents a square:
// len(Roles(i)) > 0, without building the slice. The async engine tests
// it on every tick to tell an idle owner (DESIGN.md §7).
func (v *RepView) HasRoles(i int32) bool {
	if v.dirty && v.ovEpoch[i] == v.epoch {
		return len(v.ovRoles[i]) > 0
	}
	return v.rolesBaseOff[i] != v.rolesBaseOff[i+1]
}

// write records a representative change, copying the base table on the
// run's first write.
func (v *RepView) write(id int, rep int32) {
	if !v.dirty {
		if v.repBuf == nil {
			v.repBuf = make([]int32, len(v.repBase))
		}
		copy(v.repBuf, v.repBase)
		v.rep = v.repBuf
		v.dirty = true
	}
	v.rep[id] = rep
}

// mutableRoles returns node i's overlay role buffer, materializing it
// from the current roles on first touch this run (buffer storage is
// reused across runs).
func (v *RepView) mutableRoles(i int32) []int32 {
	if v.ovEpoch[i] == v.epoch {
		return v.ovRoles[i]
	}
	buf := append(v.ovRoles[i][:0], v.Roles(i)...)
	v.ovRoles[i] = buf
	v.ovEpoch[i] = v.epoch
	return buf
}

func (v *RepView) addRole(i int32, id int) {
	v.ovRoles[i] = append(v.mutableRoles(i), int32(id))
	v.ovEpoch[i] = v.epoch
}

func (v *RepView) dropRole(i int32, id int) {
	roles := v.mutableRoles(i)
	for k, r := range roles {
		if r == int32(id) {
			roles = append(roles[:k], roles[k+1:]...)
			break
		}
	}
	v.ovRoles[i] = roles
}

// ReelectSquare replaces the representative of square id when the current
// one is dead (or the square has none): the member nearest the square's
// centre among those currently alive takes over. The rule, the no-change
// conditions, and the returned values are identical to
// Hierarchy.ReelectSquare; only the mutation target differs (the overlay,
// never the base).
func (v *RepView) ReelectSquare(id int, alive func(int32) bool) (int32, bool) {
	sq := v.base.Squares[id]
	old := v.rep[id]
	if old >= 0 && alive(old) {
		return old, false
	}
	survivors := v.survivors[:0]
	for _, m := range sq.Members {
		if alive(m) {
			survivors = append(survivors, m)
		}
	}
	v.survivors = survivors
	next := nearestMember(v.base.points, survivors, sq.Rect.Center())
	if next == old {
		return old, false
	}
	v.write(id, next)
	if old >= 0 {
		v.dropRole(old, id)
	}
	if next >= 0 {
		v.addRole(next, id)
	}
	return next, true
}

// Reelect sweeps every populated square in BFS order and replaces dead
// (or missing) representatives via ReelectSquare, appending the IDs of
// changed squares to buf (typically buf[:0] of a reusable slice) and
// returning it — Hierarchy.Reelect without the allocation.
func (v *RepView) Reelect(alive func(int32) bool, buf []int) []int {
	for _, sq := range v.base.Squares {
		if len(sq.Members) == 0 {
			continue
		}
		if _, changed := v.ReelectSquare(sq.ID, alive); changed {
			buf = append(buf, sq.ID)
		}
	}
	return buf
}
