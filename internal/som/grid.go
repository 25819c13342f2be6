// Package som implements the Self-Organizing Map: the serial online and
// batch training algorithms (the paper's Eq. 1–5), map quality metrics,
// U-matrix computation, PCA-based initialization, and the dense binary
// vector file format the parallel driver (internal/mrsom) reads by offset.
package som

import (
	"fmt"
	"math"
)

// Topology selects the neuron lattice arrangement.
type Topology int

const (
	// Rect is the rectangular lattice the paper uses (4-connected).
	Rect Topology = iota
	// Hex is a hexagonal lattice (6-connected, odd rows offset by half a
	// cell), the other standard SOM topology.
	Hex
)

func (t Topology) String() string {
	switch t {
	case Rect:
		return "rect"
	case Hex:
		return "hex"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// Grid is a 2-D neuron lattice of W×H cells. Neuron k sits at lattice cell
// (k%W, k/W); for Hex topology, odd rows are offset by half a cell and row
// spacing is √3/2.
type Grid struct {
	W, H int
	Topo Topology
}

// NewGrid validates and returns a rectangular grid (the paper's topology).
func NewGrid(w, h int) (Grid, error) {
	return NewGridTopo(w, h, Rect)
}

// NewGridTopo validates and returns a grid with an explicit topology.
func NewGridTopo(w, h int, topo Topology) (Grid, error) {
	if w <= 0 || h <= 0 {
		return Grid{}, fmt.Errorf("som: grid dimensions must be positive, got %dx%d", w, h)
	}
	if topo != Rect && topo != Hex {
		return Grid{}, fmt.Errorf("som: unknown topology %v", topo)
	}
	return Grid{W: w, H: h, Topo: topo}, nil
}

// Cells reports the number of neurons.
func (g Grid) Cells() int { return g.W * g.H }

// Coords returns the integer lattice cell of neuron k.
func (g Grid) Coords(k int) (int, int) { return k % g.W, k / g.W }

// Index returns the neuron index at lattice cell (x, y).
func (g Grid) Index(x, y int) int { return y*g.W + x }

// hexRowSpacing is the vertical distance between hex rows (√3/2).
const hexRowSpacing = 0.8660254037844386

// Position returns neuron k's position in map space (equal to its lattice
// cell for Rect; offset rows and compressed row spacing for Hex).
func (g Grid) Position(k int) (float64, float64) {
	x, y := g.Coords(k)
	if g.Topo == Hex {
		px := float64(x)
		if y&1 == 1 {
			px += 0.5
		}
		return px, float64(y) * hexRowSpacing
	}
	return float64(x), float64(y)
}

// Dist2 is the squared Euclidean map-space distance between neurons a and
// b.
func (g Grid) Dist2(a, b int) float64 {
	ax, ay := g.Position(a)
	bx, by := g.Position(b)
	dx, dy := ax-bx, ay-by
	return dx*dx + dy*dy
}

// neighborBox returns the inclusive lattice-coordinate bounds
// [x0,x1]×[y0,y1] of every cell that can lie within map-space distance
// cutoff of neuron b, clamped to the grid. The box is a superset of the
// neighborhood: callers still apply the exact d² ≤ cutoff² test with
// arithmetic identical to Dist2, so the pruning never changes which cells
// contribute — it only skips cells that would fail that test anyway.
func (g Grid) neighborBox(b int, cutoff float64) (x0, y0, x1, y1 int) {
	cutoff = g.clampCutoff(cutoff)
	if g.Topo == Hex {
		bpx, bpy := g.Position(b)
		y0 = int(math.Floor((bpy - cutoff) / hexRowSpacing))
		y1 = int(math.Ceil((bpy + cutoff) / hexRowSpacing))
		// Odd rows sit half a cell to the right, so widen x by a full cell
		// on each side to cover both parities.
		x0 = int(math.Floor(bpx-cutoff)) - 1
		x1 = int(math.Ceil(bpx+cutoff)) + 1
	} else {
		bx, by := g.Coords(b)
		// Integer offsets beyond floor(cutoff) already exceed cutoff.
		r := int(cutoff)
		x0, y0, x1, y1 = bx-r, by-r, bx+r, by+r
	}
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > g.W-1 {
		x1 = g.W - 1
	}
	if y1 > g.H-1 {
		y1 = g.H - 1
	}
	return
}

// clampCutoff maps a kernel cutoff onto a radius that is safe to convert to
// int. The exact test squares the cutoff, so a negative one reaches as far
// as its magnitude. No two cells are W+H apart, so a larger cutoff (or +Inf,
// or NaN, which fails every d² > cutoff² test) selects the whole grid.
func (g Grid) clampCutoff(cutoff float64) float64 {
	cutoff = math.Abs(cutoff)
	if ext := float64(g.W + g.H); !(cutoff < ext) {
		return ext
	}
	return cutoff
}

// Diagonal is the length of the map's main diagonal, the paper's reference
// for the initial neighborhood width ("no less than half of the largest
// diagonal of the map").
func (g Grid) Diagonal() float64 {
	x0, y0 := g.Position(0)
	x1, y1 := g.Position(g.Cells() - 1)
	dx, dy := x1-x0, y1-y0
	return sqrt(dx*dx + dy*dy)
}

// Neighbors returns the immediate lattice neighbors of neuron k: 4 for
// Rect, up to 6 for Hex.
func (g Grid) Neighbors(k int) []int {
	x, y := g.Coords(k)
	var out []int
	add := func(nx, ny int) {
		if nx >= 0 && nx < g.W && ny >= 0 && ny < g.H {
			out = append(out, g.Index(nx, ny))
		}
	}
	add(x-1, y)
	add(x+1, y)
	add(x, y-1)
	add(x, y+1)
	if g.Topo == Hex {
		// The two remaining hex neighbors depend on row parity.
		if y&1 == 1 {
			add(x+1, y-1)
			add(x+1, y+1)
		} else {
			add(x-1, y-1)
			add(x-1, y+1)
		}
	}
	return out
}

// Neighbors4 returns the 4-connected rectangular-lattice neighbors of
// neuron k, regardless of topology (kept for callers that want the paper's
// original definition).
func (g Grid) Neighbors4(k int) []int {
	x, y := g.Coords(k)
	var out []int
	if x > 0 {
		out = append(out, g.Index(x-1, y))
	}
	if x < g.W-1 {
		out = append(out, g.Index(x+1, y))
	}
	if y > 0 {
		out = append(out, g.Index(x, y-1))
	}
	if y < g.H-1 {
		out = append(out, g.Index(x, y+1))
	}
	return out
}

// Adjacent reports whether neurons a and b are adjacent on the map: within
// the 8-neighborhood for Rect, within unit map-space distance for Hex.
// Used by the topographic error metric.
func (g Grid) Adjacent(a, b int) bool {
	if a == b {
		return false
	}
	if g.Topo == Hex {
		return g.Dist2(a, b) <= 1.0001
	}
	ax, ay := g.Coords(a)
	bx, by := g.Coords(b)
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx <= 1 && dy <= 1
}

// Adjacent8 is the rectangular 8-neighborhood adjacency (legacy name; for
// Rect grids it equals Adjacent).
func (g Grid) Adjacent8(a, b int) bool {
	if g.Topo == Rect {
		return g.Adjacent(a, b)
	}
	ax, ay := g.Coords(a)
	bx, by := g.Coords(b)
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return (dx <= 1 && dy <= 1) && !(dx == 0 && dy == 0)
}
