package noc

import (
	"repro/internal/sim"
)

// Link-level modelling: X-Y dimension-order routing visits a concrete
// sequence of unidirectional torus links; each link is a bandwidth server,
// so two transfers crossing the same link contend for it even when their
// endpoints differ — the congestion a hop-count-only model misses.

// Directions of the four unidirectional links leaving a tile; the link
// leaving tile t in direction d is links[t*4+d].
const (
	dirXPlus = iota
	dirXMinus
	dirYPlus
	dirYMinus
	dirs
)

// Wire is an X-Y route resolved once, for a pair of tiles whose traffic
// repeats: its endpoints, its hop count and its links in path order.
// Probe, Inject and Route read it without re-deriving any of them.
type Wire struct {
	src, dst, hops int
	links          []*sim.Server
}

// Resolve returns the X-Y route from src to dst, creating its links' servers
// (at the current, possibly derated, rate) on first use.
func (n *NoC) Resolve(src, dst int) Wire {
	w := Wire{src: src, dst: dst, hops: n.Hops(src, dst)}
	w.links = make([]*sim.Server, 0, w.hops)
	n.walk(src, dst, func(from, _, dir int) {
		i := from*dirs + dir
		if n.links[i] == nil {
			n.links[i] = sim.NewServer(n.env, n.rate)
		}
		w.links = append(w.links, n.links[i])
	})
	return w
}

// Path returns the tiles an X-Y routed packet traverses from src to dst,
// inclusive of both endpoints, taking the shorter torus direction in each
// dimension.
func (n *NoC) Path(src, dst int) []int {
	path := []int{src}
	n.walk(src, dst, func(_, to, _ int) { path = append(path, to) })
	return path
}

// walk visits every hop of the X-Y route from src to dst in order: the tile
// it leaves, the tile it enters and the direction of the link between them.
// On a two-wide ring both directions reach the same neighbour; the hop then
// counts as the positive direction's link.
func (n *NoC) walk(src, dst int, hop func(from, to, dir int)) {
	x, y := n.coord(src)
	tx, ty := n.coord(dst)
	w, h := n.cfg.TilesX, n.cfg.TilesY
	for x != tx {
		nx, dir := step(x, tx, w, dirXPlus, dirXMinus)
		hop(y*w+x, y*w+nx, dir)
		x = nx
	}
	for y != ty {
		ny, dir := step(y, ty, h, dirYPlus, dirYMinus)
		hop(y*w+x, ny*w+x, dir)
		y = ny
	}
}

// step moves cur one position toward target around a ring of size
// positions, the shorter way, and names the link it crosses.
func step(cur, target, size, plus, minus int) (int, int) {
	d := target - cur
	forward := d > 0
	if abs(d) > size-abs(d) {
		forward = !forward
	}
	next := (cur - 1 + size) % size
	if forward {
		next = (cur + 1) % size
	}
	if next == (cur+1)%size {
		return next, plus
	}
	return next, minus
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// LinkStats summarizes link occupancy for congestion analysis.
type LinkStats struct {
	// Links counts the links that carried bytes.
	Links int
	// MaxBusy is the busiest link's accumulated service time.
	MaxBusy sim.Time
	// TotalByteLinks sums the bytes every link served.
	TotalByteLinks int64
}

// LinkUtilization returns the occupancy summary of the links that have
// carried bytes so far.
func (n *NoC) LinkUtilization() LinkStats {
	var st LinkStats
	for _, s := range n.links {
		if s == nil || s.ServedCount() == 0 {
			continue
		}
		st.Links++
		if b := s.BusyCycles(); b > st.MaxBusy {
			st.MaxBusy = b
		}
		st.TotalByteLinks += int64(s.ServedBytes())
	}
	return st
}
