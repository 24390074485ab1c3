package noc

import (
	"repro/internal/sim"
)

// Link-level modelling: X-Y dimension-order routing visits a concrete
// sequence of unidirectional torus links; each link is a bandwidth server,
// so two transfers crossing the same link contend for it even when their
// endpoints differ — the congestion a hop-count-only model misses.

// linkID identifies a unidirectional link leaving a tile.
type linkID struct {
	from int
	dir  int // 0:+x 1:-x 2:+y 3:-y
}

// Directions.
const (
	dirXPlus = iota
	dirXMinus
	dirYPlus
	dirYMinus
)

// link returns (lazily creating) the server for one link.
func (n *NoC) link(id linkID) *sim.Server {
	if n.links == nil {
		n.links = map[linkID]*sim.Server{}
	}
	s, ok := n.links[id]
	if !ok {
		s = sim.NewServer(n.env, n.rate)
		n.links[id] = s
	}
	return s
}

// Path returns the tiles an X-Y routed packet traverses from src to dst,
// inclusive of both endpoints, taking the shorter torus direction in each
// dimension.
func (n *NoC) Path(src, dst int) []int {
	return n.appendPath(nil, src, dst)
}

// appendPath appends Path(src, dst) to path.
func (n *NoC) appendPath(path []int, src, dst int) []int {
	path = append(path, src)
	x, y := n.coord(src)
	tx, ty := n.coord(dst)
	step := func(cur, target, size int) (int, bool) {
		if cur == target {
			return cur, false
		}
		d := target - cur
		// Take the shorter way around the torus.
		forward := d > 0
		if abs(d) > size-abs(d) {
			forward = !forward
		}
		if forward {
			return (cur + 1) % size, true
		}
		return (cur - 1 + size) % size, true
	}
	for {
		nx, moved := step(x, tx, n.cfg.TilesX)
		if !moved {
			break
		}
		x = nx
		path = append(path, y*n.cfg.TilesX+x)
	}
	for {
		ny, moved := step(y, ty, n.cfg.TilesY)
		if !moved {
			break
		}
		y = ny
		path = append(path, y*n.cfg.TilesX+x)
	}
	return path
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// linkBetween returns the unidirectional link joining two adjacent tiles of
// a path.
func (n *NoC) linkBetween(from, to int) linkID {
	fx, fy := n.coord(from)
	tx, ty := n.coord(to)
	var dir int
	switch {
	case tx == (fx+1)%n.cfg.TilesX && ty == fy:
		dir = dirXPlus
	case tx == (fx-1+n.cfg.TilesX)%n.cfg.TilesX && ty == fy:
		dir = dirXMinus
	case ty == (fy+1)%n.cfg.TilesY && tx == fx:
		dir = dirYPlus
	default:
		dir = dirYMinus
	}
	return linkID{from: from, dir: dir}
}

// reserveLinks books the payload on every link of the path (wormhole-style:
// the transfer occupies all its links for its serialization time) and
// returns the completion time of the slowest link plus the per-hop latency.
// The path is built in a buffer the NoC reuses, so booking allocates nothing.
func (n *NoC) reserveLinks(src, dst int, share int64) sim.Time {
	n.pathBuf = n.appendPath(n.pathBuf[:0], src, dst)
	path := n.pathBuf
	var done sim.Time
	for i := 0; i+1 < len(path); i++ {
		if t := n.link(n.linkBetween(path[i], path[i+1])).Reserve(share); t > done {
			done = t
		}
	}
	return done + n.probeCycles(len(path)-1)
}

// LinkStats summarizes link occupancy for congestion analysis.
type LinkStats struct {
	Links          int
	MaxBusy        sim.Time
	TotalByteLinks int64
}

// LinkUtilization returns the occupancy summary of all links touched so far.
func (n *NoC) LinkUtilization() LinkStats {
	var st LinkStats
	for _, s := range n.links {
		st.Links++
		if b := s.BusyCycles(); b > st.MaxBusy {
			st.MaxBusy = b
		}
		st.TotalByteLinks += int64(s.ServedBytes())
	}
	return st
}
