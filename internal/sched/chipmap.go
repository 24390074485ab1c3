package sched

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/graph"
	"repro/internal/hw"
)

// ChipMap renders one segment's tile placement as an ASCII grid of the chip:
// each tile shows the entity occupying it (a two-letter code), shared pairs
// are marked, and a legend maps codes to operator names, base tiles, kernel
// counts and sharing/grouping relations. It is the schedule-debugging view
// of what LoadPlan puts on the hardware.
func (p *Plan) ChipMap(cfg hw.Config, g *graph.Graph, segment int) (string, error) {
	if segment < 0 || segment >= len(p.Segments) {
		return "", fmt.Errorf("sched: segment %d of %d", segment, len(p.Segments))
	}
	seg := p.Segments[segment]

	// Entities by region start, then lead; code(i) labels the i-th.
	ents := slices.Clone(seg.Entities)
	slices.SortFunc(ents, func(a, b *OpPlan) int {
		return cmp.Or(cmp.Compare(a.Region[0], b.Region[0]), cmp.Compare(a.Lead, b.Lead))
	})
	code := func(i int) string {
		const codes = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
		if i >= len(codes) {
			return strings.ToLower(codes[i%len(codes) : i%len(codes)+1])
		}
		return codes[i : i+1]
	}
	// Regions index the live (surviving) tile enumeration; translate through
	// the fault mask to physical grid positions. Failed tiles render as 'x'.
	byTile := make([]string, cfg.Tiles())
	phys, live := cfg.TileMap(), cfg.LiveTiles()
	for i, e := range ents {
		if e.GroupLeader != graph.None && e.GroupLeader != e.Lead {
			continue // grouped follower shares the leader's tiles
		}
		for t := e.Region[0]; t < e.Region[0]+e.Region[1] && t < live; t++ {
			if pt := phys.Physical(t); pt < len(byTile) {
				byTile[pt] = code(i)
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "segment %d of %q: %d entities on %d/%d tiles\n",
		segment, g.Name, len(ents), seg.TotalTiles(), cfg.Tiles())
	for y := 0; y < cfg.TilesY; y++ {
		for x := 0; x < cfg.TilesX; x++ {
			tile := y*cfg.TilesX + x
			c := byTile[tile]
			if cfg.TileFailed(tile) {
				c = "x"
			}
			if c == "" {
				c = "."
			}
			fmt.Fprintf(&b, " %s", c)
		}
		b.WriteByte('\n')
	}
	b.WriteString("legend:\n")
	for i, e := range ents {
		op := g.Op(e.Lead)
		kernels := 0
		for _, o := range e.Options {
			kernels += o.KernelCount()
		}
		extra := ""
		if e.Partner != graph.None {
			extra = fmt.Sprintf(" shares-with=%s", g.Op(e.Partner).Name)
		}
		if e.GroupLeader != graph.None && e.GroupLeader != e.Lead {
			extra = fmt.Sprintf(" grouped-under=%s", g.Op(e.GroupLeader).Name)
		}
		fused := ""
		if n := len(e.Fused); n > 0 {
			fused = fmt.Sprintf(" +%d fused", n)
		}
		fmt.Fprintf(&b, "  %s %-18s tiles=%-3d kernels=%-3d%s%s\n",
			code(i), op.Name, e.BaseTiles, kernels, fused, extra)
	}
	return b.String(), nil
}
