package sched

import (
	"fmt"
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

	// Stable entity order by region start.
	type ent struct {
		lead  graph.OpID
		plan  *OpPlan
		code  string
		start int
	}
	var ents []*ent
	for lead, op := range seg.Plans {
		ents = append(ents, &ent{lead: lead, plan: op, start: op.Region[0]})
	}
	for i := 0; i < len(ents); i++ {
		for j := i + 1; j < len(ents); j++ {
			if ents[j].start < ents[i].start ||
				(ents[j].start == ents[i].start && ents[j].lead < ents[i].lead) {
				ents[i], ents[j] = ents[j], ents[i]
			}
		}
	}
	codes := "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	for i, e := range ents {
		c := string(codes[i%len(codes)])
		if i >= len(codes) {
			c = strings.ToLower(c)
		}
		e.code = c
	}
	// Regions index the live (surviving) tile enumeration; translate through
	// the fault mask to physical grid positions. Failed tiles render as 'x'.
	byTile := make([]string, cfg.Tiles())
	phys, live := cfg.TileMap(), cfg.LiveTiles()
	for _, e := range ents {
		if e.plan.GroupLeader != graph.None && e.plan.GroupLeader != e.lead {
			continue // grouped follower shares the leader's tiles
		}
		for t := e.plan.Region[0]; t < e.plan.Region[0]+e.plan.Region[1] && t < live; t++ {
			if pt := phys.Physical(t); pt < len(byTile) {
				byTile[pt] = e.code
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
	for _, e := range ents {
		op := g.Op(e.lead)
		kernels := 0
		for _, o := range e.plan.Options {
			kernels += o.KernelCount()
		}
		extra := ""
		if e.plan.Partner != graph.None {
			extra = fmt.Sprintf(" shares-with=%s", g.Op(e.plan.Partner).Name)
		}
		if e.plan.GroupLeader != graph.None && e.plan.GroupLeader != e.lead {
			extra = fmt.Sprintf(" grouped-under=%s", g.Op(e.plan.GroupLeader).Name)
		}
		fused := ""
		if n := len(e.plan.Fused); n > 0 {
			fused = fmt.Sprintf(" +%d fused", n)
		}
		fmt.Fprintf(&b, "  %s %-18s tiles=%-3d kernels=%-3d%s%s\n",
			e.code, op.Name, e.plan.BaseTiles, kernels, fused, extra)
	}
	return b.String(), nil
}
