package baselines

import (
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/models"
)

// refPartitionTiles is the map-based partitionTiles that dense per-position
// tile counts replaced, kept as the reference they must reproduce.
func refPartitionTiles(cfg hw.Config, g *graph.Graph, wave []graph.OpID, units map[graph.OpID]int) map[graph.OpID]int {
	loads := map[graph.OpID]float64{}
	var sum float64
	for _, id := range wave {
		op := g.Op(id)
		effUnits := float64(units[id]) + costmodel.FittingGapShare*float64(op.MaxUnits-units[id])
		l := float64(op.MACsPerUnit) * effUnits
		if l <= 0 {
			l = 1
		}
		loads[id] = l
		sum += l
	}
	out := map[graph.OpID]int{}
	total := cfg.Tiles()
	if len(wave) >= total {
		for i, id := range wave {
			if i < total {
				out[id] = 1
			} else {
				out[id] = 0
			}
		}
		return out
	}
	assigned := 0
	for _, id := range wave {
		t := int(float64(total) * loads[id] / sum)
		if t < 1 {
			t = 1
		}
		out[id] = t
		assigned += t
	}
	for assigned > total {
		big := wave[0]
		for _, id := range wave {
			if out[id] > out[big] {
				big = id
			}
		}
		if out[big] <= 1 {
			break
		}
		out[big]--
		assigned--
	}
	return out
}

// TestPartitionTilesMatchesReference compares the tile split of random waves
// — random compute operators of every model at random unit counts, on grids
// from a single tile (so len(wave) >= tiles) up to the default chip — with
// the map-based reference, through one reused buffer.
func TestPartitionTilesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	grids := [][2]int{{1, 1}, {1, 2}, {2, 2}, {2, 3}, {4, 4}, {12, 12}}
	var tiles []int
	for _, name := range append(models.Names(), "adavit", "ranet", "gcn") {
		w, err := models.ByName(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		g := w.Graph
		ops := g.ComputeOps()
		for trial := 0; trial < 200; trial++ {
			units := make([]int, len(g.Ops))
			byID := map[graph.OpID]int{}
			for _, id := range ops {
				units[id] = rng.Intn(g.Op(id).MaxUnits + 1)
				byID[id] = units[id]
			}
			wave := make([]graph.OpID, 1+rng.Intn(min(len(ops), 24)))
			for i, j := range rng.Perm(len(ops))[:len(wave)] {
				wave[i] = ops[j]
			}
			grid := grids[rng.Intn(len(grids))]
			cfg := hw.Default()
			cfg.TilesX, cfg.TilesY = grid[0], grid[1]
			tiles = partitionTiles(tiles, cfg, g, wave, units)
			want := refPartitionTiles(cfg, g, wave, byID)
			if len(tiles) != len(wave) {
				t.Fatalf("%s: %d tile counts for a wave of %d", name, len(tiles), len(wave))
			}
			for i, id := range wave {
				if tiles[i] != want[id] {
					t.Fatalf("%s grid %v wave %v: op %d gets %d tiles, reference %d", name, grid, wave, id, tiles[i], want[id])
				}
			}
		}
	}
}
