package graph_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/workload"
)

// refAssignUnits is the map-based AssignUnits that per-batch dense unit
// vectors replaced, kept as the reference they must reproduce: routing
// keyed by switch ID, one map entry per operator.
func refAssignUnits(g *graph.Graph, batchUnits int, rt map[graph.OpID]graph.Routing) (map[graph.OpID]int, error) {
	if batchUnits < 0 {
		return nil, fmt.Errorf("graph: negative batch units %d", batchUnits)
	}
	units := make(map[graph.OpID]int, len(g.Ops))
	for _, id := range g.Topo() {
		op := g.Op(id)
		switch op.Kind {
		case graph.KindInput:
			units[id] = batchUnits
		case graph.KindSwitch:
			units[id] = units[op.Inputs[0]]
			r, ok := rt[id]
			if !ok {
				return nil, fmt.Errorf("graph: no routing for switch %s", op.Name)
			}
			if len(r.Branch) != op.NumBranches {
				return nil, fmt.Errorf("graph: switch %s routing has %d branches, want %d",
					op.Name, len(r.Branch), op.NumBranches)
			}
		case graph.KindMerge:
			units[id] = units[op.MergeOf]
		default:
			u := 0
			for _, in := range op.Inputs {
				v := units[in]
				if prod := g.Op(in); prod.Kind == graph.KindSwitch && op.SwitchOf == in {
					r := rt[in]
					if op.Branch < 0 || op.Branch >= len(r.Branch) {
						return nil, fmt.Errorf("graph: op %s claims branch %d of switch %s", op.Name, op.Branch, prod.Name)
					}
					v = len(r.Branch[op.Branch])
				}
				u = max(u, v)
			}
			units[id] = u
		}
		if units[id] > op.MaxUnits {
			return nil, fmt.Errorf("graph: op %s receives %d units, max %d",
				op.Name, units[id], op.MaxUnits)
		}
	}
	return units, nil
}

// keyed converts an ordinal-indexed routing to the reference's map.
func keyed(g *graph.Graph, rt graph.BatchRouting) map[graph.OpID]graph.Routing {
	m := make(map[graph.OpID]graph.Routing, len(rt))
	for o, r := range rt {
		m[g.Switches()[o]] = r
	}
	return m
}

// checkAssign compares AssignUnits, into a reused buffer, with the
// reference: the same error, or the same unit count for every operator.
// It fails unless the batch resolves exactly when ok is set.
func checkAssign(t *testing.T, g *graph.Graph, buf []int, batchUnits int, rt graph.BatchRouting, ok bool) []int {
	t.Helper()
	want, wantErr := refAssignUnits(g, batchUnits, keyed(g, rt))
	got, err := g.AssignUnits(buf, batchUnits, rt)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", g.Name, err, wantErr)
	}
	if (err == nil) != ok {
		t.Fatalf("%s: error %v, want failure %v", g.Name, err, !ok)
	}
	if err != nil {
		return got
	}
	if len(got) != len(g.Ops) {
		t.Fatalf("%s: %d unit counts for %d operators", g.Name, len(got), len(g.Ops))
	}
	for id, u := range got {
		if want[graph.OpID(id)] != u {
			t.Fatalf("%s: op %s has %d units, reference %d", g.Name, g.Ops[id].Name, u, want[graph.OpID(id)])
		}
	}
	return got
}

// TestAssignUnitsMatchesReference replays every model's traces at seeds
// 1-3 through AssignUnits and the map-based reference, and hand-made bad
// routings: a missing switch, a wrong branch count and units over an
// operator's MaxUnits must fail with the reference's error.
func TestAssignUnitsMatchesReference(t *testing.T) {
	for _, name := range append(models.Names(), "adavit", "ranet", "gcn") {
		for seed := int64(1); seed <= 3; seed++ {
			w, err := models.ByName(name, 16)
			if err != nil {
				t.Fatal(err)
			}
			g := w.Graph
			var buf []int
			for _, b := range w.GenTrace(workload.NewSource(seed), 12, 16) {
				buf = checkAssign(t, g, buf, b.Units, b.Routing, true)
			}
			b := w.GenTrace(workload.NewSource(seed), 1, 16)[0]
			last := len(b.Routing) - 1
			checkAssign(t, g, buf, b.Units, b.Routing[:last], false) // missing switch
			wrong := slices.Clone(b.Routing)
			wrong[last].Branch = wrong[last].Branch[1:]
			checkAssign(t, g, buf, b.Units, wrong, false)       // wrong branch count
			checkAssign(t, g, buf, b.Units+1, b.Routing, false) // over the input's MaxUnits
			over := slices.Clone(b.Routing)
			over[0].Branch = slices.Clone(over[0].Branch)
			over[0].Branch[0] = make([]int32, b.Units+1)
			checkAssign(t, g, buf, b.Units, over, false) // over a branch head's MaxUnits
			checkAssign(t, g, buf, -1, b.Routing, false)
		}
	}
}

// AssignUnits into a buffer it returned before allocates nothing.
func TestAssignUnitsReusesBuffer(t *testing.T) {
	w, err := models.ByName("tutel-moe", 32)
	if err != nil {
		t.Fatal(err)
	}
	b := w.GenTrace(workload.NewSource(1), 1, 32)[0]
	buf, err := w.Graph.AssignUnits(nil, b.Units, b.Routing)
	if err != nil {
		t.Fatal(err)
	}
	first := slices.Clone(buf)
	if allocs := testing.AllocsPerRun(10, func() {
		buf, _ = w.Graph.AssignUnits(buf, b.Units, b.Routing)
	}); allocs != 0 {
		t.Fatalf("AssignUnits into a reused buffer allocates %.0f times", allocs)
	}
	if !reflect.DeepEqual(buf, first) {
		t.Fatal("a reused buffer resolved differently")
	}
}
