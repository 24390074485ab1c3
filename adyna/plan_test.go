package adyna_test

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"

	"repro/adyna"
)

// TestDecodePlanRejectsTamperedEntityOf ships a genuine skipnet plan whose
// entity_of marks a control operator of segment 0 as its own entity lead.
// Entity membership follows from the plan's entities, so the loader must
// refuse the disagreeing map instead of handing the machine a plan it
// cannot load.
func TestDecodePlanRejectsTamperedEntityOf(t *testing.T) {
	cfg := adyna.DefaultConfig()
	w, err := adyna.LoadModel("skipnet", 16)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := adyna.Schedule(cfg, w.Graph, adyna.PolicyAdyna(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Policy   json.RawMessage  `json:"policy"`
		Segments []map[string]any `json:"segments"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	seg := doc.Segments[0]
	entityOf := seg["entity_of"].(map[string]any)
	control := -1
	for _, id := range seg["ops"].([]any) {
		key := strconv.Itoa(int(id.(float64)))
		if _, ok := entityOf[key]; !ok {
			control = int(id.(float64))
			entityOf[key] = control
			break
		}
	}
	if control < 0 {
		t.Fatal("segment 0 has no control operator")
	}
	tampered, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := adyna.DecodePlan(bytes.NewReader(tampered), w.Graph)
	if err == nil {
		mach, err := adyna.NewMachine(cfg, w.Graph, adyna.MachineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Fatalf("plan naming control op %d an entity lead decoded; LoadPlan: %v", control, mach.LoadPlan(p))
	}
}
