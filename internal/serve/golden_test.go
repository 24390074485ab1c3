package serve

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/sim/simtest"
)

// goldenDir holds the depth-1 goldens: outcome logs, snapshots and trace
// digests recorded from the blocking batch loop that served depths 0 and 1
// before the pipelined loop became the only one. They are behaviour
// contracts, not snapshots to refresh: a diff here means depth 1 no longer
// retires each batch before the next forms, exactly as that loop did.
var goldenDir = filepath.Join("testdata", "golden")

// TestDepthOneMatchesGolden pins depths 0 and 1 — both "retire each batch
// before the next forms" — to the recorded pre-merge artifacts on a skipnet
// burst and on the fault headline.
func TestDepthOneMatchesGolden(t *testing.T) {
	scenarios := []struct {
		name string
		cfg  func() Config
		src  func() Source
	}{
		{"skipnet-burst", func() Config { return burstConfig("skipnet", 1) },
			func() Source { return NewSynthetic(160, 30_000, 9, nil) }},
		{"fault-headline", faultHeadlineConfig,
			func() Source { return NewSynthetic(200, 80_000, 2, nil) }},
	}
	for _, sc := range scenarios {
		for _, depth := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/depth=%d", sc.name, depth), func(t *testing.T) {
				cfg := sc.cfg()
				cfg.PipelineDepth = depth
				simtest.Golden(t, goldenDir, sc.name, serveArtifacts(t, cfg, sc.src(), true))
			})
		}
	}
}
