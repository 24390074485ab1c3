// DSL workflow: define a DynNN in the textual model-description language
// (the Figure 4 "model parser"), schedule it, serialize both the graph and
// the compiled plan — kernels in their 128-byte on-chip format — and show
// that the deserialized artifacts simulate identically. This is the
// deployment pipeline a production user of the library would run: describe
// once, compile once, ship bytes.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/adyna"
)

const modelSrc = `
# An early-exit MLP: easy inputs leave after one block.
model exitnet units=1
input    tokens bytes=1536 max=64
seqmatmul b1    from=tokens seq=4 in=192 out=192
gate      g1    from=b1 feat=192 choices=2
switch    sw1   data=b1 mask=g1 branches=2
matmul    exit1 from=sw1:0 in=192 out=10
sink      done1 from=exit1
seqmatmul b2    from=sw1:1 seq=4 in=192 out=192
layernorm ln    from=b2 bytes=1536
matmul    head  from=ln in=192 out=10
output    yhat  from=head
`

func main() {
	// 1. Parse the description into a dynamic operator graph.
	g, err := adyna.ParseModel(modelSrc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed %q: %d operators, %d dynamic, %d switches\n",
		g.Name, len(g.Ops), len(g.DynamicOps()), len(g.Switches()))

	// 2. Schedule it under the full Adyna policy.
	cfg := adyna.DefaultConfig()
	plan, err := adyna.Schedule(cfg, g, adyna.PolicyAdyna(), nil)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Serialize graph + plan: the deployable artifact.
	var gBytes, pBytes bytes.Buffer
	if err := adyna.EncodeGraph(&gBytes, g); err != nil {
		log.Fatal(err)
	}
	if err := plan.Encode(&pBytes); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("artifact: %d graph bytes + %d plan bytes (incl. 128-byte kernels)\n",
		gBytes.Len(), pBytes.Len())

	// 4. On the "deployment" side: decode and run.
	g2, err := adyna.DecodeGraph(bytes.NewReader(gBytes.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	plan2, err := adyna.DecodePlan(bytes.NewReader(pBytes.Bytes()), g2)
	if err != nil {
		log.Fatal(err)
	}

	run := func(g *adyna.Graph, plan *adyna.Plan) int64 {
		m, err := adyna.NewMachine(cfg, g, adyna.MachineOptions{})
		if err != nil {
			log.Fatal(err)
		}
		if err := m.LoadPlan(plan); err != nil {
			log.Fatal(err)
		}
		// A fixed trace: half the batch exits early each time.
		var batches []adyna.Batch
		for i := 0; i < 10; i++ {
			var exit, cont []int32
			for u := range int32(64) {
				if (int(u)+i)%2 == 0 {
					exit = append(exit, u)
				} else {
					cont = append(cont, u)
				}
			}
			batches = append(batches, adyna.Batch{
				Index: i, Units: 64,
				Routing: adyna.BatchRouting{{Branch: [][]int32{exit, cont}}},
			})
		}
		if err := m.Run(batches); err != nil {
			log.Fatal(err)
		}
		return m.Stats().Cycles
	}
	orig := run(g, plan)
	dep := run(g2, plan2)
	fmt.Printf("original artifacts:     %d cycles\n", orig)
	fmt.Printf("deserialized artifacts: %d cycles\n", dep)
	if orig != dep {
		log.Fatal("round-tripped artifacts must simulate identically!")
	}
	fmt.Println("bit-identical execution after the byte round trip.")
}
