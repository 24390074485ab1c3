package models

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/workload"
)

// pabeeLayers is the number of transformer layers (BERT-base: 12).
const pabeeLayers = 12

// PABEE builds the early-exiting BERT of [70] as nested switches, following
// Figure 5(a): after every transformer layer a patience-based gate either
// routes a sample to an exit classifier (a sink: the result is emitted) or to
// the next layer. Sequence length 128, hidden 768, FFN 3072 — BERT-base on
// GLUE. The large per-layer activations (seq x hidden) make the model
// memory-bound, which is why the paper's M-tenant baseline (no pipelining)
// loses to M-tile on it.
//
// The trace generator draws each sample's exit layer from a normal
// distribution centred mid-network (patience exits cluster there), with the
// centre drifting over time.
func PABEE(batchSamples int) (*Workload, error) { return pabeeModel.build(batchSamples) }

func pabeeGraph(batchSamples int) (*graph.Graph, error) {
	const (
		seq    = 128
		hidden = 768
		ffn    = 3072
	)
	actBytes := int64(seq) * int64(hidden) * 2

	b := graph.NewBuilder("pabee", 1)
	x := b.Input("embeddings", actBytes, batchSamples)
	for l := 0; l < pabeeLayers; l++ {
		name := func(part string) string { return fmt.Sprintf("l%d_%s", l, part) }
		qkv := b.SeqMatMul(name("qkv"), x, seq, hidden, 3*hidden)
		attn := b.Attention(name("attn"), qkv, seq, hidden)
		proj := b.SeqMatMul(name("proj"), attn, seq, hidden, hidden)
		ln1 := b.LayerNorm(name("ln1"), proj, actBytes)
		f1 := b.SeqMatMul(name("ffn1"), ln1, seq, hidden, ffn)
		f2 := b.SeqMatMul(name("ffn2"), f1, seq, ffn, hidden)
		x = b.LayerNorm(name("ln2"), f2, actBytes)
		if l == pabeeLayers-1 {
			break // the last layer always produces the final output
		}
		gate := b.Gate(name("gate"), x, hidden, 2)
		br := b.Switch(name("sw"), x, gate, 2)
		exit := b.MatMul(name("exit_cls"), br[0], hidden, 2)
		b.Sink(name("exit"), exit)
		x = br[1] // continue into the next layer
	}
	cls := b.MatMul("final_cls", x, hidden, 2)
	b.Output("logits", cls)

	return b.Build()
}

func pabeeOn(g *graph.Graph) *Workload {
	return &Workload{
		Name:         "PABEE",
		Category:     "dynamic depth",
		Graph:        g,
		DefaultBatch: batchOf(g),
		Gen:          &pabeeGen{mean: slowDrift(6.5, 4, 9.5, 0.06)},
		Exclusive:    true,
	}
}

type pabeeGen struct {
	mean   *workload.Drift
	exitAt []int // Next's scratch: each sample's exit layer
}

func (g *pabeeGen) Next(src *workload.Source, units int) graph.BatchRouting {
	mean := g.mean.Step(src)
	// Exit layer per sample: 1-based; pabeeLayers means "never exited".
	if cap(g.exitAt) < units {
		g.exitAt = make([]int, units)
	}
	exitAt := g.exitAt[:units]
	for i := range exitAt {
		exitAt[i] = src.NormInt(mean, 2.5, 1, pabeeLayers)
	}
	rt := make(graph.BatchRouting, pabeeLayers-1) // no switch after the last layer
	for l := range rt {
		layer := l + 1 // the switch after layer l+1
		// Units that exited at an earlier switch (e < layer) are not
		// present here. Both lists are capped windows of one exactly-sized
		// array, nil when empty.
		nExit, nCont := 0, 0
		for _, e := range exitAt {
			if e == layer {
				nExit++
			} else if e > layer {
				nCont++
			}
		}
		backing := make([]int32, nExit+nCont)
		var exit, cont []int32
		if nExit > 0 {
			exit = backing[:0:nExit]
		}
		if nCont > 0 {
			cont = backing[nExit:nExit]
		}
		for i, e := range exitAt {
			if e == layer {
				exit = append(exit, int32(i))
			} else if e > layer {
				cont = append(cont, int32(i))
			}
		}
		rt[l] = graph.Routing{Branch: [][]int32{exit, cont}}
	}
	return rt
}
