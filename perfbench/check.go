package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"repro/internal/serve"
)

// checker collects failed correctness checks and a digest of the outcomes a
// pass produced. The digest is not a metric: two runs at one seed must print
// the same digest, so a change meant to touch only host speed can show at a
// glance that simulated behaviour stayed byte-identical.
type checker struct {
	problems []string
	h        hash.Hash
}

func newChecker() *checker { return &checker{h: sha256.New()} }

func (c *checker) failf(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// record folds one line of outcome data into the digest.
func (c *checker) record(format string, args ...any) {
	fmt.Fprintf(c.h, format+"\n", args...)
}

func (c *checker) digest() string { return hex.EncodeToString(c.h.Sum(nil))[:16] }

// counts checks that one server's outcome split covers its requests.
func (c *checker) counts(label string, requests, served, missed, shed int) {
	if served+missed+shed != requests {
		c.failf("%s: served %d + missed %d + shed %d != requests %d", label, served, missed, shed, requests)
	}
}

// outcomes checks an outcome log against a stream of want requests with ids
// 0..want-1: every id reaches exactly one terminal outcome, and every
// executed request completes no earlier than it arrived. The log is folded
// into the digest in terminal order.
func (c *checker) outcomes(label string, outs []serve.RequestResult, want int) {
	seen := make([]bool, want)
	for _, o := range outs {
		c.record("%s %d %d %d %d", label, o.ID, o.Arrival, o.Done, o.Outcome)
		if o.ID < 0 || o.ID >= want {
			c.failf("%s: request id %d outside the stream of %d", label, o.ID, want)
			continue
		}
		if seen[o.ID] {
			c.failf("%s: request %d reached a terminal outcome twice", label, o.ID)
		}
		seen[o.ID] = true
		if o.Outcome != serve.Shed && o.Done < o.Arrival {
			c.failf("%s: request %d done at %d before its arrival %d", label, o.ID, o.Done, o.Arrival)
		}
	}
	missing := 0
	for _, s := range seen {
		if !s {
			missing++
		}
	}
	if missing > 0 {
		c.failf("%s: %d of %d requests never reached a terminal outcome", label, missing, want)
	}
}
