package noc

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
)

func TestTorusHops(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, hw.Default()) // 12x12 torus
	cases := []struct{ from, to, want int }{
		{0, 0, 0},
		{0, 1, 1},   // adjacent in x
		{0, 12, 1},  // adjacent in y
		{0, 11, 1},  // wraparound in x
		{0, 6, 6},   // farthest in x
		{0, 132, 1}, // wraparound in y (row 11)
		{0, 78, 12}, // (6,6): farthest point on the torus
		{13, 26, 2}, // (1,1) -> (2,2)
	}
	for _, tc := range cases {
		if got := n.Hops(tc.from, tc.to); got != tc.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", tc.from, tc.to, got, tc.want)
		}
		if n.Hops(tc.to, tc.from) != n.Hops(tc.from, tc.to) {
			t.Errorf("hops not symmetric for (%d,%d)", tc.from, tc.to)
		}
	}
}

func TestCentroid(t *testing.T) {
	if Centroid([2]int{10, 4}) != 12 {
		t.Fatalf("centroid = %d, want 12", Centroid([2]int{10, 4}))
	}
	if Centroid([2]int{5, 1}) != 5 {
		t.Fatal("single-tile region centroid must be itself")
	}
}

// transfer spawns a process that moves bytes from src to dst through the
// three booking steps over a freshly resolved route, as the accelerator's
// network-interface sender does, and returns where its delivery time will be
// stored.
func transfer(env *sim.Env, n *NoC, src, dst int, bytes int64, ways int) *sim.Time {
	done := new(sim.Time)
	w := n.Resolve(src, dst)
	var x Transfer
	pc := 0
	env.Spawn("xfer", func(p *sim.Proc) bool {
		switch pc {
		case 0:
			injected, ok := n.Inject(&x, &w, bytes, ways)
			if !ok {
				*done = p.Now()
				return true
			}
			pc = 1
			p.Wait(injected - p.Now())
			return false
		case 1:
			pc = 2
			if t := n.Route(&x); t > p.Now() {
				p.Wait(t - p.Now())
				return false
			}
		}
		n.Deliver(&x)
		*done = p.Now()
		return true
	})
	return done
}

func TestTransferTiming(t *testing.T) {
	env := sim.NewEnv()
	cfg := hw.Default()
	n := New(env, cfg)
	done := transfer(env, n, 0, 1, 1920, 1) // 10 cycles injection at 192 B/cyc
	env.Run()
	// 10 cycles inject + hop latency + 10 cycles eject (overlapping starts
	// after reserve). Expect at least the serialization plus hop latency.
	if *done < 10 {
		t.Fatalf("transfer too fast: %d cycles", *done)
	}
	if n.ByteHops() != 1920 {
		t.Fatalf("byte-hops = %d, want 1920", n.ByteHops())
	}
	if n.Transfers() != 1 {
		t.Fatal("transfer count wrong")
	}
}

func TestTransferSameTileFree(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, hw.Default())
	done := transfer(env, n, 5, 5, 1<<20, 4)
	env.Run()
	if *done != 0 {
		t.Errorf("local transfer must be free, took %d", *done)
	}
}

func TestProbeRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	cfg := hw.Default()
	n := New(env, cfg)
	w := n.Resolve(0, 6) // 6 hops
	got := n.Probe(&w)
	if want := sim.Time(2 * (6 + 1) * cfg.RouterHopCycles); got != want {
		t.Errorf("probe takes %d, want %d", got, want)
	}
	if n.Probes() != 1 {
		t.Fatal("probe count wrong")
	}
}

func TestInjectionContention(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, hw.Default())
	t1 := transfer(env, n, 0, 1, 19200, 1)
	t2 := transfer(env, n, 0, 2, 19200, 1)
	env.Run()
	// Both share tile 0's injection port: the second must queue behind the
	// first's 100-cycle serialization.
	if *t2 < *t1+100 && *t1 < *t2+100 {
		t.Fatalf("no injection contention visible: %d vs %d", *t1, *t2)
	}
}

func TestPathFollowsXYRouting(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, hw.Default())
	// (1,1)=13 to (3,2)=27: X first (14, 15), then Y (27).
	path := n.Path(13, 27)
	want := []int{13, 14, 15, 27}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	// Wraparound: (0,0) to (11,0) is one hop via the torus link.
	wrap := n.Path(0, 11)
	if len(wrap) != 2 || wrap[1] != 11 {
		t.Fatalf("wrap path = %v", wrap)
	}
	// Path length always hops+1.
	for _, pair := range [][2]int{{0, 78}, {5, 100}, {143, 0}} {
		p := n.Path(pair[0], pair[1])
		if len(p) != n.Hops(pair[0], pair[1])+1 {
			t.Fatalf("path %v length != hops+1", p)
		}
	}
}

func TestSharedLinkContention(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, hw.Default())
	// Two transfers with disjoint endpoints whose X-Y routes both cross
	// links 1->2, 2->3 and 3->4: the later one queues ~100 cycles on them.
	u1 := transfer(env, n, 0, 4, 192*100, 1)
	u2 := transfer(env, n, 1, 5, 192*100, 1)
	env.Run()
	if *u2 < *u1+90 {
		t.Fatalf("no link contention visible: %d vs %d", *u1, *u2)
	}
	st := n.LinkUtilization()
	if st.Links == 0 || st.MaxBusy == 0 {
		t.Fatalf("link stats empty: %+v", st)
	}
}

func TestLinkUtilizationAccounting(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, hw.Default())
	transfer(env, n, 0, 2, 1920, 1)
	n.Resolve(30, 90) // resolved but never carries bytes: not counted
	env.Run()
	st := n.LinkUtilization()
	if st.Links != 2 { // links 0->1 and 1->2
		t.Fatalf("links touched = %d, want 2", st.Links)
	}
	if st.TotalByteLinks != 2*1920 {
		t.Fatalf("byte-links = %d, want %d", st.TotalByteLinks, 2*1920)
	}
}

// linkBetween is the test's own oracle for the link joining two adjacent
// tiles: the direction is read off their coordinates, positive first (on a
// two-wide ring both directions join the same pair of tiles).
func linkBetween(n *NoC, from, to int) *sim.Server {
	w, h := n.cfg.TilesX, n.cfg.TilesY
	fx, fy := from%w, from/w
	tx, ty := to%w, to/w
	dir := dirYMinus
	switch {
	case ty == fy && tx == (fx+1)%w:
		dir = dirXPlus
	case ty == fy && tx == (fx-1+w)%w:
		dir = dirXMinus
	case tx == fx && ty == (fy+1)%h:
		dir = dirYPlus
	}
	return n.links[from*dirs+dir]
}

// TestResolveMatchesPath: for every pair of tiles, the resolved route's
// links are the links between consecutive tiles of Path, in order, and its
// hop count is Hops — on the default 12x12 torus, an odd 5x3 one, and a
// 4x2 one whose two-wide ring reaches the same neighbour both ways.
func TestResolveMatchesPath(t *testing.T) {
	for _, dims := range [][2]int{{12, 12}, {5, 3}, {4, 2}} {
		cfg := hw.Default()
		cfg.TilesX, cfg.TilesY = dims[0], dims[1]
		n := New(sim.NewEnv(), cfg)
		for src := 0; src < cfg.Tiles(); src++ {
			for dst := 0; dst < cfg.Tiles(); dst++ {
				w := n.Resolve(src, dst)
				path := n.Path(src, dst)
				if w.src != src || w.dst != dst || w.hops != n.Hops(src, dst) || len(path) != w.hops+1 {
					t.Fatalf("%dx%d %d->%d: wire (%d->%d, %d hops), Hops %d, path %v",
						dims[0], dims[1], src, dst, w.src, w.dst, w.hops, n.Hops(src, dst), path)
				}
				if len(w.links) != w.hops {
					t.Fatalf("%dx%d %d->%d: %d links for %d hops", dims[0], dims[1], src, dst, len(w.links), w.hops)
				}
				for i, l := range w.links {
					if want := linkBetween(n, path[i], path[i+1]); l == nil || l != want {
						t.Fatalf("%dx%d %d->%d: link %d is not the %d->%d link",
							dims[0], dims[1], src, dst, i, path[i], path[i+1])
					}
				}
			}
		}
	}
}

// TestResolvedRoutesShareLinks: two routes crossing the same link book the
// same server, and resolving a route twice yields the same links.
func TestResolvedRoutesShareLinks(t *testing.T) {
	n := New(sim.NewEnv(), hw.Default())
	a, b := n.Resolve(0, 4), n.Resolve(1, 5)
	if a.links[1] != b.links[0] { // both cross 1->2
		t.Fatal("routes crossing link 1->2 hold different servers")
	}
	again := n.Resolve(0, 4)
	for i := range a.links {
		if again.links[i] != a.links[i] {
			t.Fatalf("re-resolving 0->4 changed link %d", i)
		}
	}
}

// TestDerateReachesUnusedLinks: Derate re-rates links already resolved but
// not yet used, and links resolved afterwards start at the derated rate;
// restoring the healthy factor re-rates both.
func TestDerateReachesUnusedLinks(t *testing.T) {
	cfg := hw.Default()
	n := New(sim.NewEnv(), cfg)
	before := n.Resolve(0, 3)
	n.Derate(0.5)
	after := n.Resolve(20, 23)
	half := cfg.NoCBytesPerCycle() * 0.5
	for _, w := range []Wire{before, after} {
		for _, l := range w.links {
			if l.Rate() != half {
				t.Fatalf("link rate %v after Derate(0.5), want %v", l.Rate(), half)
			}
		}
	}
	n.Derate(1)
	for _, w := range []Wire{before, after} {
		for _, l := range w.links {
			if l.Rate() != cfg.NoCBytesPerCycle() {
				t.Fatalf("link rate %v after Derate(1), want %v", l.Rate(), cfg.NoCBytesPerCycle())
			}
		}
	}
}
