// Package noc models the accelerator's 2D-torus network-on-chip (Section
// VI-A/VI-C): X-Y dimension-order routing over torus links, per-tile
// injection/ejection bandwidth, and the probe/acknowledge synchronization
// handshake dynamic pipelines need before forwarding data between stages.
package noc

import (
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// NoC is the on-chip network model. Tile groups are addressed by their
// centroid tile in the chip's linear (row-major) enumeration.
type NoC struct {
	env    *sim.Env
	cfg    hw.Config
	inject []*sim.Server // per-tile injection port
	eject  []*sim.Server // per-tile ejection port
	// links holds the unidirectional torus links, four per tile (see
	// links.go); a link's server is created when a resolved route first
	// crosses it.
	links []*sim.Server
	// baseRate is the healthy per-port bandwidth; rate is the current
	// (possibly derated) one, applied to links created later too.
	baseRate, rate float64
	// Accounting.
	byteHops  int64
	transfers int64
	probes    int64
	// rec, when enabled, records every payload transfer as a span on track
	// (nil: recording disabled, zero overhead).
	rec   *telemetry.Recorder
	track telemetry.TrackID
}

// New builds the NoC model for cfg, running at cfg's NoC derate.
func New(env *sim.Env, cfg hw.Config) *NoC {
	healthy := cfg
	healthy.NoCDerate = 0
	n := &NoC{env: env, cfg: cfg, baseRate: healthy.NoCBytesPerCycle(),
		links: make([]*sim.Server, dirs*cfg.Tiles())}
	n.rate = n.baseRate
	for i := 0; i < cfg.Tiles(); i++ {
		n.inject = append(n.inject, sim.NewServer(env, n.rate))
		n.eject = append(n.eject, sim.NewServer(env, n.rate))
	}
	n.Derate(cfg.NoCDerate)
	return n
}

// SetRecorder attaches a telemetry recorder: every payload transfer is
// recorded as a span (injection-queueing through delivery) with src/dst tile
// and byte-count args. A nil recorder disables recording at zero cost.
func (n *NoC) SetRecorder(rec *telemetry.Recorder) {
	n.rec = rec
	n.track = rec.Track("noc")
}

// Derate sets every port and link to factor times the healthy bandwidth
// (fault injection: degraded torus links). The factor is absolute; 1 (or the
// config zero value 0) restores the healthy rate. Links first resolved after
// the call inherit the derated rate.
func (n *NoC) Derate(factor float64) {
	if factor <= 0 || factor > 1 {
		factor = 1
	}
	n.rate = n.baseRate * factor
	for i := range n.inject {
		n.inject[i].SetRate(n.rate)
		n.eject[i].SetRate(n.rate)
	}
	for _, l := range n.links {
		if l != nil {
			l.SetRate(n.rate)
		}
	}
}

// coord returns the (x, y) grid position of a linear tile index.
func (n *NoC) coord(tile int) (x, y int) {
	return tile % n.cfg.TilesX, tile / n.cfg.TilesX
}

// Hops returns the X-Y routing hop count between two tiles on the torus
// (wraparound links halve worst-case distances).
func (n *NoC) Hops(from, to int) int {
	fx, fy := n.coord(from)
	tx, ty := n.coord(to)
	return torusDist(fx, tx, n.cfg.TilesX) + torusDist(fy, ty, n.cfg.TilesY)
}

func torusDist(a, b, size int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if wrap := size - d; wrap < d {
		d = wrap
	}
	return d
}

// Centroid returns the representative tile of a region [start, count] in the
// linear enumeration.
func Centroid(region [2]int) int {
	return region[0] + region[1]/2
}

// probeCycles is the latency of one small control packet traversing h hops.
func (n *NoC) probeCycles(h int) sim.Time {
	return sim.Time((h + 1) * n.cfg.RouterHopCycles)
}

// Probe counts one probe/acknowledge handshake of Section VI-C over w — the
// source queries the destination and waits for the acknowledgment — and
// returns its round-trip time, which the calling process waits out. The
// extra readiness delay (how long until the destination can accept data) is
// applied by the caller via dstReadyAt; Probe accounts only the round trip.
func (n *NoC) Probe(w *Wire) sim.Time {
	n.probes++
	return 2 * n.probeCycles(w.hops)
}

// Transfer is one payload transfer in flight over a resolved route from the
// tile region around its source to the region around its destination. A
// process moves it in three steps, waiting in between: Inject books the
// source's injection port, Route books the route's links and the
// destination's ejection port at the instant injection finishes, and
// Deliver records the transfer once the payload has arrived. The bookings are synchronous, so their order on the shared
// bandwidth servers is the order the processes reach them.
type Transfer struct {
	w            *Wire
	bytes, share int64
	start        sim.Time
}

// Inject starts a transfer of bytes over w and books its share on the
// source's injection port. ways is the transfer's port-level parallelism — a
// region of k tiles drives k injection ports concurrently, so a
// region-to-region transfer streams through min(srcTiles, dstTiles) ports
// (modelled as a proportional speedup of the representative port).
//
// It returns the time injection finishes, when the caller must call Route.
// ok is false when nothing crosses the network — no bytes, or a route from
// a tile to itself (the data stays in the local scratchpad) — and the
// transfer is complete.
func (n *NoC) Inject(x *Transfer, w *Wire, bytes int64, ways int) (injected sim.Time, ok bool) {
	if bytes <= 0 {
		return n.env.Now(), false
	}
	if ways < 1 {
		ways = 1
	}
	n.byteHops += bytes * int64(w.hops)
	n.transfers++
	if w.src == w.dst {
		return n.env.Now(), false
	}
	share := (bytes + int64(ways) - 1) / int64(ways)
	*x = Transfer{w: w, bytes: bytes, share: share, start: n.env.Now()}
	return n.inject[w.src].Reserve(share), true
}

// Route books the injected payload on every link of its X-Y route, in path
// order (wormhole occupancy: the transfer holds all its links for its
// serialization time, contending on shared ones), and on the destination's
// ejection port. Call it at the instant injection finishes; it returns the
// time the payload has fully arrived: the slowest link plus the per-hop
// latency, or the ejection port if that finishes later.
func (n *NoC) Route(x *Transfer) sim.Time {
	var done sim.Time
	for _, l := range x.w.links {
		if t := l.Reserve(x.share); t > done {
			done = t
		}
	}
	done += n.probeCycles(x.w.hops)
	if t := n.eject[x.w.dst].Reserve(x.share); t > done {
		done = t
	}
	return done
}

// Deliver completes the transfer once its payload has arrived (the later
// of the Route time and the injection finish), recording it as a span.
func (n *NoC) Deliver(x *Transfer) {
	if n.rec.Enabled() {
		n.rec.Span(n.track, "noc", "xfer", int64(x.start), int64(n.env.Now()),
			telemetry.I("src", int64(x.w.src)), telemetry.I("dst", int64(x.w.dst)),
			telemetry.I("bytes", x.bytes), telemetry.I("hops", int64(x.w.hops)))
	}
}

// ByteHops returns the accumulated byte-hop product (for NoC energy).
func (n *NoC) ByteHops() int64 { return n.byteHops }

// Transfers returns the number of payload transfers.
func (n *NoC) Transfers() int64 { return n.transfers }

// Probes returns the number of probe handshakes performed.
func (n *NoC) Probes() int64 { return n.probes }
