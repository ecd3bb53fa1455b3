package scenario

import (
	"fmt"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/netsim"
	"vgprs/internal/sim"
)

// MobilityPolicy selects when a moving MS re-runs location update within
// its serving area (crossing an area boundary always triggers one).
type MobilityPolicy uint8

const (
	// PolicyDistance updates once the MS has strayed a configured number
	// of grid cells from where it last updated (the distance method of
	// the related location-management literature).
	PolicyDistance MobilityPolicy = iota + 1
	// PolicyThreshold updates after a configured number of cell changes
	// (movement-based update).
	PolicyThreshold
)

// String names the policy for tables and JSON.
func (p MobilityPolicy) String() string {
	switch p {
	case PolicyDistance:
		return "distance"
	case PolicyThreshold:
		return "threshold"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// MobilityConfig parameterises the mobility-churn scenario.
type MobilityConfig struct {
	Seed int64
	// NumMS is the roaming population (default 4, rounded up to even so
	// the handoff storm can pair callers).
	NumMS int
	// Duration is total simulated churn time (default 10 min).
	Duration time.Duration
	// Policy picks the intra-area update rule (default PolicyDistance).
	Policy MobilityPolicy
	// DistanceCells is the distance policy's threshold in grid cells
	// (Chebyshev metric, default 2).
	DistanceCells int
	// MoveThreshold is the movement policy's cell-change count (default 3).
	MoveThreshold int
	// GridWidth/GridHeight shape the cell grid (default 8x4). Columns in
	// the left half map to service area 1, the right half to area 2.
	GridWidth, GridHeight int
	// StormEvery inserts a scripted handoff storm at this period: all MSs
	// pair into calls, cross the boundary together mid-call, and hang up
	// (default 3 min; 0 < StormEvery <= Duration required to see one).
	StormEvery time.Duration
	// Tracer, when set, sees every delivery after the build; nil runs untraced.
	Tracer sim.Tracer
}

func (c *MobilityConfig) norm() {
	if c.NumMS <= 0 {
		c.NumMS = 4
	}
	if c.NumMS%2 == 1 {
		c.NumMS++
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Minute
	}
	if c.Policy == 0 {
		c.Policy = PolicyDistance
	}
	if c.DistanceCells <= 0 {
		c.DistanceCells = 2
	}
	if c.MoveThreshold <= 0 {
		c.MoveThreshold = 3
	}
	if c.GridWidth <= 1 {
		c.GridWidth = 8
	}
	if c.GridHeight <= 0 {
		c.GridHeight = 4
	}
	if c.StormEvery <= 0 {
		c.StormEvery = 3 * time.Minute
	}
}

// MobilityResult summarises one mobility-churn run.
type MobilityResult struct {
	Policy string `json:"policy"`
	MSs    int    `json:"ms"`

	// Moves counts grid steps taken; BoundaryCrossings those that changed
	// service area.
	Moves             int `json:"moves"`
	BoundaryCrossings int `json:"boundary_crossings"`
	// PolicyUpdates counts intra-area location updates the policy
	// triggered; Relocations counts idle inter-area MoveTo updates.
	PolicyUpdates int `json:"policy_updates"`
	Relocations   int `json:"relocations"`
	// HandoffAttempts counts mid-call boundary crossings reported;
	// Handovers the inter-VMSC handovers the switches completed.
	HandoffAttempts int    `json:"handoff_attempts"`
	Handovers       uint64 `json:"handovers"`
	// StormCalls counts calls the scripted storms established.
	StormCalls  int    `json:"storm_calls"`
	Retransmits uint64 `json:"retransmits"`
	// Residual is the leaked-transient-state count after drain (must be 0).
	Residual int `json:"residual"`

	Fingerprint *Fingerprint `json:"-"`
}

// msTrack is the driver's per-MS bookkeeping.
type msTrack struct {
	ms   *gsm.MS
	x, y int
	// area is the service area the radio currently sits in (1 or 2);
	// regArea the area the MS last registered in.
	area, regArea int
	// updX/updY is the grid cell of the last location update (distance
	// policy); movesSince counts cell changes since (threshold policy).
	updX, updY int
	movesSince int
}

// RunMobility drives the mobility-churn scenario and returns its metrics.
// The network must drain clean: a non-zero Residual is returned as an
// error naming the leaked state.
func RunMobility(cfg MobilityConfig) (MobilityResult, error) {
	cfg.norm()
	n := netsim.BuildTwoVMSC(netsim.VGPRSOptions{
		Seed:    cfg.Seed,
		NumMS:   cfg.NumMS,
		NoTrace: true,
	})
	n.Env.SetTracer(cfg.Tracer)
	res := MobilityResult{Policy: cfg.Policy.String(), MSs: cfg.NumMS}
	if err := n.RegisterAll(); err != nil {
		return res, err
	}
	rng := newRNG(cfg.Seed)
	env := n.Env
	half := cfg.GridWidth / 2

	areaOf := func(x int) int {
		if x < half {
			return 1
		}
		return 2
	}
	btsOf := func(area int) (gsmid.LAI, sim.NodeID) {
		if area == 1 {
			return n.Area1Cell.LAI, "BTS-1"
		}
		return n.Area2LAI, "BTS-2"
	}
	cellOf := func(area int) gsmid.CGI {
		if area == 1 {
			return n.Area1Cell
		}
		return n.Area2Cell
	}

	tracks := make([]*msTrack, cfg.NumMS)
	for i, ms := range n.MSs {
		// Spread the population over area 1's columns; everyone
		// registered there by RegisterAll.
		x, y := i%half, (i/half)%cfg.GridHeight
		tracks[i] = &msTrack{ms: ms, x: x, y: y, area: 1, regArea: 1, updX: x, updY: y}
	}

	chebyshev := func(ax, ay, bx, by int) int {
		dx, dy := ax-bx, ay-by
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		if dy > dx {
			return dy
		}
		return dx
	}

	// roamStep applies one random-walk step and the resulting signalling.
	roamStep := func(t *msTrack) {
		if rng.Float64() > 0.6 {
			return
		}
		nx, ny := t.x, t.y
		switch rng.Intn(4) {
		case 0:
			nx++
		case 1:
			nx--
		case 2:
			ny++
		case 3:
			ny--
		}
		if nx < 0 || nx >= cfg.GridWidth || ny < 0 || ny >= cfg.GridHeight {
			return
		}
		if nx == t.x && ny == t.y {
			return
		}
		t.x, t.y = nx, ny
		t.movesSince++
		res.Moves++
		newArea := areaOf(t.x)
		if newArea != t.area {
			res.BoundaryCrossings++
		}

		switch t.ms.State() {
		case gsm.MSInCall:
			// Mid-call boundary crossing: report the other area's cell
			// and let the anchor run the Fig 9 inter-VMSC handover. The
			// registration stays at the anchor until the call ends.
			if newArea != t.area {
				t.ms.ReportNeighbor(env, cellOf(newArea))
				res.HandoffAttempts++
				t.area = newArea
			}
		case gsm.MSIdle:
			t.area = newArea
			if newArea != t.regArea {
				// Idle inter-area movement: the paper's §5 case — full
				// location update through the new VMSC, HLR cancels the
				// old one.
				lai, bts := btsOf(newArea)
				if t.ms.MoveTo(env, bts, lai) == nil {
					res.Relocations++
					t.regArea = newArea
					t.updX, t.updY = t.x, t.y
					t.movesSince = 0
				}
				return
			}
			trigger := false
			switch cfg.Policy {
			case PolicyDistance:
				trigger = chebyshev(t.x, t.y, t.updX, t.updY) >= cfg.DistanceCells
			case PolicyThreshold:
				trigger = t.movesSince >= cfg.MoveThreshold
			}
			if trigger {
				if t.ms.UpdateLocation(env) == nil {
					res.PolicyUpdates++
					t.updX, t.updY = t.x, t.y
					t.movesSince = 0
				}
			}
		}
	}

	// settle re-homes an MS whose radio ended up (post-handoff) in an
	// area it is not registered in.
	settle := func(t *msTrack) {
		if t.ms.State() != gsm.MSIdle || t.area == t.regArea {
			return
		}
		lai, bts := btsOf(t.area)
		if t.ms.MoveTo(env, bts, lai) == nil {
			res.Relocations++
			t.regArea = t.area
			t.updX, t.updY = t.x, t.y
			t.movesSince = 0
		}
	}

	// storm pairs the idle population into calls, marches every pair
	// across the boundary mid-call (a simultaneous handoff storm), then
	// clears the calls.
	storm := func() {
		var callers []*msTrack
		for i := 0; i+1 < len(tracks); i += 2 {
			a, b := tracks[i], tracks[i+1]
			if a.ms.State() != gsm.MSIdle || b.ms.State() != gsm.MSIdle {
				continue
			}
			if a.ms.Dial(env, n.Subscribers[i+1].MSISDN) == nil {
				callers = append(callers, a)
			}
		}
		runFor(env, 5*time.Second)
		for _, t := range callers {
			if t.ms.State() != gsm.MSInCall {
				continue
			}
			res.StormCalls++
			other := 3 - t.area
			t.ms.ReportNeighbor(env, cellOf(other))
			res.HandoffAttempts++
			t.area = other
			// Park the MS in the new area's boundary column.
			if other == 1 {
				t.x = half - 1
			} else {
				t.x = half
			}
			t.movesSince++
			res.Moves++
			res.BoundaryCrossings++
		}
		runFor(env, 5*time.Second)
		for _, t := range callers {
			if t.ms.State() == gsm.MSInCall {
				_ = t.ms.Hangup(env)
			}
		}
		runFor(env, 5*time.Second)
		for _, t := range tracks {
			settle(t)
		}
	}

	elapsed := time.Duration(0)
	nextStorm := cfg.StormEvery
	for elapsed < cfg.Duration {
		runFor(env, 5*time.Second)
		elapsed += 5 * time.Second
		for _, t := range tracks {
			settle(t)
			roamStep(t)
		}
		if elapsed >= nextStorm {
			storm()
			nextStorm += cfg.StormEvery
		}
	}

	// Drain: clear every call, settle every registration, and give the
	// retry budgets time to resolve.
	for _, t := range tracks {
		if t.ms.State() == gsm.MSInCall {
			_ = t.ms.Hangup(env)
		}
	}
	runFor(env, 10*time.Second)
	for _, t := range tracks {
		settle(t)
	}
	runFor(env, 30*time.Second)

	res.Handovers = n.VMSC.Stats().Handovers + n.VMSC2.Stats().Handovers
	res.Retransmits = n.SignallingRetransmits()
	residual := n.Residual()
	res.Residual = residual.Total()
	res.Fingerprint = fingerprintOf(n.VGPRSNet)
	if res.Residual != 0 {
		return res, fmt.Errorf("scenario mobility (seed %d): residual state after drain:\n%s",
			cfg.Seed, residual.String())
	}
	return res, nil
}
