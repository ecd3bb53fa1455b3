package scenario

import (
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/gtp"
	"vgprs/internal/ipnet"
	"vgprs/internal/netsim"
	"vgprs/internal/pstn"
	"vgprs/internal/sim"
)

// DayConfig parameterises the day-in-the-life soak: a sustained mixed
// workload over the DayNet topology with Poisson arrivals in every traffic
// class.
type DayConfig struct {
	Seed   int64
	Shards int
	// Duration is total simulated time (default 4h).
	Duration time.Duration
	// NumMS is the local subscriber population (default 4); DataMS how
	// many of the first subscribers also carry a packet-only data handset
	// (default 1).
	NumMS  int
	DataMS int
	// HeapWindow is the real-heap sampling period in simulated time
	// (default 30 min): each window ends with a forced GC and a HeapAlloc
	// reading, so a state leak shows up as a climbing series.
	HeapWindow time.Duration
	// Trace records the full event trace for determinism comparison. Keep
	// it off for long soaks — the trace grows with every delivery.
	Trace bool
}

func (c *DayConfig) norm() {
	if c.Duration <= 0 {
		c.Duration = 4 * time.Hour
	}
	if c.NumMS <= 0 {
		c.NumMS = 4
	}
	if c.DataMS <= 0 {
		c.DataMS = 1
	}
	if c.DataMS > c.NumMS {
		c.DataMS = c.NumMS
	}
	if c.HeapWindow <= 0 {
		c.HeapWindow = 30 * time.Minute
	}
}

// DayResult summarises one day-in-the-life run.
type DayResult struct {
	MSs    int           `json:"ms"`
	Shards int           `json:"shards"`
	Sim    time.Duration `json:"sim_duration"`

	// CallAttempts counts every call the driver placed; Calls those that
	// reached conversation. The per-class counters split the connected
	// calls: MS-to-MS, mobile-originated PSTN breakout (Fig 8 outbound),
	// PSTN-to-roamer local breakout (Fig 8, the F8 path), and the
	// international fallback to a UK fixed line (Fig 7, the F7 path).
	CallAttempts  int `json:"call_attempts"`
	Calls         int `json:"calls"`
	CallFailures  int `json:"call_failures"`
	MSCalls       int `json:"ms_calls"`
	BreakoutCalls int `json:"breakout_calls"`
	RoamerCalls   int `json:"roamer_calls"`
	FallbackCalls int `json:"fallback_calls"`

	// DataPings/DataEchoes count background-data requests and replies.
	DataPings  int `json:"data_pings"`
	DataEchoes int `json:"data_echoes"`
	// Relocations counts idle inter-area moves; PowerCycles off/on pairs.
	Relocations int `json:"relocations"`
	PowerCycles int `json:"power_cycles"`

	Retransmits uint64 `json:"retransmits"`
	// Residual is the leaked-transient-state count after the final drain;
	// ResidualDetail names the leaks when non-zero.
	Residual       int    `json:"residual"`
	ResidualDetail string `json:"residual_detail,omitempty"`
	// HeapWindows is the post-GC HeapAlloc series, one sample per
	// HeapWindow of simulated time. Flat consecutive windows mean no
	// real-memory leak; the soak test asserts it.
	HeapWindows []uint64 `json:"heap_windows"`

	Fingerprint *Fingerprint `json:"-"`
}

// Traffic classes for in-flight call bookkeeping.
const (
	callMSMS = iota
	callBreakout
	callRoamer
	callFallback
)

// dayCall tracks one placed call until its scheduled hangup.
type dayCall struct {
	kind     int
	caller   *gsm.MS     // callMSMS, callBreakout
	phone    *pstn.Phone // callRoamer, callFallback
	hangupAt time.Duration
}

// RunDay drives the day-in-the-life workload and returns its metrics. The
// network must drain clean at the end: any residual transient state is an
// error naming the leaked records.
func RunDay(cfg DayConfig) (DayResult, error) {
	cfg.norm()
	n := netsim.BuildDay(netsim.DayOptions{
		VGPRSOptions: netsim.VGPRSOptions{
			Seed:    cfg.Seed,
			NumMS:   cfg.NumMS,
			NoTrace: !cfg.Trace,
			Shards:  cfg.Shards,
		},
		DataMS: cfg.DataMS,
	})
	res := DayResult{MSs: cfg.NumMS, Shards: cfg.Shards, Sim: cfg.Duration}
	env := n.Env
	if err := n.RegisterAll(); err != nil {
		return res, err
	}
	n.Roamer.PowerOn(env)
	if !runUntil(env, 30*time.Second, func() bool { return n.Roamer.State() == gsm.MSIdle }) {
		return res, fmt.Errorf("scenario day (seed %d): roamer failed to register", cfg.Seed)
	}

	// Background data: attach each handset and open a data context on
	// NSAPI 7 (the VMSC holds 5 and 6 for the shared subscriber).
	attached := 0
	for _, ms := range n.DataMSs {
		dm := ms
		dm.Client.OnPacket = func(_ *sim.Env, nsapi uint8, _ ipnet.Packet) {
			if nsapi == 7 {
				res.DataEchoes++
			}
		}
		if err := dm.Client.Attach(env, func(ok bool) {
			if ok {
				attached++
			}
		}); err != nil {
			return res, err
		}
	}
	if !runUntil(env, 15*time.Second, func() bool { return attached == len(n.DataMSs) }) {
		return res, fmt.Errorf("scenario day (seed %d): data attach incomplete (%d/%d)",
			cfg.Seed, attached, len(n.DataMSs))
	}
	activated := 0
	for _, ms := range n.DataMSs {
		if err := ms.Client.ActivatePDP(env, 7, gtp.SignallingQoS(), "",
			func(_ netip.Addr, ok bool) {
				if ok {
					activated++
				}
			}); err != nil {
			return res, err
		}
	}
	if !runUntil(env, 15*time.Second, func() bool { return activated == len(n.DataMSs) }) {
		return res, fmt.Errorf("scenario day (seed %d): data PDP activation incomplete (%d/%d)",
			cfg.Seed, activated, len(n.DataMSs))
	}

	rng := newRNG(cfg.Seed)
	// expAfter draws an exponential inter-arrival offset with the given
	// mean, floored at one tick so arrivals land on the decision grid.
	expAfter := func(mean time.Duration) time.Duration {
		d := time.Duration(rng.ExpFloat64() * float64(mean))
		if d < tick {
			d = tick
		}
		return env.Now() + d
	}

	// area/powered bookkeeping per local MS. Subscribers with a data
	// handset (the first DataMS) are pinned to area 1 and never
	// power-cycled: their SGSN record is shared with the data leg.
	area := make([]int, cfg.NumMS)
	poweredOffAt := make([]time.Duration, cfg.NumMS) // zero = on
	for i := range area {
		area[i] = 1
	}
	mobile := func(i int) bool { return i >= cfg.DataMS }

	var active []*dayCall
	var phoneYCall *dayCall // PhoneY serves one call at a time
	msBusy := func(ms *gsm.MS) bool { return ms.State() != gsm.MSIdle }

	// Arrival schedules: mean inter-arrival per traffic class.
	nextMSCall := expAfter(30 * time.Second)
	nextPhone := expAfter(60 * time.Second)
	nextData := expAfter(20 * time.Second)
	nextMove := expAfter(90 * time.Second)
	nextCycle := expAfter(5 * time.Minute)

	holdFor := func() time.Duration {
		d := time.Duration(rng.ExpFloat64() * float64(45*time.Second))
		if d < 5*time.Second {
			d = 5 * time.Second
		}
		return env.Now() + d
	}

	// idleLocal lists callable local MS indices in deterministic order.
	idleLocal := func(requireMobile bool) []int {
		var out []int
		for i, ms := range n.MSs {
			if poweredOffAt[i] != 0 || msBusy(ms) {
				continue
			}
			if requireMobile && !mobile(i) {
				continue
			}
			out = append(out, i)
		}
		return out
	}

	clearCall := func(c *dayCall) {
		connected := false
		switch c.kind {
		case callMSMS, callBreakout:
			connected = c.caller.State() == gsm.MSInCall
			if connected {
				_ = c.caller.Hangup(env)
			}
		case callRoamer, callFallback:
			connected = c.phone.InCall()
			if connected {
				_ = c.phone.Hangup(env)
			}
		}
		if connected {
			res.Calls++
			switch c.kind {
			case callMSMS:
				res.MSCalls++
			case callBreakout:
				res.BreakoutCalls++
			case callRoamer:
				res.RoamerCalls++
			case callFallback:
				res.FallbackCalls++
			}
		} else {
			res.CallFailures++
		}
		if c == phoneYCall {
			phoneYCall = nil
		}
	}

	start := env.Now()
	deadline := start + cfg.Duration
	nextHeap := start + cfg.HeapWindow
	sampleHeap := func() {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		res.HeapWindows = append(res.HeapWindows, m.HeapAlloc)
	}

	for env.Now() < deadline {
		runFor(env, tick)
		now := env.Now()

		// Clear calls whose hold time elapsed.
		kept := active[:0]
		for _, c := range active {
			if now >= c.hangupAt {
				clearCall(c)
			} else {
				kept = append(kept, c)
			}
		}
		active = kept

		// Restore power-cycled MSs after ~30 s off-air.
		for i, offAt := range poweredOffAt {
			if offAt != 0 && now >= offAt+30*time.Second {
				n.MSs[i].PowerOn(env)
				poweredOffAt[i] = 0
			}
		}

		if now >= nextMSCall {
			nextMSCall = expAfter(30 * time.Second)
			if idle := idleLocal(false); len(idle) >= 2 {
				a := idle[rng.Intn(len(idle))]
				b := idle[rng.Intn(len(idle))]
				for b == a {
					b = idle[rng.Intn(len(idle))]
				}
				res.CallAttempts++
				if n.MSs[a].Dial(env, n.Subscribers[b].MSISDN) == nil {
					active = append(active, &dayCall{
						kind: callMSMS, caller: n.MSs[a], hangupAt: holdFor(),
					})
				} else {
					res.CallFailures++
				}
			}
		}

		if now >= nextPhone && phoneYCall == nil {
			nextPhone = expAfter(60 * time.Second)
			// Rotate PhoneY's traffic through the three PSTN classes:
			// call the roamer (F8 local breakout), call a UK fixed line
			// (F7 international fallback), or receive a mobile-originated
			// breakout call.
			pick := rng.Intn(3)
			res.CallAttempts++
			switch {
			case pick == 0 && n.Roamer.State() == gsm.MSIdle:
				if _, err := n.PhoneY.Call(env, netsim.RoamerMSISDN); err == nil {
					phoneYCall = &dayCall{kind: callRoamer, phone: n.PhoneY, hangupAt: holdFor()}
					active = append(active, phoneYCall)
				} else {
					res.CallFailures++
				}
			case pick == 1:
				if _, err := n.PhoneY.Call(env, netsim.UKFixedNumber); err == nil {
					phoneYCall = &dayCall{kind: callFallback, phone: n.PhoneY, hangupAt: holdFor()}
					active = append(active, phoneYCall)
				} else {
					res.CallFailures++
				}
			default:
				if idle := idleLocal(false); len(idle) > 0 {
					i := idle[rng.Intn(len(idle))]
					if n.MSs[i].Dial(env, netsim.CallerNumber) == nil {
						phoneYCall = &dayCall{kind: callBreakout, caller: n.MSs[i], hangupAt: holdFor()}
						active = append(active, phoneYCall)
					} else {
						res.CallFailures++
					}
				} else {
					res.CallAttempts--
				}
			}
		}

		if now >= nextData {
			nextData = expAfter(20 * time.Second)
			for _, ms := range n.DataMSs {
				for i := 0; i < 3; i++ {
					if ms.Client.SendIP(env, 7, ipnet.Packet{
						Dst: n.Echo.Addr, Proto: ipnet.ProtoUDP,
						SrcPort: 9, DstPort: 9, Payload: []byte{byte(i)},
					}) == nil {
						res.DataPings++
					}
				}
			}
		}

		if now >= nextMove {
			nextMove = expAfter(90 * time.Second)
			if idle := idleLocal(true); len(idle) > 0 {
				i := idle[rng.Intn(len(idle))]
				if area[i] == 1 {
					if n.MSs[i].MoveTo(env, "BTS-2", n.Area2LAI) == nil {
						area[i] = 2
						res.Relocations++
					}
				} else {
					if n.MSs[i].MoveTo(env, "BTS-1", n.Area1Cell.LAI) == nil {
						area[i] = 1
						res.Relocations++
					}
				}
			}
		}

		if now >= nextCycle {
			nextCycle = expAfter(5 * time.Minute)
			if idle := idleLocal(true); len(idle) > 0 {
				i := idle[rng.Intn(len(idle))]
				if n.MSs[i].PowerOff(env) == nil {
					poweredOffAt[i] = now
					res.PowerCycles++
				}
			}
		}

		if now >= nextHeap {
			nextHeap += cfg.HeapWindow
			sampleHeap()
		}
	}

	// Drain: clear every call, restore every power-cycled MS, and wait
	// for the signalling planes to settle before the leak audit.
	for _, c := range active {
		clearCall(c)
	}
	active = nil
	runFor(env, 10*time.Second)
	for i, offAt := range poweredOffAt {
		if offAt != 0 {
			n.MSs[i].PowerOn(env)
			poweredOffAt[i] = 0
		}
	}
	allIdle := func() bool {
		for _, ms := range n.MSs {
			if ms.State() != gsm.MSIdle {
				return false
			}
		}
		return n.Roamer.State() == gsm.MSIdle
	}
	if !runUntil(env, 60*time.Second, allIdle) {
		return res, fmt.Errorf("scenario day (seed %d): population failed to settle after drain", cfg.Seed)
	}
	runFor(env, 30*time.Second)
	sampleHeap()

	res.Retransmits = n.SignallingRetransmits()
	residual := n.Residual()
	res.Residual = residual.Total()
	if res.Residual != 0 {
		res.ResidualDetail = residual.String()
	}
	res.Fingerprint = fingerprintOf(n.VGPRSNet)
	if res.Residual != 0 {
		return res, fmt.Errorf("scenario day (seed %d): residual state after drain:\n%s",
			cfg.Seed, residual.String())
	}
	return res, nil
}
