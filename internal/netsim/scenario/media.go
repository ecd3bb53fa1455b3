package scenario

import (
	"fmt"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/metrics"
	"vgprs/internal/netsim"
	"vgprs/internal/sim"
)

// MediaConfig parameterises the sustained talk-path scenario: paired
// MS-to-MS calls held up for a fixed talk window while every 20 ms vocoder
// frame rides the full hairpin (Um -> BSC -> VMSC -> Gb -> SGSN -> Gn ->
// GGSN and back down the far leg), with per-call E-model scoring from the
// listeners' mouth-to-ear statistics.
type MediaConfig struct {
	Seed int64
	// Calls is the number of concurrent MS-to-MS calls per wave
	// (default 4); the build provisions 2*Calls mobiles.
	Calls int
	// Waves repeats the talk window with the same pairs (default 1);
	// media counters reset between waves, so each wave scores
	// independently.
	Waves int
	// TalkTime is how long each wave holds the calls up (default 10s —
	// 500 frames per direction per call).
	TalkTime time.Duration
	// WaveGap is the idle period between waves (default 2s).
	WaveGap time.Duration
	// LossRate drops this fraction of media-leg packets during every
	// wave's talk window (0 = clean).
	LossRate float64
	// Jitter adds uniform per-link delay jitter on the media legs during
	// the talk window (clamped to netsim.MaxMediaJitter).
	Jitter time.Duration
	// Plan optionally injects extra faults during wave 0 only, with
	// windows measured from that wave's talk start. The chaos regression
	// uses it to knock a media leg out mid-call and compare wave scores.
	Plan netsim.FaultPlan
	// DTX gates uplink speech with the Brady talk-spurt model.
	DTX bool
	// Tracer, when set, sees every delivery after the build; nil runs untraced.
	Tracer sim.Tracer
}

func (c *MediaConfig) norm() {
	if c.Calls <= 0 {
		c.Calls = 4
	}
	if c.Waves <= 0 {
		c.Waves = 1
	}
	if c.TalkTime <= 0 {
		c.TalkTime = 10 * time.Second
	}
	if c.WaveGap <= 0 {
		c.WaveGap = 2 * time.Second
	}
}

// MediaResult summarises one media run.
type MediaResult struct {
	Calls int `json:"calls"`
	Waves int `json:"waves"`

	// Frames/FramesExpected total the listeners' played-out and
	// sequence-implied frame counts across all waves and both directions.
	Frames         uint64 `json:"frames"`
	FramesExpected uint64 `json:"frames_expected"`
	// RTPLost is the RTP-level loss the VMSC receivers observed on the
	// hairpin (attribution: frames that died on the Gb/Gn legs).
	RTPLost uint64 `json:"rtp_lost"`
	// RTPReordered counts late arrivals at the VMSC receivers.
	RTPReordered uint64 `json:"rtp_reordered"`

	// MOS summarises the per-call scores across all waves; PerCallMOS
	// lists them wave-major (wave 0's calls, then wave 1's, ...), each
	// call scored as the worse of its two listener legs. PerWaveMOS
	// splits the summary by wave.
	MOS        metrics.FloatSummary   `json:"mos"`
	PerCallMOS []float64              `json:"per_call_mos"`
	PerWaveMOS []metrics.FloatSummary `json:"per_wave_mos"`

	// MeanDelay/MeanJitter average the listeners' mouth-to-ear delay and
	// RFC 3550 jitter estimates over all scored legs.
	MeanDelay  time.Duration `json:"mean_delay"`
	MeanJitter time.Duration `json:"mean_jitter"`

	// Residual is the leaked-transient-state count after the final
	// drain (includes in-flight media frames at the VMSC).
	Residual int `json:"residual"`

	Fingerprint *Fingerprint `json:"-"`
}

// RunMedia builds a talk-enabled network, registers 2*Calls mobiles, and
// runs Waves rounds of paired MS-to-MS calls: dial, hold the talk window
// under the configured loss/jitter matrix, score each call from its
// listeners' media reports, then clear down and audit for leaks.
func RunMedia(cfg MediaConfig) (MediaResult, error) {
	cfg.norm()
	n := netsim.BuildVGPRS(netsim.VGPRSOptions{
		Seed:    cfg.Seed,
		NumMS:   2 * cfg.Calls,
		Talk:    true,
		DTX:     cfg.DTX,
		NoTrace: true,
		Sig:     netsim.ChaosSigProfile(),
	})
	n.Env.SetTracer(cfg.Tracer)
	res := MediaResult{Calls: cfg.Calls, Waves: cfg.Waves}
	if err := n.RegisterAll(); err != nil {
		return res, err
	}
	scorer := metrics.DefaultEModel()
	var sumDelay, sumJitter time.Duration
	legs := 0

	for wave := 0; wave < cfg.Waves; wave++ {
		// Dial every pair in the same tick: MS 2i calls MS 2i+1.
		for i := 0; i < cfg.Calls; i++ {
			caller := n.MSs[2*i]
			if err := caller.Dial(n.Env, n.Subscribers[2*i+1].MSISDN); err != nil {
				return res, &netsim.ProcedureError{
					Procedure: "media-dial", Seed: cfg.Seed, Detail: err,
				}
			}
		}
		allInCall := func() bool {
			for _, ms := range n.MSs[:2*cfg.Calls] {
				if ms.State() != gsm.MSInCall {
					return false
				}
			}
			return true
		}
		if !runUntil(n.Env, 30*time.Second, allInCall) {
			return res, &netsim.ProcedureError{
				Procedure: "media-setup", Seed: cfg.Seed,
				Detail: fmt.Errorf("wave %d: calls not up after deadline", wave),
			}
		}

		// Talk start: counters reset on the established calls, then the
		// wave's fault matrix engages for exactly the talk window — it
		// heals before clearing, so hangup signalling runs clean.
		for _, ms := range n.MSs[:2*cfg.Calls] {
			ms.ResetMedia()
		}
		chaos := netsim.MediaChaosPlan(cfg.LossRate, cfg.Jitter, 0, cfg.TalkTime)
		if wave == 0 {
			chaos = append(chaos, cfg.Plan...)
		}
		if err := chaos.Apply(n.Env); err != nil {
			return res, err
		}
		runFor(n.Env, cfg.TalkTime)

		// Score before clearing: the VMSC's per-call RTP receivers die
		// with the call state.
		waveMOS := make([]float64, 0, cfg.Calls)
		for i := 0; i < cfg.Calls; i++ {
			a, b := n.MSs[2*i], n.MSs[2*i+1]
			if stats, ok := n.VMSC.CallMedia(a.ID()); ok {
				res.RTPLost += stats.RTPExpected - min64(stats.RTPExpected, stats.RTPReceived)
				res.RTPReordered += stats.RTPReordered
			}
			if stats, ok := n.VMSC.CallMedia(b.ID()); ok {
				res.RTPLost += stats.RTPExpected - min64(stats.RTPExpected, stats.RTPReceived)
				res.RTPReordered += stats.RTPReordered
			}
			mos := 5.0
			for _, listener := range []*gsm.MS{a, b} {
				rep := listener.MediaReport()
				res.Frames += rep.Frames
				res.FramesExpected += rep.Expected
				score := scorer.Score(rep.MeanDelay, rep.Jitter, rep.Expected, rep.Frames)
				if score.MOS < mos {
					mos = score.MOS
				}
				sumDelay += rep.MeanDelay
				sumJitter += rep.Jitter
				legs++
			}
			waveMOS = append(waveMOS, mos)
		}
		res.PerCallMOS = append(res.PerCallMOS, waveMOS...)
		res.PerWaveMOS = append(res.PerWaveMOS, metrics.SummarizeFloats(waveMOS))

		// Clear down: callers hang up, everyone returns to idle.
		for i := 0; i < cfg.Calls; i++ {
			if err := n.MSs[2*i].Hangup(n.Env); err != nil {
				return res, &netsim.ProcedureError{
					Procedure: "media-clear", Seed: cfg.Seed, Detail: err,
				}
			}
		}
		allIdle := func() bool {
			for _, ms := range n.MSs[:2*cfg.Calls] {
				if ms.State() != gsm.MSIdle {
					return false
				}
			}
			return true
		}
		if !runUntil(n.Env, 30*time.Second, allIdle) {
			return res, &netsim.ProcedureError{
				Procedure: "media-clear", Seed: cfg.Seed,
				Detail: fmt.Errorf("wave %d: calls not cleared after deadline", wave),
			}
		}
		runFor(n.Env, cfg.WaveGap)
	}

	res.MOS = metrics.SummarizeFloats(res.PerCallMOS)
	if legs > 0 {
		res.MeanDelay = sumDelay / time.Duration(legs)
		res.MeanJitter = sumJitter / time.Duration(legs)
	}

	// Drain and audit: reusable frame buffers must have no frames in
	// flight, and the slabs no leaked call or context state.
	runFor(n.Env, 10*time.Second)
	residual := n.Residual()
	res.Residual = residual.Total()
	res.Fingerprint = fingerprintOf(n)
	if res.Residual != 0 {
		return res, fmt.Errorf("scenario media (seed %d): residual state after clear-down:\n%s",
			cfg.Seed, residual.String())
	}
	return res, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
