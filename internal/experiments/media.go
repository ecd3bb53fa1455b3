package experiments

import (
	"fmt"
	"time"

	"vgprs/internal/metrics"
	"vgprs/internal/netsim/scenario"
)

// MediaPoint is one cell of the media-plane sweep: N concurrent MS-to-MS
// calls held up for a talk window under a per-link loss rate, scored
// per call with the E-model.
type MediaPoint struct {
	Calls    int     `json:"calls"`
	LossRate float64 `json:"loss_rate"`

	// Frames/FramesExpected are the listeners' played-out and
	// sequence-implied totals; RTPLost the RTP-level loss the hairpin
	// receivers attributed to the media legs.
	Frames         uint64 `json:"frames"`
	FramesExpected uint64 `json:"frames_expected"`
	RTPLost        uint64 `json:"rtp_lost"`

	// MOS is the per-call distribution (each call scored as the worse of
	// its two listener legs).
	MOS metrics.FloatSummary `json:"mos"`

	// MeanDelay/MeanJitter average the mouth-to-ear statistics across
	// all listener legs.
	MeanDelay  time.Duration `json:"mean_delay"`
	MeanJitter time.Duration `json:"mean_jitter"`

	Residual int `json:"residual"`
}

// RunMediaSweep sweeps concurrent calls against per-link media loss. Loss
// rates are per media leg; a frame crosses the lossy Gb and Gn legs four
// times end-to-end, so the effective frame-loss rate is roughly
// 1-(1-p)^4. Jitter is held at 2 ms to keep the delay term realistic
// without drowning the loss signal.
func RunMediaSweep(seed int64) ([]MediaPoint, error) {
	type cell struct {
		calls int
		loss  float64
	}
	var cells []cell
	for _, calls := range []int{4, 8, 16} {
		for _, loss := range []float64{0, 0.01, 0.02, 0.05} {
			cells = append(cells, cell{calls, loss})
		}
	}
	return runSweep(cells, func(c cell) (MediaPoint, error) {
		r, err := scenario.RunMedia(scenario.MediaConfig{
			Seed: seed, Calls: c.calls,
			TalkTime: 10 * time.Second, LossRate: c.loss,
			Jitter: 2 * time.Millisecond,
		})
		if err != nil {
			return MediaPoint{}, fmt.Errorf("media calls=%d loss=%g: %w", c.calls, c.loss, err)
		}
		return MediaPoint{
			Calls: c.calls, LossRate: c.loss,
			Frames: r.Frames, FramesExpected: r.FramesExpected, RTPLost: r.RTPLost,
			MOS: r.MOS, MeanDelay: r.MeanDelay, MeanJitter: r.MeanJitter,
			Residual: r.Residual,
		}, nil
	})
}

// MediaTable renders the sweep.
func MediaTable(points []MediaPoint) *metrics.Table {
	t := metrics.NewTable(
		"Media plane: per-call MOS vs concurrent calls and per-link loss",
		"calls", "loss/link", "frames", "rtp lost", "MOS min", "MOS p50", "MOS p95", "delay", "jitter")
	for _, p := range points {
		t.AddRow(
			fmt.Sprintf("%d", p.Calls),
			fmt.Sprintf("%.0f%%", p.LossRate*100),
			fmt.Sprintf("%d/%d", p.Frames, p.FramesExpected),
			fmt.Sprintf("%d", p.RTPLost),
			fmt.Sprintf("%.2f", p.MOS.Min),
			fmt.Sprintf("%.2f", p.MOS.P50),
			fmt.Sprintf("%.2f", p.MOS.P95),
			metrics.FormatDuration(p.MeanDelay),
			metrics.FormatDuration(p.MeanJitter))
	}
	return t
}
