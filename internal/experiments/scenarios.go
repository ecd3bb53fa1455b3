package experiments

import (
	"fmt"
	"time"

	"vgprs/internal/metrics"
	"vgprs/internal/netsim/scenario"
)

// ScenarioPoint is one row of the scenario-diversity sweep: a named
// workload with its headline outcomes.
type ScenarioPoint struct {
	Name string `json:"name"`

	// Signalling load and outcome headline numbers. Which are meaningful
	// depends on the scenario; unused ones are zero.
	LocationUpdates int           `json:"location_updates,omitempty"`
	Handovers       uint64        `json:"handovers,omitempty"`
	Recovered       int           `json:"recovered,omitempty"`
	RecoveryTime    time.Duration `json:"recovery_time,omitempty"`
	Calls           int           `json:"calls,omitempty"`
	CallFailures    int           `json:"call_failures,omitempty"`
	DataEchoes      int           `json:"data_echoes,omitempty"`
	Retransmits     uint64        `json:"retransmits"`
	Residual        int           `json:"residual"`
}

// RunScenarioSweep runs every workload scenario at a bench-friendly size:
// both mobility policies, the flash crowd (clean and under a transient
// VLR<->HLR outage), and a compressed day-in-the-life.
func RunScenarioSweep(seed int64) ([]ScenarioPoint, error) {
	type point struct {
		name string
		run  func() (ScenarioPoint, error)
	}
	points := []point{
		{"mobility/distance", func() (ScenarioPoint, error) {
			r, err := scenario.RunMobility(scenario.MobilityConfig{
				Seed: seed, NumMS: 6,
				Duration: 5 * time.Minute, Policy: scenario.PolicyDistance,
			})
			return ScenarioPoint{
				LocationUpdates: r.PolicyUpdates + r.Relocations,
				Handovers:       r.Handovers,
				Retransmits:     r.Retransmits,
				Residual:        r.Residual,
			}, err
		}},
		{"mobility/threshold", func() (ScenarioPoint, error) {
			r, err := scenario.RunMobility(scenario.MobilityConfig{
				Seed: seed, NumMS: 6,
				Duration: 5 * time.Minute, Policy: scenario.PolicyThreshold,
			})
			return ScenarioPoint{
				LocationUpdates: r.PolicyUpdates + r.Relocations,
				Handovers:       r.Handovers,
				Retransmits:     r.Retransmits,
				Residual:        r.Residual,
			}, err
		}},
		{"flashcrowd/clean", func() (ScenarioPoint, error) {
			r, err := scenario.RunFlashCrowd(scenario.FlashCrowdConfig{
				Seed: seed, NumMS: 20,
			})
			return ScenarioPoint{
				Recovered: r.Recovered, RecoveryTime: r.RecoveryTime,
				Retransmits: r.Retransmits, Residual: r.Residual,
			}, err
		}},
		{"flashcrowd/outage", func() (ScenarioPoint, error) {
			r, err := scenario.RunFlashCrowd(scenario.FlashCrowdConfig{
				Seed: seed, NumMS: 20,
				Plan: scenario.TransientCoreOutage(5 * time.Second),
			})
			return ScenarioPoint{
				Recovered: r.Recovered, RecoveryTime: r.RecoveryTime,
				Retransmits: r.Retransmits, Residual: r.Residual,
			}, err
		}},
		{"day/compressed", func() (ScenarioPoint, error) {
			r, err := scenario.RunDay(scenario.DayConfig{
				Seed: seed, NumMS: 6, DataMS: 2,
				Duration: 30 * time.Minute, HeapWindow: 10 * time.Minute,
			})
			return ScenarioPoint{
				Calls: r.Calls, CallFailures: r.CallFailures,
				DataEchoes:  r.DataEchoes,
				Retransmits: r.Retransmits, Residual: r.Residual,
			}, err
		}},
	}
	results, err := runSweep(points, func(p point) (ScenarioPoint, error) {
		r, err := p.run()
		if err != nil {
			return r, fmt.Errorf("scenario %s: %w", p.name, err)
		}
		r.Name = p.name
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// ScenarioTable renders the sweep.
func ScenarioTable(points []ScenarioPoint) *metrics.Table {
	t := metrics.NewTable(
		"Scenario diversity: workload outcomes",
		"scenario", "LUs", "handovers", "recovered", "recovery", "calls (fail)", "data echoes", "retrans", "residual")
	for _, p := range points {
		recovery := "-"
		if p.RecoveryTime > 0 {
			recovery = metrics.FormatDuration(p.RecoveryTime)
		}
		t.AddRow(p.Name,
			fmt.Sprintf("%d", p.LocationUpdates),
			fmt.Sprintf("%d", p.Handovers),
			fmt.Sprintf("%d", p.Recovered),
			recovery,
			fmt.Sprintf("%d (%d)", p.Calls, p.CallFailures),
			fmt.Sprintf("%d", p.DataEchoes),
			fmt.Sprintf("%d", p.Retransmits),
			fmt.Sprintf("%d", p.Residual))
	}
	return t
}
