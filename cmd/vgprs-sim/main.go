// Command vgprs-sim runs one named scenario on the simulated network and
// prints its message trace — the executable version of the paper's figures.
//
// Usage:
//
//	vgprs-sim [-seed N] [-scenario name]
//
// Scenarios: registration (Fig 4), mo-call (Fig 5), mt-call (Fig 6),
// trombone-gsm (Fig 7), trombone-vgprs (Fig 8), fallback (Fig 8 miss arm),
// movement (inter-VMSC relocation),
// handoff (Fig 9), handback (GSM 03.09 subsequent handover home),
// handoff-vmsc (§7 VMSC-to-VMSC), tr-registration,
// tr-mo-call, tr-mt-call (the TR 23.923 baseline's flows).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"vgprs/internal/netsim"
	"vgprs/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	seed := flag.Int64("seed", 1, "simulation seed")
	scenario := flag.String("scenario", "registration", "scenario to run")
	flag.Parse()

	rec, err := runScenario(*scenario, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vgprs-sim: %v\n", err)
		return 1
	}
	fmt.Printf("=== scenario %q (seed %d): %d messages ===\n", *scenario, *seed, rec.Len())
	fmt.Print(rec.Dump())
	return 0
}

func runScenario(name string, seed int64) (*trace.Recorder, error) {
	switch name {
	case "registration":
		n := netsim.BuildVGPRS(netsim.VGPRSOptions{Seed: seed})
		if err := n.RegisterAll(); err != nil {
			return nil, err
		}
		return n.Rec, nil

	case "mo-call":
		n := netsim.BuildVGPRS(netsim.VGPRSOptions{Seed: seed})
		if err := n.RegisterAll(); err != nil {
			return nil, err
		}
		n.Rec.Reset()
		if err := n.MSs[0].Dial(n.Env, netsim.TerminalAlias(0)); err != nil {
			return nil, err
		}
		n.Env.RunUntil(n.Env.Now() + 3*time.Second)
		if err := n.MSs[0].Hangup(n.Env); err != nil {
			return nil, err
		}
		n.Env.RunUntil(n.Env.Now() + 3*time.Second)
		return n.Rec, nil

	case "mt-call":
		n := netsim.BuildVGPRS(netsim.VGPRSOptions{Seed: seed})
		if err := n.RegisterAll(); err != nil {
			return nil, err
		}
		n.Rec.Reset()
		ref, err := n.Terminals[0].Call(n.Env, n.Subscribers[0].MSISDN)
		if err != nil {
			return nil, err
		}
		n.Env.RunUntil(n.Env.Now() + 5*time.Second)
		if err := n.Terminals[0].Hangup(n.Env, ref); err != nil {
			return nil, err
		}
		n.Env.RunUntil(n.Env.Now() + 3*time.Second)
		return n.Rec, nil

	case "trombone-gsm":
		n := netsim.BuildRoamingGSM(seed)
		if err := n.Register(); err != nil {
			return nil, err
		}
		n.Rec.Reset()
		if _, err := n.PhoneY.Call(n.Env, netsim.RoamerMSISDN); err != nil {
			return nil, err
		}
		n.Env.RunUntil(n.Env.Now() + 5*time.Second)
		fmt.Printf("international trunk seizures: %d\n", n.InternationalSeizures())
		return n.Rec, nil

	case "trombone-vgprs":
		n := netsim.BuildRoamingVGPRS(seed)
		if err := n.Register(); err != nil {
			return nil, err
		}
		n.Rec.Reset()
		if _, err := n.PhoneY.Call(n.Env, netsim.RoamerMSISDN); err != nil {
			return nil, err
		}
		n.Env.RunUntil(n.Env.Now() + 5*time.Second)
		fmt.Printf("international trunk seizures: %d (local: %d)\n",
			n.InternationalSeizures(), n.LocalTrunks.TotalSeizures())
		return n.Rec, nil

	case "fallback":
		n := netsim.BuildRoamingVGPRS(seed)
		if err := n.Register(); err != nil {
			return nil, err
		}
		n.Rec.Reset()
		if _, err := n.PhoneY.Call(n.Env, netsim.UKFixedNumber); err != nil {
			return nil, err
		}
		n.Env.RunUntil(n.Env.Now() + 5*time.Second)
		return n.Rec, nil

	case "handoff":
		n := netsim.BuildHandoff(netsim.VGPRSOptions{Seed: seed})
		if err := n.RegisterAll(); err != nil {
			return nil, err
		}
		if err := n.MSs[0].Dial(n.Env, netsim.TerminalAlias(0)); err != nil {
			return nil, err
		}
		n.Env.RunUntil(n.Env.Now() + 3*time.Second)
		n.Rec.Reset()
		if !n.RunHandoff(n.MSs[0], 10*time.Second) {
			return nil, fmt.Errorf("handover did not complete")
		}
		return n.Rec, nil

	case "movement":
		// Inter-VMSC movement: the MS relocates to a second vGPRS area;
		// the old switch cleans up, the new one takes over.
		n := netsim.BuildTwoVMSC(netsim.VGPRSOptions{Seed: seed})
		if err := n.RegisterAll(); err != nil {
			return nil, err
		}
		n.Rec.Reset()
		if err := n.MSs[0].MoveTo(n.Env, "BTS-2", n.Area2LAI); err != nil {
			return nil, err
		}
		n.Env.RunUntil(n.Env.Now() + 20*time.Second)
		if _, reg, _ := n.VMSC2.Entry(n.Subscribers[0].IMSI); !reg {
			return nil, fmt.Errorf("movement did not complete")
		}
		return n.Rec, nil

	case "handback":
		// Fig 9 handoff followed by the GSM 03.09 subsequent handback:
		// the MS returns to the anchor and the E trunk is released.
		n := netsim.BuildHandoff(netsim.VGPRSOptions{Seed: seed})
		if err := n.RegisterAll(); err != nil {
			return nil, err
		}
		if err := n.MSs[0].Dial(n.Env, netsim.TerminalAlias(0)); err != nil {
			return nil, err
		}
		n.Env.RunUntil(n.Env.Now() + 3*time.Second)
		if !n.RunHandoff(n.MSs[0], 10*time.Second) {
			return nil, fmt.Errorf("handover did not complete")
		}
		n.Rec.Reset()
		n.MSs[0].ReportNeighbor(n.Env, n.HomeCell)
		n.Env.RunUntil(n.Env.Now() + 2*time.Second)
		if n.ETrunks.InUse() != 0 {
			return nil, fmt.Errorf("handback did not release the trunk")
		}
		return n.Rec, nil

	case "handoff-vmsc":
		n := netsim.BuildHandoffVMSC(netsim.VGPRSOptions{Seed: seed})
		if err := n.RegisterAll(); err != nil {
			return nil, err
		}
		if err := n.MSs[0].Dial(n.Env, netsim.TerminalAlias(0)); err != nil {
			return nil, err
		}
		n.Env.RunUntil(n.Env.Now() + 3*time.Second)
		n.Rec.Reset()
		if !n.RunHandoff(n.MSs[0], 10*time.Second) {
			return nil, fmt.Errorf("handover did not complete")
		}
		return n.Rec, nil

	case "tr-registration":
		n := netsim.BuildTR23923(netsim.TR23923Options{Seed: seed})
		if err := n.RegisterAll(); err != nil {
			return nil, err
		}
		return n.Rec, nil

	case "tr-mo-call":
		n := netsim.BuildTR23923(netsim.TR23923Options{Seed: seed})
		if err := n.RegisterAll(); err != nil {
			return nil, err
		}
		n.Env.RunUntil(n.Env.Now() + 10*time.Second)
		n.Rec.Reset()
		ref, err := n.MSs[0].Call(n.Env, netsim.TerminalAlias(0))
		if err != nil {
			return nil, err
		}
		n.Env.RunUntil(n.Env.Now() + 5*time.Second)
		if err := n.MSs[0].Hangup(n.Env, ref); err != nil {
			return nil, err
		}
		n.Env.RunUntil(n.Env.Now() + 5*time.Second)
		return n.Rec, nil

	case "tr-mt-call":
		n := netsim.BuildTR23923(netsim.TR23923Options{Seed: seed})
		if err := n.RegisterAll(); err != nil {
			return nil, err
		}
		n.Env.RunUntil(n.Env.Now() + 10*time.Second)
		n.Rec.Reset()
		if _, err := n.Terminal.Call(n.Env, n.Subscribers[0].MSISDN); err != nil {
			return nil, err
		}
		n.Env.RunUntil(n.Env.Now() + 10*time.Second)
		return n.Rec, nil

	default:
		return nil, fmt.Errorf("unknown scenario %q (see -h)", name)
	}
}
