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
	"io"
	"os"
	"time"

	"vgprs/internal/netsim"
	"vgprs/internal/sim"
	"vgprs/internal/trace"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	scenario := flag.String("scenario", "registration", "scenario to run")
	flag.Parse()
	if err := printTrace(os.Stdout, *scenario, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "vgprs-sim: %v\n", err)
		os.Exit(1)
	}
}

// printTrace runs the named scenario and prints what a Recorder saw of it.
func printTrace(w io.Writer, name string, seed int64) error {
	rec := trace.NewRecorder()
	if err := runScenario(name, seed, rec); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "=== scenario %q (seed %d): %d messages ===\n%s", name, seed, rec.Len(), rec.Dump())
	return err
}

// runScenario runs the named scenario with tr installed where its flow
// starts: right after the build, or once the set-up the flow needs is done.
func runScenario(name string, seed int64, tr sim.Tracer) error {
	switch name {
	case "registration":
		n := netsim.BuildVGPRS(netsim.VGPRSOptions{Seed: seed})
		n.Env.SetTracer(tr)
		return n.RegisterAll()

	case "mo-call":
		n := netsim.BuildVGPRS(netsim.VGPRSOptions{Seed: seed})
		if err := n.RegisterAll(); err != nil {
			return err
		}
		n.Env.SetTracer(tr)
		if err := n.MSs[0].Dial(n.Env, netsim.TerminalAlias(0)); err != nil {
			return err
		}
		n.Env.RunUntil(n.Env.Now() + 3*time.Second)
		if err := n.MSs[0].Hangup(n.Env); err != nil {
			return err
		}
		n.Env.RunUntil(n.Env.Now() + 3*time.Second)
		return nil

	case "mt-call":
		n := netsim.BuildVGPRS(netsim.VGPRSOptions{Seed: seed})
		if err := n.RegisterAll(); err != nil {
			return err
		}
		n.Env.SetTracer(tr)
		ref, err := n.Terminals[0].Call(n.Env, n.Subscribers[0].MSISDN)
		if err != nil {
			return err
		}
		n.Env.RunUntil(n.Env.Now() + 5*time.Second)
		if err := n.Terminals[0].Hangup(n.Env, ref); err != nil {
			return err
		}
		n.Env.RunUntil(n.Env.Now() + 3*time.Second)
		return nil

	case "trombone-gsm":
		n := netsim.BuildRoamingGSM(seed)
		if err := n.Register(); err != nil {
			return err
		}
		n.Env.SetTracer(tr)
		if _, err := n.PhoneY.Call(n.Env, netsim.RoamerMSISDN); err != nil {
			return err
		}
		n.Env.RunUntil(n.Env.Now() + 5*time.Second)
		fmt.Printf("international trunk seizures: %d\n", n.InternationalSeizures())
		return nil

	case "trombone-vgprs":
		n := netsim.BuildRoamingVGPRS(seed)
		if err := n.Register(); err != nil {
			return err
		}
		n.Env.SetTracer(tr)
		if _, err := n.PhoneY.Call(n.Env, netsim.RoamerMSISDN); err != nil {
			return err
		}
		n.Env.RunUntil(n.Env.Now() + 5*time.Second)
		fmt.Printf("international trunk seizures: %d (local: %d)\n",
			n.InternationalSeizures(), n.LocalTrunks.TotalSeizures())
		return nil

	case "fallback":
		n := netsim.BuildRoamingVGPRS(seed)
		if err := n.Register(); err != nil {
			return err
		}
		n.Env.SetTracer(tr)
		if _, err := n.PhoneY.Call(n.Env, netsim.UKFixedNumber); err != nil {
			return err
		}
		n.Env.RunUntil(n.Env.Now() + 5*time.Second)
		return nil

	case "handoff":
		n := netsim.BuildHandoff(netsim.VGPRSOptions{Seed: seed})
		if err := n.RegisterAll(); err != nil {
			return err
		}
		if err := n.MSs[0].Dial(n.Env, netsim.TerminalAlias(0)); err != nil {
			return err
		}
		n.Env.RunUntil(n.Env.Now() + 3*time.Second)
		n.Env.SetTracer(tr)
		if !n.RunHandoff(n.MSs[0], 10*time.Second) {
			return fmt.Errorf("handover did not complete")
		}
		return nil

	case "movement":
		// Inter-VMSC movement: the MS relocates to a second vGPRS area;
		// the old switch cleans up, the new one takes over.
		n := netsim.BuildTwoVMSC(netsim.VGPRSOptions{Seed: seed})
		if err := n.RegisterAll(); err != nil {
			return err
		}
		n.Env.SetTracer(tr)
		if err := n.MSs[0].MoveTo(n.Env, "BTS-2", n.Area2LAI); err != nil {
			return err
		}
		n.Env.RunUntil(n.Env.Now() + 20*time.Second)
		if _, reg, _ := n.VMSC2.Entry(n.Subscribers[0].IMSI); !reg {
			return fmt.Errorf("movement did not complete")
		}
		return nil

	case "handback":
		// Fig 9 handoff followed by the GSM 03.09 subsequent handback:
		// the MS returns to the anchor and the E trunk is released.
		n := netsim.BuildHandoff(netsim.VGPRSOptions{Seed: seed})
		if err := n.RegisterAll(); err != nil {
			return err
		}
		if err := n.MSs[0].Dial(n.Env, netsim.TerminalAlias(0)); err != nil {
			return err
		}
		n.Env.RunUntil(n.Env.Now() + 3*time.Second)
		if !n.RunHandoff(n.MSs[0], 10*time.Second) {
			return fmt.Errorf("handover did not complete")
		}
		n.Env.SetTracer(tr)
		n.MSs[0].ReportNeighbor(n.Env, n.HomeCell)
		n.Env.RunUntil(n.Env.Now() + 2*time.Second)
		if n.ETrunks.InUse() != 0 {
			return fmt.Errorf("handback did not release the trunk")
		}
		return nil

	case "handoff-vmsc":
		n := netsim.BuildHandoffVMSC(netsim.VGPRSOptions{Seed: seed})
		if err := n.RegisterAll(); err != nil {
			return err
		}
		if err := n.MSs[0].Dial(n.Env, netsim.TerminalAlias(0)); err != nil {
			return err
		}
		n.Env.RunUntil(n.Env.Now() + 3*time.Second)
		n.Env.SetTracer(tr)
		if !n.RunHandoff(n.MSs[0], 10*time.Second) {
			return fmt.Errorf("handover did not complete")
		}
		return nil

	case "tr-registration":
		n := netsim.BuildTR23923(netsim.TR23923Options{Seed: seed})
		n.Env.SetTracer(tr)
		return n.RegisterAll()

	case "tr-mo-call":
		n := netsim.BuildTR23923(netsim.TR23923Options{Seed: seed})
		if err := n.RegisterAll(); err != nil {
			return err
		}
		n.Env.RunUntil(n.Env.Now() + 10*time.Second)
		n.Env.SetTracer(tr)
		ref, err := n.MSs[0].Call(n.Env, netsim.TerminalAlias(0))
		if err != nil {
			return err
		}
		n.Env.RunUntil(n.Env.Now() + 5*time.Second)
		if err := n.MSs[0].Hangup(n.Env, ref); err != nil {
			return err
		}
		n.Env.RunUntil(n.Env.Now() + 5*time.Second)
		return nil

	case "tr-mt-call":
		n := netsim.BuildTR23923(netsim.TR23923Options{Seed: seed})
		if err := n.RegisterAll(); err != nil {
			return err
		}
		n.Env.RunUntil(n.Env.Now() + 10*time.Second)
		n.Env.SetTracer(tr)
		if _, err := n.Terminal.Call(n.Env, n.Subscribers[0].MSISDN); err != nil {
			return err
		}
		n.Env.RunUntil(n.Env.Now() + 10*time.Second)
		return nil

	default:
		return fmt.Errorf("unknown scenario %q (see -h)", name)
	}
}
