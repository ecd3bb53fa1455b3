package netsim

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/hlr"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/trace"
)

// TestWorldsShareNoState checks the rule the nodes' lock-free design rests
// on: a world (one Env and its nodes) is driven only by the goroutine that
// runs its Env, and two worlds share no mutable state. Every builder runs
// twice at once, on two goroutines, from the same seed; each run installs a
// trace digest right after the build, then registers and places a call where
// its topology has one. The two runs must agree on their sealed digests, and
// under the race detector (make race) any state they touch in common is
// reported.
func TestWorldsShareNoState(t *testing.T) {
	cases := []struct {
		name string
		run  func(d *trace.Digest) (*sim.Env, error)
	}{
		{"vgprs", func(d *trace.Digest) (*sim.Env, error) {
			n := BuildVGPRS(VGPRSOptions{Seed: 5, NumMS: 2, NumTerminals: 1, Talk: true})
			n.Env.SetTracer(d)
			return n.Env, registerAndCall(n)
		}},
		{"two-vmsc", func(d *trace.Digest) (*sim.Env, error) {
			n := BuildTwoVMSC(VGPRSOptions{Seed: 5, NumMS: 2, Talk: true})
			n.Env.SetTracer(d)
			return n.Env, registerAndCall(n.VGPRSNet)
		}},
		{"handoff", func(d *trace.Digest) (*sim.Env, error) {
			n := BuildHandoff(VGPRSOptions{Seed: 5, Talk: true})
			n.Env.SetTracer(d)
			return n.Env, callAndHandoff(n.VGPRSNet, n.RunHandoff)
		}},
		{"handoff-vmsc", func(d *trace.Digest) (*sim.Env, error) {
			n := BuildHandoffVMSC(VGPRSOptions{Seed: 5, Talk: true})
			n.Env.SetTracer(d)
			return n.Env, callAndHandoff(n.VGPRSNet, n.RunHandoff)
		}},
		{"roaming-gsm", func(d *trace.Digest) (*sim.Env, error) {
			n := BuildRoamingGSM(5)
			n.Env.SetTracer(d)
			if err := n.Register(); err != nil {
				return n.Env, err
			}
			return n.Env, phoneCallsRoamer(n.Env, n.PhoneY.Call, n.PhoneY.Hangup, n.MS)
		}},
		{"roaming-vgprs", func(d *trace.Digest) (*sim.Env, error) {
			n := BuildRoamingVGPRS(5)
			n.Env.SetTracer(d)
			if err := n.Register(); err != nil {
				return n.Env, err
			}
			return n.Env, phoneCallsRoamer(n.Env, n.PhoneY.Call, n.PhoneY.Hangup, n.MS)
		}},
		{"tr23923", func(d *trace.Digest) (*sim.Env, error) {
			n := BuildTR23923(TR23923Options{Seed: 5, Talk: true})
			n.Env.SetTracer(d)
			if err := n.RegisterAll(); err != nil {
				return n.Env, err
			}
			ref, err := n.MSs[0].Call(n.Env, TerminalAlias(0))
			if err != nil {
				return n.Env, err
			}
			n.Env.RunUntil(n.Env.Now() + 5*time.Second)
			if active, _, _ := n.GK.Calls(); active != 1 {
				return n.Env, fmt.Errorf("gatekeeper holds %d calls, want 1", active)
			}
			if err := n.MSs[0].Hangup(n.Env, ref); err != nil {
				return n.Env, err
			}
			n.Env.RunUntil(n.Env.Now() + 10*time.Second)
			return n.Env, nil
		}},
		{"multi-region", func(d *trace.Digest) (*sim.Env, error) {
			n := BuildMultiRegion(MultiRegionOptions{Seed: 5, Regions: 2, MSPerRegion: 2})
			n.Env.SetTracer(d)
			if err := n.RegisterAll(); err != nil {
				return n.Env, err
			}
			return n.Env, msCall(n.Env, n.Regions[0].MSs[0], n.Regions[0].MSs[1], n.Subscribers[1].MSISDN)
		}},
		{"core", func(d *trace.Digest) (*sim.Env, error) {
			edge := &coreEdge{}
			n := BuildCore(5, 2, edge)
			n.Env.SetTracer(d)
			return n.Env, edge.registerAndCall(n)
		}},
		{"day", func(d *trace.Digest) (*sim.Env, error) {
			n := BuildDay(DayOptions{VGPRSOptions: VGPRSOptions{Seed: 5, NumMS: 2, Talk: true}})
			n.Env.SetTracer(d)
			if err := registerAndCall(n.VGPRSNet); err != nil {
				return n.Env, err
			}
			n.Roamer.PowerOn(n.Env)
			n.Env.RunUntil(n.Env.Now() + 30*time.Second)
			if n.Roamer.State() != gsm.MSIdle {
				return n.Env, fmt.Errorf("roamer state %v after registration", n.Roamer.State())
			}
			return n.Env, nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var outcome [2]string
			var errs [2]error
			var wg sync.WaitGroup
			for i := range outcome {
				wg.Add(1)
				go func() {
					defer wg.Done()
					d := trace.NewDigest()
					env, err := c.run(d)
					if err == nil && d.Len() == 0 {
						err = fmt.Errorf("no deliveries traced")
					}
					errs[i] = err
					outcome[i] = d.Seal(env.Delivered(), env.Now())
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if outcome[0] != outcome[1] {
				t.Fatalf("two runs from one seed differ: %s vs %s", outcome[0], outcome[1])
			}
		})
	}
}

// registerAndCall registers every MS and has the first call the second.
func registerAndCall(n *VGPRSNet) error {
	if err := n.RegisterAll(); err != nil {
		return err
	}
	return msCall(n.Env, n.MSs[0], n.MSs[1], n.Subscribers[1].MSISDN)
}

// msCall has caller dial callee's number, talk for a second and hang up. A
// callee that does not answer by itself is answered once it rings.
func msCall(env *sim.Env, caller, callee *gsm.MS, called gsmid.MSISDN) error {
	if err := caller.Dial(env, called); err != nil {
		return err
	}
	env.RunUntil(env.Now() + 5*time.Second)
	if callee.State() == gsm.MSRinging {
		callee.Answer(env)
		env.RunUntil(env.Now() + 2*time.Second)
	}
	if caller.State() != gsm.MSInCall || callee.State() != gsm.MSInCall {
		return fmt.Errorf("call states %v/%v", caller.State(), callee.State())
	}
	env.RunUntil(env.Now() + time.Second)
	if err := caller.Hangup(env); err != nil {
		return err
	}
	env.RunUntil(env.Now() + 2*time.Second)
	return nil
}

// callAndHandoff registers, calls the first terminal from the first MS and
// hands the call over.
func callAndHandoff(n *VGPRSNet, handoff func(*gsm.MS, time.Duration) bool) error {
	if err := n.RegisterAll(); err != nil {
		return err
	}
	ms := n.MSs[0]
	if err := ms.Dial(n.Env, TerminalAlias(0)); err != nil {
		return err
	}
	n.Env.RunUntil(n.Env.Now() + 3*time.Second)
	if ms.State() != gsm.MSInCall {
		return fmt.Errorf("MS state %v before handoff", ms.State())
	}
	if !handoff(ms, 10*time.Second) {
		return fmt.Errorf("handover did not complete")
	}
	return nil
}

// phoneCallsRoamer has a PSTN phone call the roamer and hang up.
func phoneCallsRoamer(env *sim.Env, call func(*sim.Env, gsmid.MSISDN) (uint32, error), hangup func(*sim.Env) error, ms *gsm.MS) error {
	if _, err := call(env, RoamerMSISDN); err != nil {
		return err
	}
	env.RunUntil(env.Now() + 10*time.Second)
	if ms.State() != gsm.MSInCall {
		return fmt.Errorf("roamer state %v after the call", ms.State())
	}
	if err := hangup(env); err != nil {
		return err
	}
	env.RunUntil(env.Now() + 5*time.Second)
	return nil
}

// coreEdge plays the BSC and both MSs of BuildCore's radio side: it answers
// paging and MT setup at once and hangs up an MO call once it connects.
type coreEdge struct {
	accepts, established int
}

func (e *coreEdge) ID() sim.NodeID { return "EDGE" }

func (e *coreEdge) Receive(env *sim.Env, _ sim.NodeID, _ string, msg sim.Message) {
	switch m := msg.(type) {
	case gsm.LocationUpdateAccept:
		e.accepts++
	case gsm.Paging:
		env.Send(e.ID(), "VMSC-1", gsm.PagingResponse{Leg: gsm.LegA, MS: m.MS, Identity: m.Identity})
	case gsm.Setup:
		env.Send(e.ID(), "VMSC-1", gsm.Alerting{Leg: gsm.LegA, MS: m.MS, CallRef: m.CallRef})
		env.Send(e.ID(), "VMSC-1", gsm.Connect{Leg: gsm.LegA, MS: m.MS, CallRef: m.CallRef})
	case gsm.Connect:
		e.established++
		env.After(100*time.Millisecond, func() {
			env.Send(e.ID(), "VMSC-1", gsm.Disconnect{Leg: gsm.LegA, MS: m.MS, CallRef: m.CallRef})
		})
	}
}

// registerAndCall provisions and registers two subscribers and has the
// first call the second.
func (e *coreEdge) registerAndCall(n *CoreNet) error {
	for i := 0; i < 2; i++ {
		sub := SubscriberN(i)
		if err := n.HLR.Provision(hlr.Subscriber{
			IMSI: sub.IMSI, MSISDN: sub.MSISDN, Ki: sub.Ki,
			Profile: sigmap.SubscriberProfile{MSISDN: sub.MSISDN, VoIPQoS: 1},
		}); err != nil {
			return err
		}
		n.Env.Send(e.ID(), "VMSC-1", gsm.LocationUpdate{
			Leg: gsm.LegA, MS: sim.NodeID(fmt.Sprintf("MS-%d", i+1)),
			Identity: gsmid.MobileIdentity{Kind: gsmid.IdentityIMSI, IMSI: sub.IMSI},
			LAI:      homeCell.LAI,
		})
	}
	n.Env.Run()
	if e.accepts != 2 {
		return fmt.Errorf("%d of 2 location updates accepted", e.accepts)
	}
	n.Env.Send(e.ID(), "VMSC-1", gsm.Setup{Leg: gsm.LegA, MS: "MS-1", CallRef: 1, Called: SubscriberN(1).MSISDN})
	n.Env.Run()
	if e.established != 1 || n.VMSC.ActiveCalls() != 0 {
		return fmt.Errorf("%d calls established, %d still active", e.established, n.VMSC.ActiveCalls())
	}
	return nil
}
