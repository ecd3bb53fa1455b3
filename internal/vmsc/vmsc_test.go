package vmsc_test

import (
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"vgprs/internal/gprs"
	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/h323"
	"vgprs/internal/ipnet"
	"vgprs/internal/netsim"
	"vgprs/internal/q931"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/slab"
	"vgprs/internal/ss7"
	"vgprs/internal/trace"
	"vgprs/internal/vmsc"
)

func registered(t *testing.T, opts netsim.VGPRSOptions) *netsim.VGPRSNet {
	t.Helper()
	n := netsim.BuildVGPRS(opts)
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestMSTableAndEntry(t *testing.T) {
	n := registered(t, netsim.VGPRSOptions{Seed: 1, NumMS: 3})
	if n.VMSC.MSTable() != 3 {
		t.Fatalf("MSTable = %d", n.VMSC.MSTable())
	}
	if _, _, ok := n.VMSC.Entry("999990000000000"); ok {
		t.Fatal("Entry for unknown IMSI reported ok")
	}
	st := n.VMSC.Stats()
	if st.Registrations != 3 || st.RegisterFailers != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMTCallWhileBusyIsRefused(t *testing.T) {
	n := registered(t, netsim.VGPRSOptions{Seed: 1, NumTerminals: 2})
	ms := n.MSs[0]

	// First call occupies the MS.
	if _, err := n.Terminals[0].Call(n.Env, n.Subscribers[0].MSISDN); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 3*time.Second)
	if ms.State() != gsm.MSInCall {
		t.Fatalf("state = %v", ms.State())
	}

	// Second caller gets Release Complete with user-busy.
	ref, err := n.Terminals[1].Call(n.Env, n.Subscribers[0].MSISDN)
	if err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 3*time.Second)
	if st, _ := n.Terminals[1].CallState(ref); st != h323.LegReleasing {
		t.Fatalf("second caller state = %v", st)
	}
	if _, err := n.Rec.ExpectFlow(trace.Flow{
		{Msg: "Q.931 Release Complete", From: "VMSC-1", To: "TERM-2"},
	}); err != nil {
		t.Fatal(err)
	}
	// The first call is unaffected.
	if ms.State() != gsm.MSInCall || n.VMSC.ActiveCalls() != 1 {
		t.Fatalf("first call disturbed: %v / %d", ms.State(), n.VMSC.ActiveCalls())
	}
}

func TestPagingTimeoutReleasesCaller(t *testing.T) {
	n := registered(t, netsim.VGPRSOptions{Seed: 1})
	ms := n.MSs[0]
	// Sever the radio path so paging can never reach the MS.
	n.Env.LinkBetween("BTS-1", sim.NodeID(ms.ID())).Down = true

	ref, err := n.Terminals[0].Call(n.Env, n.Subscribers[0].MSISDN)
	if err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 30*time.Second)
	if st, _ := n.Terminals[0].CallState(ref); st != h323.LegReleasing {
		t.Fatalf("caller state after paging timeout = %v", st)
	}
	if n.VMSC.ActiveCalls() != 0 {
		t.Fatal("call state leaked after paging timeout")
	}
}

func TestMOCallToUnknownAliasReleased(t *testing.T) {
	n := registered(t, netsim.VGPRSOptions{Seed: 1})
	ms := n.MSs[0]
	if err := ms.Dial(n.Env, "886299999999"); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 5*time.Second)
	// Back to idle from dialling: the call was released.
	if ms.State() != gsm.MSIdle {
		t.Fatalf("state=%v", ms.State())
	}
	if n.VMSC.ActiveCalls() != 0 {
		t.Fatal("call state leaked after ARJ")
	}
	// Channel returned to the BSC pool.
	if n.BSC.ChannelsInUse() != 0 {
		t.Fatalf("channels in use = %d", n.BSC.ChannelsInUse())
	}
}

func TestRegistrationFailsWhenGatekeeperUnreachable(t *testing.T) {
	failedStage := ""
	n := netsim.BuildVGPRS(netsim.VGPRSOptions{
		Seed: 1,
		VMSCMutate: func(cfg *vmsc.Config) {
			cfg.SigRTO = 500 * time.Millisecond
			cfg.Hooks.OnMSRegisterFailed = func(_ gsmid.IMSI, stage string) {
				failedStage = stage
			}
		},
	})
	// Cut the Gi link so RAS can never reach the gatekeeper.
	n.Env.LinkBetween("GGSN-1", "GI").Down = true
	n.Terminals[0].Register(n.Env)
	n.MSs[0].PowerOn(n.Env)
	n.Env.RunUntil(n.Env.Now() + 60*time.Second)

	if n.MSs[0].State() == gsm.MSIdle {
		t.Fatal("MS registered despite unreachable gatekeeper")
	}
	if _, registered, _ := n.VMSC.Entry(n.Subscribers[0].IMSI); registered {
		t.Fatal("MS table entry marked registered")
	}
	if failedStage != "gatekeeper-registration" {
		t.Fatalf("failed stage = %q", failedStage)
	}
}

func TestRegistrationFailsWhenSGSNUnreachable(t *testing.T) {
	n := netsim.BuildVGPRS(netsim.VGPRSOptions{Seed: 1})
	n.Env.LinkBetween("VMSC-1", "SGSN-1").Down = true
	n.MSs[0].PowerOn(n.Env)
	n.Env.RunUntil(n.Env.Now() + 60*time.Second)
	if n.MSs[0].State() == gsm.MSIdle {
		t.Fatal("MS registered despite unreachable SGSN")
	}
}

func TestUnknownSubscriberRejected(t *testing.T) {
	n := netsim.BuildVGPRS(netsim.VGPRSOptions{Seed: 1})
	ghost := gsm.NewMS(gsm.MSConfig{
		ID: "MS-GHOST", IMSI: "466929999999999", MSISDN: "886999999999",
		Ki: [16]byte{1}, BTS: "BTS-1",
	})
	n.Env.AddNode(ghost)
	n.Env.Connect("MS-GHOST", "BTS-1", "Um", time.Millisecond)
	ghost.PowerOn(n.Env)
	n.Env.RunUntil(n.Env.Now() + 30*time.Second)
	if ghost.State() == gsm.MSIdle {
		t.Fatal("unprovisioned IMSI registered")
	}
}

func TestFarEndReleaseClearsEverything(t *testing.T) {
	n := registered(t, netsim.VGPRSOptions{Seed: 1})
	ms := n.MSs[0]
	term := n.Terminals[0]
	if err := ms.Dial(n.Env, netsim.TerminalAlias(0)); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 3*time.Second)
	refs := term.CallRefs()
	if len(refs) != 1 {
		t.Fatalf("terminal refs = %v", refs)
	}
	if err := term.Hangup(n.Env, refs[0]); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 3*time.Second)
	if ms.State() != gsm.MSIdle {
		t.Fatalf("MS state = %v", ms.State())
	}
	if n.VMSC.ActiveCalls() != 0 || n.SGSN.ActiveContexts() != 1 {
		t.Fatalf("calls=%d contexts=%d", n.VMSC.ActiveCalls(), n.SGSN.ActiveContexts())
	}
	if n.VMSC.Stats().CallsReleased == 0 {
		t.Fatal("release not counted")
	}
}

func TestConsecutiveCallsReuseState(t *testing.T) {
	n := registered(t, netsim.VGPRSOptions{Seed: 1})
	ms := n.MSs[0]
	for i := 0; i < 5; i++ {
		if err := ms.Dial(n.Env, netsim.TerminalAlias(0)); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		n.Env.RunUntil(n.Env.Now() + 3*time.Second)
		if ms.State() != gsm.MSInCall {
			t.Fatalf("call %d state = %v", i, ms.State())
		}
		if err := ms.Hangup(n.Env); err != nil {
			t.Fatal(err)
		}
		n.Env.RunUntil(n.Env.Now() + 3*time.Second)
	}
	st := n.VMSC.Stats()
	if st.CallsEstablished != 5 || st.CallsReleased != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if n.SGSN.ActiveContexts() != 1 {
		t.Fatalf("contexts after 5 calls = %d", n.SGSN.ActiveContexts())
	}
}

func TestUplinkSpeechBeforeVoiceContextIsClipped(t *testing.T) {
	// The MS starts talking at Um_Connect, a moment before the voice PDP
	// context finishes activating; those frames are clipped, not crashed.
	n := registered(t, netsim.VGPRSOptions{Seed: 1, Talk: true})
	ms := n.MSs[0]
	if err := ms.Dial(n.Env, netsim.TerminalAlias(0)); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 5*time.Second)
	st := n.VMSC.Stats()
	if st.FramesUplink == 0 {
		t.Fatal("no uplink frames transcoded")
	}
	// Clipping may be zero when activation wins the race; the invariant
	// is only that clipped+uplink accounts for everything sent.
	if st.FramesClipped > st.FramesUplink {
		t.Fatalf("clipped %d > uplink %d", st.FramesClipped, st.FramesUplink)
	}
}

// TestOrphanPagingResponseReleasesChannel covers the race where the paging
// response arrives after the caller abandoned: the VMSC must release the
// channel the MS acquired rather than leak it.
func TestOrphanPagingResponseReleasesChannel(t *testing.T) {
	n := registered(t, netsim.VGPRSOptions{Seed: 1})
	n.Env.Send("BSC-1", "VMSC-1", gsm.PagingResponse{
		Leg: gsm.LegA, MS: "MS-1", Identity: gsmid.ByTMSI(1),
	})
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if _, err := n.Rec.ExpectFlow(trace.Flow{
		{Msg: "A_Paging_Response", To: "VMSC-1"},
		{Msg: "A_Release", From: "VMSC-1", To: "BSC-1"},
	}); err != nil {
		t.Fatal(err)
	}
	if n.BSC.ChannelsInUse() != 0 {
		t.Fatalf("channels in use = %d", n.BSC.ChannelsInUse())
	}
}

func TestQ931ReleaseForUnknownCallIgnored(t *testing.T) {
	n := registered(t, netsim.VGPRSOptions{Seed: 1})
	// Inject a stray ReleaseComplete toward the MS's signalling address.
	addr, _, _ := n.VMSC.Entry(n.Subscribers[0].IMSI)
	body, err := q931.Marshal(q931.ReleaseComplete{CallRef: 999, Cause: q931.CauseNormal})
	if err != nil {
		t.Fatal(err)
	}
	n.Env.Send("TERM-1", "GI", strayPacket(n, addr, body))
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	// Nothing crashed; no call state appeared.
	if n.VMSC.ActiveCalls() != 0 {
		t.Fatal("stray release created call state")
	}
}

func strayPacket(n *netsim.VGPRSNet, dst netip.Addr, body []byte) sim.Message {
	return ipnet.Packet{
		Src: ipnet.MustAddr("192.168.1.10"), Dst: dst,
		Proto: ipnet.ProtoTCP, SrcPort: ipnet.PortQ931, DstPort: ipnet.PortQ931,
		Payload: body,
	}
}

// TestVoicePDPExhaustionClearsBothLegs injects resource exhaustion at the
// SGSN so the per-call voice context (paper step 2.9) cannot activate: the
// VMSC must clear the radio leg AND release the already-answered H.323 leg.
func TestVoicePDPExhaustionClearsBothLegs(t *testing.T) {
	n := netsim.BuildVGPRS(netsim.VGPRSOptions{Seed: 1, SGSNMaxContexts: 1})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	// The single context slot is held by the signalling context; the
	// voice activation at Connect time must fail.
	ms := n.MSs[0]
	if err := ms.Dial(n.Env, netsim.TerminalAlias(0)); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 10*time.Second)

	// Back to idle from dialling: the call was released.
	if ms.State() != gsm.MSIdle {
		t.Fatalf("state=%v", ms.State())
	}
	if n.Terminals[0].ActiveCalls() != 0 {
		t.Fatal("terminal call leaked after voice-PDP failure")
	}
	if n.VMSC.ActiveCalls() != 0 || n.BSC.ChannelsInUse() != 0 {
		t.Fatalf("leaks: calls=%d channels=%d", n.VMSC.ActiveCalls(), n.BSC.ChannelsInUse())
	}
	// The network recovers once resources exist: the signalling context
	// still works for a later (failed) attempt's signalling.
	if n.SGSN.ActiveContexts() != 1 {
		t.Fatalf("contexts = %d", n.SGSN.ActiveContexts())
	}
}

func TestOnMSRegisteredHookFires(t *testing.T) {
	type regEvent struct {
		imsi gsmid.IMSI
		addr netip.Addr
	}
	var events []regEvent
	n := netsim.BuildVGPRS(netsim.VGPRSOptions{
		Seed: 3, NumMS: 2,
		VMSCMutate: func(cfg *vmsc.Config) {
			cfg.Hooks.OnMSRegistered = func(imsi gsmid.IMSI, addr netip.Addr) {
				events = append(events, regEvent{imsi, addr})
			}
		},
	})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("hook fired %d times, want 2", len(events))
	}
	for i, ev := range events {
		if ev.imsi != n.Subscribers[i].IMSI {
			t.Errorf("event %d IMSI = %s, want %s", i, ev.imsi, n.Subscribers[i].IMSI)
		}
		if !ev.addr.IsValid() {
			t.Errorf("event %d has no PDP address", i)
		}
	}
}

// TestPowerOffDuringCallClearsBothLegs powers the MS off mid-call: the VMSC
// must clear the H.323 leg toward the terminal, remove the gatekeeper
// alias, and detach the subscriber's GPRS contexts.
func TestPowerOffDuringCallClearsBothLegs(t *testing.T) {
	n := registered(t, netsim.VGPRSOptions{Seed: 5})
	ms := n.MSs[0]
	if err := ms.Dial(n.Env, netsim.TerminalAlias(0)); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 3*time.Second)
	if n.VMSC.ActiveCalls() != 1 || n.Terminals[0].ActiveCalls() != 1 {
		t.Fatalf("call not up: vmsc=%d term=%d",
			n.VMSC.ActiveCalls(), n.Terminals[0].ActiveCalls())
	}

	if err := ms.PowerOff(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 5*time.Second)

	if n.VMSC.ActiveCalls() != 0 {
		t.Errorf("VMSC still holds %d calls", n.VMSC.ActiveCalls())
	}
	if n.Terminals[0].ActiveCalls() != 0 {
		t.Errorf("terminal still holds %d calls", n.Terminals[0].ActiveCalls())
	}
	if _, reg, _ := n.VMSC.Entry(n.Subscribers[0].IMSI); reg {
		t.Error("subscriber still marked registered at the VMSC")
	}
	if _, found := n.GK.Lookup(n.Subscribers[0].MSISDN); found {
		t.Error("gatekeeper still resolves the detached alias")
	}
	if got := n.SGSN.ActiveContexts(); got != 0 {
		t.Errorf("SGSN still holds %d PDP contexts after detach", got)
	}
}

// TestPowerOffInIdlePDPModeReactivatesSignalling covers the IMSI-detach
// path in DeactivateIdlePDP mode: the signalling context is already torn
// down when the detach arrives, so the VMSC must transiently re-activate it
// to deliver the URQ before detaching for good.
func TestPowerOffInIdlePDPModeReactivatesSignalling(t *testing.T) {
	n := registered(t, netsim.VGPRSOptions{Seed: 5, DeactivateIdlePDP: true})
	if got := n.SGSN.ActiveContexts(); got != 0 {
		t.Fatalf("idle-PDP mode left %d contexts active", got)
	}

	if err := n.MSs[0].PowerOff(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 5*time.Second)

	if _, found := n.GK.Lookup(n.Subscribers[0].MSISDN); found {
		t.Error("gatekeeper still resolves the detached alias")
	}
	if _, reg, _ := n.VMSC.Entry(n.Subscribers[0].IMSI); reg {
		t.Error("subscriber still marked registered at the VMSC")
	}
	if got := n.SGSN.ActiveContexts(); got != 0 {
		t.Errorf("SGSN holds %d contexts after idle-mode detach", got)
	}
	// The unregistration must be visible on the RAS plane.
	if _, ok := n.Rec.First(trace.Step{Msg: "RAS URQ"}); !ok {
		t.Error("no URQ traced for the detach")
	}
}

// TestVMSCKeepAliveUnderGatekeeperTTL runs the full vGPRS network against
// a TTL-enforcing gatekeeper. Without keepalives the MS aliases lapse and
// terminating calls are rejected; with the VMSC refreshing on behalf of
// its MSs (as it registered on their behalf, paper step 1.4) the rows
// survive indefinitely and MT calls still connect.
func TestVMSCKeepAliveUnderGatekeeperTTL(t *testing.T) {
	ttl := func(cfg *h323.GatekeeperConfig) { cfg.RegistrationTTL = 20 * time.Second }

	// No keepalive: the alias lapses.
	n := registered(t, netsim.VGPRSOptions{Seed: 7, GKMutate: ttl})
	n.Env.RunUntil(n.Env.Now() + 60*time.Second)
	if _, err := n.Terminals[0].Call(n.Env, n.Subscribers[0].MSISDN); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 3*time.Second)
	if n.VMSC.ActiveCalls() != 0 {
		t.Fatal("MT call connected to a lapsed registration")
	}
	if _, rejected := n.GK.Admissions(); rejected == 0 {
		t.Fatal("no ARJ for the lapsed MS alias")
	}
	if _, ok := n.GK.Lookup(n.Subscribers[0].MSISDN); ok {
		t.Fatal("MS alias survived its ARJ without keepalives")
	}

	// With keepalives: rows live across three lifetimes, MT call works.
	k := registered(t, netsim.VGPRSOptions{Seed: 7, GKMutate: ttl})
	k.VMSC.StartKeepAlive(k.Env, 8*time.Second)
	k.Terminals[0].StartKeepAlive(k.Env, 8*time.Second)
	k.Env.RunUntil(k.Env.Now() + 60*time.Second)
	for _, alias := range []gsmid.MSISDN{k.Subscribers[0].MSISDN, netsim.TerminalAlias(0)} {
		if reg, ok := k.GK.Lookup(alias); !ok || reg.ExpiresAt <= k.Env.Now() {
			t.Fatalf("%s lapsed despite keepalives (%+v, %v)", alias, reg, ok)
		}
	}
	if _, err := k.Terminals[0].Call(k.Env, k.Subscribers[0].MSISDN); err != nil {
		t.Fatal(err)
	}
	k.Env.RunUntil(k.Env.Now() + 5*time.Second)
	if k.VMSC.ActiveCalls() != 1 {
		t.Fatal("MT call failed under keepalive")
	}
}

// TestKeepAliveEmitsInRowOrder recycles part of the MS table, registers the
// population in shuffled order and lets one keep-alive tick pass: the RRQs
// must leave in MS-table slot order, which is fixed by which slots the rows
// took and by nothing about the by-IMSI index — its capacity, its slot
// function, its growth — nor about the order of provisioning or
// registration. The builder provisions a row per subscriber in subscriber
// order, so a third of them are purged and provisioned again in another
// order: the free list hands their slots back out of order.
func TestKeepAliveEmitsInRowOrder(t *testing.T) {
	const population = 200
	n := netsim.BuildVGPRS(netsim.VGPRSOptions{Seed: 5, NumMS: population, TCHCapacity: 256})
	rng := rand.New(rand.NewSource(5))
	recycled := rng.Perm(population)[:population/3]
	for _, i := range recycled {
		n.Env.Send("VLR-1", "VMSC-1", sigmap.CancelLocation{Invoke: ss7.InvokeID(i + 1), IMSI: n.Subscribers[i].IMSI})
	}
	n.Env.Run()
	if got := n.VMSC.MSTable(); got != population-len(recycled) {
		t.Fatalf("MS table holds %d rows after purging %d of %d", got, len(recycled), population)
	}
	rng.Shuffle(len(recycled), func(a, b int) { recycled[a], recycled[b] = recycled[b], recycled[a] })
	for _, i := range recycled {
		n.VMSC.ProvisionMSISDN(n.Subscribers[i].IMSI, n.Subscribers[i].MSISDN)
	}
	for _, i := range rng.Perm(population) {
		n.MSs[i].PowerOn(n.Env)
		n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	}
	if got := n.VMSC.Stats().Registrations; got != population {
		t.Fatalf("%d of %d MS registered", got, population)
	}

	type row struct {
		alias gsmid.MSISDN
		h     slab.Handle
	}
	rows := make([]row, population)
	for i, sub := range n.Subscribers {
		rows[i] = row{sub.MSISDN, n.VMSC.RowHandle(sub.IMSI)}
		if rows[i].h.IsZero() {
			t.Fatalf("no MS-table row for %s", sub.IMSI)
		}
	}
	// A handle's low word is slot+1 (slab.Handle).
	sort.Slice(rows, func(a, b int) bool { return uint32(rows[a].h) < uint32(rows[b].h) })
	inProvisioningOrder := true
	for i, r := range rows {
		inProvisioningOrder = inProvisioningOrder && r.alias == n.Subscribers[i].MSISDN
	}
	if inProvisioningOrder {
		t.Fatal("slot order equals provisioning order: the recycling tests nothing")
	}

	n.Rec.Reset()
	n.VMSC.StartKeepAlive(n.Env, 10*time.Second)
	n.Env.RunUntil(n.Env.Now() + 5*time.Second) // the tick at start, not the next one
	var sent []gsmid.MSISDN
	for _, e := range n.Rec.Entries() {
		if rrq, ok := e.Msg.(h323.RRQ); ok && e.From == "VMSC-1" && rrq.KeepAlive {
			sent = append(sent, rrq.Alias)
		}
	}
	if len(sent) != population {
		t.Fatalf("%d keep-alive RRQs for %d registered MS", len(sent), population)
	}
	for i, r := range rows {
		if sent[i] != r.alias {
			t.Fatalf("keep-alive %d is for %s, slot order has %s", i, sent[i], r.alias)
		}
	}
}

// TestMSEntrySize pins the MS-table row: every resident subscriber costs the
// VMSC this much slab and nothing beside it (DESIGN.md §8). What is the same
// for every row — the VMSC itself, the hosted client's transport and policy,
// the H.323 endpoint — or has a packed or interned form must not creep back
// in, and no field may own a buffer.
func TestMSEntrySize(t *testing.T) {
	if got := vmsc.RowType.Size(); got > 160 {
		t.Fatalf("msEntry is %d bytes, budget 160", got)
	}
	banned := []reflect.Type{
		reflect.TypeOf((*vmsc.VMSC)(nil)), reflect.TypeOf((*gprs.Client)(nil)),
		reflect.TypeOf(h323.Endpoint{}), reflect.TypeOf(gsmid.LAI{}),
		reflect.TypeOf(gsmid.IMSI("")), reflect.TypeOf(gsmid.MSISDN("")),
	}
	for i := 0; i < vmsc.RowType.NumField(); i++ {
		f := vmsc.RowType.Field(i)
		for _, b := range banned {
			if f.Type == b {
				t.Errorf("msEntry.%s is a %v", f.Name, b)
			}
		}
		if k := f.Type.Kind(); k == reflect.Slice || k == reflect.Map || k == reflect.Interface || k == reflect.Func {
			t.Errorf("msEntry.%s is a %v: rows own no buffers, tables or callbacks", f.Name, k)
		}
	}
}

// TestH225RecordSizes pins what one RAS request and one Q.931 cycle occupy
// in the VMSC's transaction tables: a 48- and a 24-byte payload beside the
// table's own header. The tables sit in Footprint at their floor, so a larger
// record moves the committed bytes per subscriber (BENCH_scale.json).
func TestH225RecordSizes(t *testing.T) {
	if vmsc.RASRecordSize > 96 {
		t.Errorf("RAS record is %d bytes, budget 96", vmsc.RASRecordSize)
	}
	if vmsc.Q931RecordSize > 80 {
		t.Errorf("Q.931 record is %d bytes, budget 80", vmsc.Q931RecordSize)
	}
}

// TestVoiceBuffersDieWithCall: the uplink LLC framing buffer and Gb message
// of the voice fast path belong to the call, not to the MS that made it, so
// a subscriber who once talked keeps nothing for it after release.
func TestVoiceBuffersDieWithCall(t *testing.T) {
	n := registered(t, netsim.VGPRSOptions{Seed: 1, Talk: true})
	ms, imsi := n.MSs[0], n.Subscribers[0].IMSI
	for round := 0; round < 2; round++ {
		if err := ms.Dial(n.Env, netsim.TerminalAlias(0)); err != nil {
			t.Fatal(err)
		}
		n.Env.RunUntil(n.Env.Now() + 3*time.Second)
		if got, inCall := n.VMSC.VoiceBufferCap(imsi); !inCall || got == 0 {
			t.Fatalf("round %d: talking call holds a %d-byte voice buffer (in call %v)", round, got, inCall)
		}
		if err := ms.Hangup(n.Env); err != nil {
			t.Fatal(err)
		}
		n.Env.RunUntil(n.Env.Now() + 3*time.Second)
		if _, inCall := n.VMSC.VoiceBufferCap(imsi); inCall {
			t.Fatalf("round %d: row still references its call after release", round)
		}
	}
	if st := n.VMSC.Stats(); st.FramesUplink == 0 || st.CallsReleased != 2 {
		t.Fatalf("stats = %+v", st)
	}
}
