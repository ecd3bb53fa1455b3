package gprs

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"vgprs/internal/gtp"
	"vgprs/internal/sim"
	"vgprs/internal/txn"
)

func healLink(arg any) { arg.(*sim.Link).Down = false }

// TestClientAttachRetransmitRecovers drops the first AttachRequest on a
// down Um link and verifies the client's RTO timer retransmits it and the
// attach still succeeds, within one retransmission.
func TestClientAttachRetransmitRecovers(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{})
	f.ms.Client.Timeout = 100 * time.Millisecond

	um := f.env.LinkBetween("MS-1", "BTS-1")
	um.Down = true
	f.env.AfterArg(50*time.Millisecond, healLink, um)

	var done, ok bool
	if err := f.ms.Client.Attach(f.env, func(k bool) { done, ok = true, k }); err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	if !done || !ok {
		t.Fatalf("attach over lossy link: done=%v ok=%v", done, ok)
	}
	if got := txn.Total(f.ms.Client.TxnStats).Retransmits; got != 1 {
		t.Fatalf("retransmits = %d, want 1", got)
	}
	if err := f.ms.Client.LastError(); err != nil {
		t.Fatalf("LastError = %v, want nil", err)
	}
}

// TestClientAttachBudgetExhausted verifies the typed failure when every
// attempt is lost: the callback fires false at 15·RTO (attempts at 0, T,
// 3T, 7T; give-up at 15T with the default budget of 3 retries) and
// LastError reports ErrAttachTimeout.
func TestClientAttachBudgetExhausted(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{})
	const rto = 100 * time.Millisecond
	f.ms.Client.Timeout = rto

	f.env.LinkBetween("MS-1", "BTS-1").Down = true

	var done, ok bool
	var failedAt time.Duration
	if err := f.ms.Client.Attach(f.env, func(k bool) {
		done, ok = true, k
		failedAt = f.env.Now()
	}); err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	if !done || ok {
		t.Fatalf("attach on dead link: done=%v ok=%v", done, ok)
	}
	if failedAt != 15*rto {
		t.Fatalf("failed at %v, want %v", failedAt, 15*rto)
	}
	if got := txn.Total(f.ms.Client.TxnStats).Retransmits; got != 3 {
		t.Fatalf("retransmits = %d, want 3", got)
	}
	if !errors.Is(f.ms.Client.LastError(), ErrAttachTimeout) {
		t.Fatalf("LastError = %v, want ErrAttachTimeout", f.ms.Client.LastError())
	}
	// The failed transaction must leave the client reusable.
	f.env.LinkBetween("MS-1", "BTS-1").Down = false
	f.attach(t)
}

// TestClientActivateRetransmitRecovers drops the first ActivatePDPRequest
// and verifies the retained PDU is retransmitted and activation completes.
func TestClientActivateRetransmitRecovers(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{})
	f.attach(t)
	f.ms.Client.Timeout = 100 * time.Millisecond

	um := f.env.LinkBetween("MS-1", "BTS-1")
	um.Down = true
	f.env.AfterArg(50*time.Millisecond, healLink, um)

	var addr netip.Addr
	var done, ok bool
	if err := f.ms.Client.ActivatePDP(f.env, 5, gtp.SignallingQoS(), "",
		func(a netip.Addr, k bool) { addr, done, ok = a, true, k }); err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	if !done || !ok || !addr.IsValid() {
		t.Fatalf("activation over lossy link: done=%v ok=%v addr=%v", done, ok, addr)
	}
	if got := txn.Total(f.ms.Client.TxnStats).Retransmits; got != 1 {
		t.Fatalf("retransmits = %d, want 1", got)
	}
}

// TestClientActivateBudgetExhausted verifies the typed activation failure
// and that the NSAPI is reusable afterwards.
func TestClientActivateBudgetExhausted(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{})
	f.attach(t)
	f.ms.Client.Timeout = 100 * time.Millisecond

	um := f.env.LinkBetween("MS-1", "BTS-1")
	um.Down = true

	var done, ok bool
	if err := f.ms.Client.ActivatePDP(f.env, 5, gtp.SignallingQoS(), "",
		func(_ netip.Addr, k bool) { done, ok = true, k }); err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	if !done || ok {
		t.Fatalf("activation on dead link: done=%v ok=%v", done, ok)
	}
	if !errors.Is(f.ms.Client.LastError(), ErrActivateTimeout) {
		t.Fatalf("LastError = %v, want ErrActivateTimeout", f.ms.Client.LastError())
	}
	um.Down = false
	f.activate(t, 5, gtp.SignallingQoS(), "")
}

// TestClientDeactivateRetransmitAndExhaustion covers both deactivation
// outcomes: a dropped DeactivatePDPRequest recovers via retransmission,
// and a dead link degrades to a local tear-down with a typed error rather
// than a hang.
func TestClientDeactivateRetransmitAndExhaustion(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{})
	f.attach(t)
	f.activate(t, 5, gtp.SignallingQoS(), "")
	f.ms.Client.Timeout = 100 * time.Millisecond

	um := f.env.LinkBetween("MS-1", "BTS-1")
	um.Down = true
	f.env.AfterArg(50*time.Millisecond, healLink, um)
	var done bool
	if err := f.ms.Client.DeactivatePDP(f.env, 5, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	if !done {
		t.Fatal("deactivation over lossy link never completed")
	}
	if got := txn.Total(f.ms.Client.TxnStats).Retransmits; got != 1 {
		t.Fatalf("retransmits = %d, want 1", got)
	}
	if _, active := f.ms.Client.Context(5); active {
		t.Fatal("context still active after deactivate")
	}

	// Now exhaust the budget: the context must still be released locally
	// and the callback must fire so clear-down never hangs.
	f.activate(t, 5, gtp.SignallingQoS(), "")
	um.Down = true
	done = false
	if err := f.ms.Client.DeactivatePDP(f.env, 5, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	if !done {
		t.Fatal("deactivation on dead link never completed")
	}
	if !errors.Is(f.ms.Client.LastError(), ErrDeactivateTimeout) {
		t.Fatalf("LastError = %v, want ErrDeactivateTimeout", f.ms.Client.LastError())
	}
	if _, active := f.ms.Client.Context(5); active {
		t.Fatal("context not released locally on deactivation give-up")
	}
}

// TestSGSNGTPRetransmitRecovers drops the first CreatePDPRequest on the Gn
// link and verifies the SGSN's GTP transaction timer retransmits it so the
// activation still completes end to end.
func TestSGSNGTPRetransmitRecovers(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{SigRTO: 100 * time.Millisecond})
	f.attach(t)

	gn := f.env.LinkBetween("SGSN-1", "GGSN-1")
	gn.Down = true
	f.env.AfterArg(50*time.Millisecond, healLink, gn)

	// Give the client a long RTO so the recovery is attributable to the
	// SGSN's GTP retransmission, not a client-side SM retry.
	f.ms.Client.Timeout = 10 * time.Second

	addr := f.activate(t, 5, gtp.SignallingQoS(), "")
	if !addr.IsValid() {
		t.Fatal("no address assigned")
	}
	if got := f.sgsn.Retransmits(); got != 1 {
		t.Fatalf("SGSN retransmits = %d, want 1", got)
	}
	if got := txn.Total(f.ms.Client.TxnStats).Retransmits; got != 0 {
		t.Fatalf("client retransmits = %d, want 0", got)
	}
}

// TestSGSNGTPBudgetExhausted verifies a dead Gn path degrades to an
// ActivatePDPReject back to the MS instead of a silent hang, and that the
// GTP timer slab is fully recycled.
func TestSGSNGTPBudgetExhausted(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{SigRTO: 100 * time.Millisecond})
	f.attach(t)
	f.ms.Client.Timeout = time.Hour // SM expiry out of the picture

	f.env.LinkBetween("SGSN-1", "GGSN-1").Down = true

	var done, ok bool
	if err := f.ms.Client.ActivatePDP(f.env, 5, gtp.SignallingQoS(), "",
		func(_ netip.Addr, k bool) { done, ok = true, k }); err != nil {
		t.Fatal(err)
	}
	f.env.RunUntil(f.env.Now() + 30*time.Second)
	if !done || ok {
		t.Fatalf("activation over dead Gn: done=%v ok=%v", done, ok)
	}
	if got := f.sgsn.Retransmits(); got != 3 {
		t.Fatalf("SGSN retransmits = %d, want 3", got)
	}
}
