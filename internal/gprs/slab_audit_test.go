package gprs

import (
	"fmt"
	"testing"
	"unsafe"

	"vgprs/internal/gb"
	"vgprs/internal/gsmid"
	"vgprs/internal/gtp"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/slab"
	"vgprs/internal/ss7"
)

// gbSink is a bare Gb peer: it absorbs DLUnitdata replies and remembers the
// last accept's P-TMSI.
type gbSink struct {
	id    sim.NodeID
	ptmsi gsmid.PTMSI
}

func (s *gbSink) ID() sim.NodeID { return s.id }

func (s *gbSink) Receive(env *sim.Env, from sim.NodeID, iface string, msg sim.Message) {
	dl, ok := msg.(gb.DLUnitdata)
	if !ok {
		return
	}
	pdu, err := ParsePDU(dl.PDU)
	if err != nil {
		return
	}
	if acc, ok := pdu.SM.(AttachAccept); ok {
		s.ptmsi = acc.PTMSI
	}
}

// TestReattachForeignTLLIDoesNotLeakIndex pins the foreign-TLLI index leak:
// a subscriber that re-attaches on a new foreign TLLI (fresh arrival from
// another routing area) must not leave its previous alias in the TLLI
// index. Before the fix every such re-attach grew the index by one entry
// that nothing would ever delete; the slab audit now counts exactly one
// alias per roaming subscriber.
func TestReattachForeignTLLIDoesNotLeakIndex(t *testing.T) {
	env := sim.NewEnv(1)
	sgsn := NewSGSN(SGSNConfig{ID: "SGSN-1", GGSN: "GGSN-1"}) // no HLR: attach accepts locally
	peer := &gbSink{id: "PEER"}
	env.AddNode(sgsn)
	env.AddNode(peer)
	env.Connect("PEER", "SGSN-1", "Gb", 0)

	attachOn := func(tlli uint32) {
		pdu, err := WrapSM(AttachRequest{IMSI: testIMSI})
		if err != nil {
			t.Fatal(err)
		}
		env.Send("PEER", "SGSN-1", gb.ULUnitdata{
			TLLI: gsmid.TLLI(tlli), MS: "PEER", PDU: pdu,
		})
		env.Run()
	}

	for round, tlli := range []uint32{1, 2, 3} {
		attachOn(tlli)
		if got := sgsn.Attached(); got != 1 {
			t.Fatalf("round %d: attached = %d, want 1", round, got)
		}
		if got := sgsn.SlabImbalance(); got != 0 {
			t.Fatalf("round %d: slab imbalance = %d after re-attach on TLLI %d (stale alias leaked)",
				round, got, tlli)
		}
	}

	// The audit must actually see planted garbage, or the zeros above
	// prove nothing: inject a dangling alias and expect a violation.
	sgsn.mu.Lock()
	h := sgsn.byTLLI.Get(3)
	sgsn.byTLLI.Put(99, h)
	sgsn.mu.Unlock()
	if got := sgsn.SlabImbalance(); got == 0 {
		t.Fatal("audit missed a planted stale TLLI alias")
	}
	sgsn.mu.Lock()
	sgsn.byTLLI.Delete(99)
	sgsn.mu.Unlock()

	// Detach must return the record and both TLLI entries.
	pdu, err := WrapSM(DetachRequest{})
	if err != nil {
		t.Fatal(err)
	}
	env.Send("PEER", "SGSN-1", gb.ULUnitdata{
		TLLI: gsmid.LocalTLLI(peer.ptmsi), MS: "PEER", PDU: pdu,
	})
	env.Run()
	if got := sgsn.Attached(); got != 0 {
		t.Fatalf("attached after detach = %d, want 0", got)
	}
	if got := sgsn.SlabImbalance(); got != 0 {
		t.Fatalf("slab imbalance after detach = %d, want 0", got)
	}
}

// TestAuditSeesSwappedEntries swaps two subscribers' TLLI entries, then their
// TID entries. Every entry still resolves to a live row and every count still
// adds up, so an audit that asks only "does the entry resolve to some row"
// reads zero; the row each entry names must carry the key.
func TestAuditSeesSwappedEntries(t *testing.T) {
	env := sim.NewEnv(1)
	sgsn := NewSGSN(SGSNConfig{ID: "SGSN-1", GGSN: "GGSN-1"}) // no HLR: attach accepts locally
	env.AddNode(sgsn)
	env.AddNode(NewGGSN(GGSNConfig{ID: "GGSN-1", Gi: "GI"}))
	env.AddNode(&gbSink{id: "PEER"})
	env.Connect("PEER", "SGSN-1", "Gb", 0)
	env.Connect("SGSN-1", "GGSN-1", "Gn", 0)

	send := func(tlli uint32, m sim.Message) {
		pdu, err := WrapSM(m)
		if err != nil {
			t.Fatal(err)
		}
		env.Send("PEER", "SGSN-1", gb.ULUnitdata{TLLI: gsmid.TLLI(tlli), MS: "PEER", PDU: pdu})
		env.Run()
	}
	imsis := []gsmid.IMSI{"466920000000001", "466920000000002"}
	for i, imsi := range imsis {
		send(uint32(i+1), AttachRequest{IMSI: imsi})
		send(uint32(i+1), ActivatePDPRequest{NSAPI: 5})
	}
	if sgsn.Attached() != 2 || sgsn.ActiveContexts() != 2 {
		t.Fatalf("attached %d, contexts %d, want 2 and 2", sgsn.Attached(), sgsn.ActiveContexts())
	}
	if got := sgsn.SlabImbalance(); got != 0 {
		t.Fatalf("slab imbalance = %d with two subscribers, want 0", got)
	}

	tidA, tidB := uint64(gtp.MakeTID(imsis[0], 5)), uint64(gtp.MakeTID(imsis[1], 5))
	for _, c := range []struct {
		what string
		swap func()
	}{
		{"TLLI", func() { swapEntries(sgsn.byTLLI, 1, 2) }}, // the foreign TLLIs the attaches arrived on
		{"TID", func() { swapEntries(sgsn.byTID, tidA, tidB) }},
	} {
		sgsn.mu.Lock()
		c.swap()
		sgsn.mu.Unlock()
		if got := sgsn.SlabImbalance(); got == 0 {
			t.Errorf("audit missed two subscribers' swapped %s entries", c.what)
		}
		sgsn.mu.Lock()
		c.swap()
		sgsn.mu.Unlock()
		if got := sgsn.SlabImbalance(); got != 0 {
			t.Fatalf("slab imbalance = %d with the %s entries swapped back, want 0", got, c.what)
		}
	}
}

// swapEntries exchanges the handles two keys map to.
func swapEntries[K comparable](x *slab.Index[K], a, b K) {
	ha, hb := x.Get(a), x.Get(b)
	x.Put(a, hb)
	x.Put(b, ha)
}

// TestMSNamesAreNotInterned pins the symbol-table leak: the SGSN interned
// every subscriber's MS correlation name in a table whose symbols are never
// released, so it grew with the population and survived cancel-all. Only the
// Gb peers are symbols now; 2,000 subscribers with distinct MS names come and
// go and the table still holds the one peer they arrived through.
func TestMSNamesAreNotInterned(t *testing.T) {
	const subs = 2000
	env := sim.NewEnv(1)
	sgsn := NewSGSN(SGSNConfig{ID: "SGSN-1", GGSN: "GGSN-1"}) // no HLR: attach accepts locally
	env.AddNode(sgsn)
	env.AddNode(&gbSink{id: "PEER"})
	env.Connect("PEER", "SGSN-1", "Gb", 0)

	imsi := func(i int) gsmid.IMSI { return gsmid.IMSI(fmt.Sprintf("4669200%08d", i)) }
	for i := 0; i < subs; i++ {
		pdu, err := WrapSM(AttachRequest{IMSI: imsi(i)})
		if err != nil {
			t.Fatal(err)
		}
		env.Send("PEER", "SGSN-1", gb.ULUnitdata{
			TLLI: gsmid.TLLI(i + 1), MS: sim.NodeID(fmt.Sprintf("MS%05d", i)), PDU: pdu,
		})
	}
	env.Run()
	if got := sgsn.Attached(); got != subs {
		t.Fatalf("attached = %d, want %d", got, subs)
	}
	for i := 0; i < subs; i++ {
		env.Send("PEER", "SGSN-1", sigmap.CancelLocation{Invoke: ss7.InvokeID(i + 1), IMSI: imsi(i)})
	}
	env.Run()
	if got := sgsn.Attached(); got != 0 {
		t.Fatalf("attached after cancel-all = %d, want 0", got)
	}
	if got := sgsn.peers.Len(); got > 1 {
		t.Fatalf("symbol table holds %d names for one Gb peer: MS names are being interned", got)
	}
	if got := sgsn.SlabImbalance(); got != 0 {
		t.Fatalf("slab imbalance = %d, want 0", got)
	}

	// The audit must see a table that grows with the population.
	for i := 0; i <= gbPeerLimit; i++ {
		sgsn.peers.ID(sim.NodeID(fmt.Sprintf("MS%05d", i)))
	}
	if got := sgsn.SlabImbalance(); got == 0 {
		t.Fatal("audit missed a symbol table past the Gb peer limit")
	}
}

// TestClientStateSize pins the per-subscriber GMM/SM state the VMSC embeds in
// every MS-table row.
func TestClientStateSize(t *testing.T) {
	if got := unsafe.Sizeof(ClientState{}); got > 72 {
		t.Fatalf("ClientState is %d bytes, budget 72", got)
	}
}
