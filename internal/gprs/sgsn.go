package gprs

import (
	"net/netip"
	"time"

	"vgprs/internal/gb"
	"vgprs/internal/gsmid"
	"vgprs/internal/gtp"
	"vgprs/internal/ipnet"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/slab"
	"vgprs/internal/ss7"
	"vgprs/internal/txn"
)

// SGSNConfig parameterises an SGSN node.
type SGSNConfig struct {
	ID sim.NodeID
	// GGSN is the gateway this SGSN creates tunnels toward (Gn).
	GGSN sim.NodeID
	// HLR, when set, receives MAP_UPDATE_GPRS_LOCATION at attach (Gr).
	HLR sim.NodeID
	// SigRTO is the initial retransmission timeout for both the Gr MAP
	// dialogues and Gn GTP transactions this SGSN originates; it doubles
	// on every retry. Zero means 1 second.
	SigRTO time.Duration
	// SigRetries bounds retransmissions per transaction. Zero means 3.
	SigRetries int
	// MaxContexts bounds concurrently active PDP contexts (the resource
	// the paper's §6 PDP-residency trade-off is about). Zero means
	// unlimited.
	MaxContexts int
}

// gbPeerLimit is the most Gb peers (BSCs and VMSCs) one SGSN serves in any
// topology built here, with room to spare. Symbols are never released, so a
// peers table past it means per-subscriber values are being interned — it
// held every MS name once — and SlabImbalance reports the excess.
const gbPeerLimit = 1024

// mmRec is the SGSN's slab-resident per-subscriber mobility context: fixed
// size. The Gb peer and the serving cell are interned symbols (their
// cardinality is the topology size); the MS correlation handle is one name
// per subscriber, so it is held as the NodeID the Gb peer sent — the caller's
// string, no copy, and released with the record. PDP contexts hang off
// pdpHead as an intrusive list through a second slab.
type mmRec struct {
	imsi  gsmid.PackedDigits
	ptmsi gsmid.PTMSI
	// foreignTLLI is the (random/foreign) TLLI the last attach arrived
	// on. The context is indexed under it as well as the local TLLI, and
	// every teardown path must unindex both — forgetting the foreign one
	// leaked an index entry per attach in the old map-based code.
	foreignTLLI gsmid.TLLI
	// ms and peer record where downlink traffic goes: the Gb peer node
	// (BSC or VMSC) and the MS correlation handle it needs.
	ms   sim.NodeID
	peer uint32 // symbol in SGSN.peers
	cell uint32 // symbol in SGSN.cells
	// pdpHead/npdp anchor the subscriber's PDP contexts in SGSN.pdps.
	pdpHead slab.Handle
	npdp    uint8
	// attachPending dedupes in-flight attaches: a retransmitted
	// AttachRequest must not spawn a second HLR dialogue.
	attachPending bool
	// activating and deactivating dedupe in-flight GTP creates and deletes
	// the same way, one bit per NSAPI (a 4-bit field, see gtp.MakeTID): a
	// retransmitted SM request must not issue a second GTP request.
	activating, deactivating uint16
}

// pdpRec is the SGSN's slab-resident per-PDP-context state. Each context
// remembers the Gb path it was activated over: the same subscriber can
// hold voice contexts through the VMSC and data contexts through the radio
// PCU simultaneously (the paper's Fig 2(b) shows both paths side by side),
// and downlink traffic must follow each context's own path.
type pdpRec struct {
	tid  gtp.TID
	addr netip.Addr // zero when the GGSN assigned no address
	ms   sim.NodeID
	next slab.Handle
	// media is the lazily-allocated reusable relay state for realtime
	// (voice) contexts — it makes the per-frame Gb↔Gn relay
	// allocation-free. Nil for signalling/data contexts; cleared when the
	// context is freed so the slab slot retains nothing.
	media *pdpMedia
	peer  uint32 // symbol in SGSN.peers
	qos   gtp.QoSProfile
	nsapi uint8
}

// pdpMedia holds one voice context's reusable relay messages and downlink
// LLC buffer. Each is overwritten once per frame interval; the receiving
// node consumes the previous contents within the link latency (1–2 ms plus
// any chaos jitter), far inside the 20 ms frame beat.
type pdpMedia struct {
	tpdu  gtp.TPDU
	dl    gb.DLUnitdata
	dlBuf []byte
}

// isRTP reports whether an encoded inner packet is RTP media (by port).
// The reusable-message fast path must carry only the periodic media
// stream: signalling sharing a realtime context (as TR 23.923 stacks do)
// must stay on the value path, or a signalling packet and a voice frame
// sent in the same instant would alias one reused message and the earlier
// of the two would be lost in flight. It reads the header in place
// (ipnet.Peek) and accepts exactly the packets ipnet.Unmarshal accepts.
func isRTP(encoded []byte) bool {
	h, _, ok := ipnet.Peek(encoded)
	return ok && h.IsRTP()
}

// addrString renders the PDP address in the SM wire form ("" when unset).
func (p *pdpRec) addrString() string {
	if !p.addr.IsValid() {
		return ""
	}
	return p.addr.String()
}

// SGSN is the serving GPRS support node: it terminates the Gb interface,
// manages attach and PDP-context state, and tunnels user traffic to the
// GGSN over GTP (Gn). Subscriber state lives in value slabs addressed by
// open-addressing indexes (TLLI, IMSI, TID → row) so an attached-but-
// idle subscriber costs a bounded number of bytes.
type SGSN struct {
	cfg SGSNConfig

	mms     *slab.Slab[mmRec]
	pdps    *slab.Slab[pdpRec]
	byTLLI  *slab.RowIndex[uint32, mmRec]
	byIMSI  *slab.RowIndex[gsmid.PackedDigits, mmRec]
	byTID   *slab.RowIndex[uint64, mmRec]
	peers   slab.Syms[sim.NodeID] // Gb peer nodes (BSCs, VMSCs)
	cells   slab.Syms[gsmid.CGI]  // serving cells
	nextPT  uint32
	nextSeq uint16
	// gtp holds the outstanding GTP requests toward the GGSN by sequence
	// number, attach the UpdateGPRSLocation dialogues toward the HLR by MAP
	// invoke ID.
	gtp        *txn.Table[uint16, gtpTxn]
	attach     *txn.Table[ss7.InvokeID, attachTxn]
	nextInvoke ss7.InvokeID
}

// gtpTxn is the payload of one outstanding GTP request toward the GGSN,
// dispatched by kind when it ends. The subscriber rides along as a slab
// handle: if it detaches while the request is in flight the handle goes
// stale and Get returns nil.
type gtpTxn struct {
	kind  uint8 // txnActivate, txnDeactivate or txnCleanup
	nsapi uint8
	peer  sim.NodeID
	ms    sim.NodeID
	tlli  gsmid.TLLI
	tid   gtp.TID
	mm    slab.Handle
	req   sim.Message // retained for retransmission
}

const (
	txnActivate = iota + 1
	txnDeactivate
	// txnCleanup is a GGSN-side tunnel teardown with no GMM reply (detach
	// and HLR-cancel paths); it is retransmitted like the others so a lost
	// DeletePDPRequest does not leak the tunnel.
	txnCleanup
)

// attachTxn is the payload of one in-flight HLR attach dialogue: the
// subscriber as a slab handle, as in gtpTxn, whose row holds the reply path.
type attachTxn struct {
	mm  slab.Handle
	req sim.Message // retained for retransmission
}

// armGTP enters the request into the GTP table (which retransmits it on the
// SigRTO/SigRetries schedule) and sends the first copy toward the GGSN.
func (s *SGSN) armGTP(env *sim.Env, seq uint16, t gtpTxn, req sim.Message) {
	t.req = req
	p := s.gtp.Begin(env, seq, txn.Policy{RTO: s.cfg.SigRTO, Retries: s.cfg.SigRetries})
	if p == nil {
		return // the whole 16-bit sequence space is in flight; the MS retries
	}
	*p = t
	s.markInFlight(p, true)
	env.Send(s.cfg.ID, s.cfg.GGSN, req)
}

// nsapiBit is an NSAPI's bit in mmRec.activating/deactivating.
func nsapiBit(nsapi uint8) uint16 { return 1 << (nsapi & 0x0F) }

// markInFlight sets or clears the subscriber's dedupe bit for an activate or
// deactivate request; a stale subscriber has none to keep.
func (s *SGSN) markInFlight(t *gtpTxn, on bool) {
	r := s.mms.Get(t.mm)
	if r == nil {
		return
	}
	var mask *uint16
	switch t.kind {
	case txnActivate:
		mask = &r.activating
	case txnDeactivate:
		mask = &r.deactivating
	default:
		return
	}
	if on {
		*mask |= nsapiBit(t.nsapi)
	} else {
		*mask &^= nsapiBit(t.nsapi)
	}
}

// gtpExpired runs when a GTP request exhausts its retransmission budget. The
// transaction fails gracefully: activations are rejected back to the client,
// deactivations tear down locally, cleanups are abandoned.
func (s *SGSN) gtpExpired(env *sim.Env, t *gtpTxn) {
	s.markInFlight(t, false)
	switch t.kind {
	case txnActivate:
		s.reply(env, t.peer, t.ms, t.tlli, ActivatePDPReject{NSAPI: t.nsapi, Cause: SMCauseNetworkFailure})
	case txnDeactivate:
		// The GGSN is unreachable: release the context locally so the
		// subscriber is not stuck holding a dead tunnel (the GGSN side is
		// reclaimed by its own teardown paths on re-attach).
		s.finishDeactivate(env, *t)
	}
}

var _ sim.Node = (*SGSN)(nil)

// NewSGSN returns an SGSN.
func NewSGSN(cfg SGSNConfig) *SGSN {
	if cfg.SigRTO == 0 {
		cfg.SigRTO = time.Second
	}
	mms := slab.NewSlab[mmRec]()
	s := &SGSN{
		cfg:  cfg,
		mms:  mms,
		pdps: slab.NewSlab[pdpRec](),
		// A subscriber is entered under its local TLLI and, when it
		// roamed in on one, its foreign TLLI.
		byTLLI: slab.NewRowIndex(mms, slab.HashUint32, func(k uint32, r *mmRec) bool {
			return gsmid.TLLI(k) == gsmid.LocalTLLI(r.ptmsi) || gsmid.TLLI(k) == r.foreignTLLI
		}),
		byIMSI: slab.NewRowIndex(mms, gsmid.PackedDigits.Hash, func(k gsmid.PackedDigits, r *mmRec) bool { return r.imsi == k }),
	}
	s.byTID = slab.NewRowIndex(mms, slab.HashUint64, s.hasTID)
	s.gtp = txn.New[uint16](
		func(env *sim.Env, t *gtpTxn) bool { env.Send(s.cfg.ID, s.cfg.GGSN, t.req); return true },
		s.gtpExpired,
	)
	s.attach = txn.New[ss7.InvokeID](
		func(env *sim.Env, t *attachTxn) bool { env.Send(s.cfg.ID, s.cfg.HLR, t.req); return true },
		func(env *sim.Env, t *attachTxn) { s.finishAttach(env, t.mm, false) },
	)
	return s
}

// ID implements sim.Node.
func (s *SGSN) ID() sim.NodeID { return s.cfg.ID }

// Attached returns the number of attached subscribers.
func (s *SGSN) Attached() int {
	return s.mms.Len()
}

// ActiveContexts returns the number of active PDP contexts — the SGSN-side
// residency cost measured by experiment C2.
func (s *SGSN) ActiveContexts() int {
	return s.pdps.Len()
}

// PendingTransactions returns the number of outstanding GTP transactions
// toward the GGSN (creates, deletes and cleanups still awaiting a response
// or a retry-budget verdict). Zero at quiescence.
func (s *SGSN) PendingTransactions() int {
	return s.gtp.InFlight()
}

// OutstandingDialogues returns un-answered MAP invokes toward the HLR.
func (s *SGSN) OutstandingDialogues() int { return s.attach.InFlight() }

// Retransmits returns the number of signalling request PDUs (MAP + GTP)
// this SGSN has re-sent.
func (s *SGSN) Retransmits() uint64 {
	return s.attach.Retransmits() + s.gtp.Retransmits()
}

// Audit reports every transient record this SGSN holds, by kind, plus its
// storage audit — all zero at quiescence. netsim's leak gate walks it.
func (s *SGSN) Audit(report func(kind string, n int)) {
	report("pending GTP transactions", s.PendingTransactions())
	report("open dialogues", s.OutstandingDialogues())
	report("slab imbalance", s.SlabImbalance())
}

// TxnStats reports the MAP and GTP tables' lifetime counters.
func (s *SGSN) TxnStats(report func(plane string, st txn.Stats)) {
	report("MAP", s.attach.Stats())
	report("GTP", s.gtp.Stats())
}

// Footprint is the memory the MM and PDP context stores hold, in bytes: slab
// chunks plus index tables, and the two transaction tables.
func (s *SGSN) Footprint() int {
	return s.mms.Bytes() + s.pdps.Bytes() + s.byTLLI.Bytes() + s.byIMSI.Bytes() + s.byTID.Bytes() +
		s.attach.Bytes() + s.gtp.Bytes()
}

// SlabImbalance audits the slab storage: the IMSI index must own the MM rows
// (RowIndex.Audit), every TLLI entry must name its row's local TLLI or foreign
// alias and every TID entry a context on its row's list, and the PDP slab
// population must match the sum of per-subscriber context lists and the TID
// index; the MAP and GTP transaction tables must account for every record
// they allocated; and the never-released peer symbol table must stay
// topology-sized (gbPeerLimit). Non-zero means a context or record leaked or
// was lost; the soak/leak gates assert zero.
func (s *SGSN) SlabImbalance() int {
	imb := s.attach.Occupancy().Imbalance() + s.gtp.Occupancy().Imbalance() +
		max(0, s.peers.Len()-gbPeerLimit) + s.pdps.Imbalance() +
		s.byIMSI.Audit() + s.byTLLI.Stale() + s.byTID.Stale()
	pdpListed, tlliExpected := 0, 0
	s.mms.Range(func(_ slab.Handle, r *mmRec) bool {
		// Each subscriber owns its local TLLI entry plus, when roaming in
		// on a foreign TLLI, exactly one alias — a re-attach that forgets
		// to unindex the old alias shows up as excess byTLLI population.
		tlliExpected++
		if r.foreignTLLI != 0 {
			tlliExpected++
		}
		// The context list must be exactly npdp live records.
		n := 0
		for ph := r.pdpHead; !ph.IsZero(); {
			p := s.pdps.Get(ph)
			if p == nil {
				imb++
				break
			}
			n++
			ph = p.next
		}
		if n != int(r.npdp) {
			imb++
		}
		pdpListed += n
		return true
	})
	for _, d := range []int{pdpListed - s.pdps.Len(), s.byTID.Len() - s.pdps.Len(), tlliExpected - s.byTLLI.Len()} {
		imb += max(d, -d)
	}
	return imb
}

// hasTID is byTID's identity: a TID names the subscriber that has a context
// with it on its list.
func (s *SGSN) hasTID(k uint64, r *mmRec) bool {
	for p := s.pdps.Get(r.pdpHead); p != nil; p = s.pdps.Get(p.next) {
		if uint64(p.tid) == k {
			return true
		}
	}
	return false
}

// findPDP walks the subscriber's context list for an NSAPI.
func (s *SGSN) findPDP(r *mmRec, nsapi uint8) *pdpRec {
	for h := r.pdpHead; !h.IsZero(); {
		p := s.pdps.Get(h)
		if p == nil {
			return nil
		}
		if p.nsapi == nsapi {
			return p
		}
		h = p.next
	}
	return nil
}

// addPDP links a new context record onto the subscriber.
func (s *SGSN) addPDP(r *mmRec) *pdpRec {
	h, p := s.pdps.Alloc()
	p.next = r.pdpHead
	r.pdpHead = h
	r.npdp++
	return p
}

// removePDP unlinks and frees the context with the given NSAPI, returning
// its TID.
func (s *SGSN) removePDP(r *mmRec, nsapi uint8) (gtp.TID, bool) {
	prev := &r.pdpHead
	for h := *prev; !h.IsZero(); h = *prev {
		p := s.pdps.Get(h)
		if p == nil {
			return 0, false
		}
		if p.nsapi == nsapi {
			tid := p.tid
			*prev = p.next
			s.byTID.Delete(uint64(tid))
			p.media = nil
			s.pdps.Free(h)
			r.npdp--
			return tid, true
		}
		prev = &p.next
	}
	return 0, false
}

// removeAllPDPs tears down every context of a subscriber, appending the
// TIDs to tids.
func (s *SGSN) removeAllPDPs(r *mmRec, tids []gtp.TID) []gtp.TID {
	for h := r.pdpHead; !h.IsZero(); {
		p := s.pdps.Get(h)
		if p == nil {
			break
		}
		next := p.next
		tids = append(tids, p.tid)
		s.byTID.Delete(uint64(p.tid))
		p.media = nil
		s.pdps.Free(h)
		h = next
	}
	r.pdpHead = 0
	r.npdp = 0
	return tids
}

// unindexTLLIs removes every TLLI alias of a subscriber — the local TLLI
// derived from its P-TMSI and the foreign TLLI its last attach arrived on.
func (s *SGSN) unindexTLLIs(r *mmRec) {
	s.byTLLI.Delete(uint32(gsmid.LocalTLLI(r.ptmsi)))
	if r.foreignTLLI != 0 {
		s.byTLLI.Delete(uint32(r.foreignTLLI))
	}
}

// Receive implements sim.Node.
func (s *SGSN) Receive(env *sim.Env, from sim.NodeID, iface string, msg sim.Message) {
	switch m := msg.(type) {
	case gb.ULUnitdata:
		s.handleUL(env, from, m)
	case *gb.ULUnitdata:
		// Voice fast path: senders reuse a pointer message to avoid the
		// interface-boxing allocation per frame.
		s.handleUL(env, from, *m)
	case gtp.CreatePDPResponse:
		s.resolve(env, m.Seq, m)
	case gtp.DeletePDPResponse:
		s.resolve(env, m.Seq, m)
	case gtp.TPDU:
		s.handleDownlinkTPDU(env, m)
	case *gtp.TPDU:
		s.handleDownlinkTPDU(env, *m)
	case gtp.PDUNotifyRequest:
		s.handlePDUNotify(env, from, m)
	case sigmap.UpdateGPRSLocationAck:
		if t, ok := s.attach.Take(m.Invoke); ok {
			s.finishAttach(env, t.mm, m.Cause == sigmap.CauseNone)
		}
	case sigmap.CancelLocation:
		s.handleCancelLocation(env, from, m)
	}
}

// handleCancelLocation purges a subscriber whose service moved to another
// SGSN (HLR-driven, GSM 03.60 inter-SGSN routing-area update): the MM
// context and every PDP context go, including the GGSN-side tunnels.
func (s *SGSN) handleCancelLocation(env *sim.Env, from sim.NodeID, m sigmap.CancelLocation) {
	h, r := s.byIMSI.Get(m.IMSI.Pack())
	var tids []gtp.TID
	if r != nil {
		tids = s.removeAllPDPs(r, tids)
		s.byIMSI.Delete(r.imsi)
		s.unindexTLLIs(r)
		s.mms.Free(h)
	}
	for _, tid := range tids {
		s.cleanupTunnel(env, tid)
	}
	env.Send(s.cfg.ID, from, sigmap.CancelLocationAck{Invoke: m.Invoke})
}

// cleanupTunnel tears a GGSN-side tunnel down with retransmission but no
// GMM reply (detach and HLR-cancel paths).
func (s *SGSN) cleanupTunnel(env *sim.Env, tid gtp.TID) {
	s.nextSeq++
	seq := s.nextSeq
	s.armGTP(env, seq, gtpTxn{kind: txnCleanup, tid: tid},
		gtp.DeletePDPRequest{Seq: seq, TID: tid})
}

func (s *SGSN) resolve(env *sim.Env, seq uint16, resp sim.Message) {
	t, ok := s.gtp.Take(seq)
	if !ok {
		return
	}
	s.markInFlight(&t, false)
	switch t.kind {
	case txnActivate:
		s.finishActivate(env, t, resp)
	case txnDeactivate:
		s.finishDeactivate(env, t)
	}
}

// reply sends a GMM/SM answer back over the path the request came in on
// (peer + MS handle), so transactions for one subscriber can run over the
// VMSC and radio paths independently.
func (s *SGSN) reply(env *sim.Env, peer, ms sim.NodeID, tlli gsmid.TLLI, sm sim.Message) {
	pdu, err := WrapSM(sm)
	if err != nil {
		return
	}
	// Record the logical GMM/SM arrow; the bytes ride inside LLC/Gb.
	env.Note(s.cfg.ID, peer, "GMM", sm)
	env.Send(s.cfg.ID, peer, gb.DLUnitdata{TLLI: tlli, MS: ms, PDU: pdu})
}

func (s *SGSN) handleUL(env *sim.Env, peer sim.NodeID, ul gb.ULUnitdata) {
	// User data takes a fast path: the SNDCP payload bytes ARE the inner
	// packet's wire form, so the SGSN relays them into the GTP tunnel
	// without the decode/re-encode round trip (the GGSN validates on its
	// end). Signalling still gets the full parse below.
	if len(ul.PDU) >= 2 && ul.PDU[0] == sapiData {
		s.handleUplinkData(env, ul, ul.PDU[1], ul.PDU[2:])
		return
	}
	parsed, err := ParsePDU(ul.PDU)
	if err != nil {
		return
	}
	// Record the logical GMM/SM arrow for the decoded signalling message.
	env.Note(peer, s.cfg.ID, "GMM", parsed.SM)
	switch m := parsed.SM.(type) {
	case AttachRequest:
		s.handleAttach(env, peer, ul, m)
	case DetachRequest:
		s.handleDetach(env, ul)
	case ActivatePDPRequest:
		s.handleActivate(env, peer, ul, m)
	case DeactivatePDPRequest:
		s.handleDeactivate(env, peer, ul, m)
	}
}

func (s *SGSN) handleAttach(env *sim.Env, peer sim.NodeID, ul gb.ULUnitdata, m AttachRequest) {
	packed := m.IMSI.Pack()
	h, r := s.byIMSI.Get(packed)
	if r == nil {
		s.nextPT++
		h, r = s.mms.Alloc()
		r.imsi = packed
		r.ptmsi = gsmid.PTMSI(s.nextPT)
		s.byIMSI.Put(packed, h)
	}
	// A retransmitted AttachRequest while the HLR dialogue is in flight
	// must not spawn a second one; the pending dialogue will answer.
	if r.attachPending {
		return
	}
	r.ms = ul.MS
	r.peer = s.peers.ID(peer)
	r.cell = s.cells.ID(ul.Cell)
	// Index under both the TLLI the request came with and the local TLLI
	// the client derives from its new P-TMSI. A re-attach can arrive on a
	// different foreign TLLI — unindex the previous one or it dangles.
	local := gsmid.LocalTLLI(r.ptmsi)
	if r.foreignTLLI != 0 && r.foreignTLLI != ul.TLLI {
		s.byTLLI.Delete(uint32(r.foreignTLLI))
	}
	if ul.TLLI != local {
		r.foreignTLLI = ul.TLLI
	} else {
		r.foreignTLLI = 0
	}
	s.byTLLI.Put(uint32(ul.TLLI), h)
	s.byTLLI.Put(uint32(local), h)
	if s.cfg.HLR == "" {
		s.reply(env, peer, ul.MS, ul.TLLI, AttachAccept{PTMSI: r.ptmsi})
		return
	}
	r.attachPending = true
	s.nextInvoke++
	var req sim.Message = sigmap.UpdateGPRSLocation{Invoke: s.nextInvoke, IMSI: m.IMSI, SGSN: string(s.cfg.ID)}
	*s.attach.Begin(env, s.nextInvoke, txn.Policy{RTO: s.cfg.SigRTO, Retries: s.cfg.SigRetries}) = attachTxn{mm: h, req: req}
	env.Send(s.cfg.ID, s.cfg.HLR, req)
}

// finishAttach completes GPRS attach when the HLR answers (or the dialogue
// times out), on the path the request arrived by. If the subscriber was
// cancelled meanwhile the handle is stale and there is nobody to answer.
func (s *SGSN) finishAttach(env *sim.Env, mm slab.Handle, accepted bool) {
	r := s.mms.Get(mm)
	if r == nil {
		return
	}
	r.attachPending = false
	tlli := r.foreignTLLI
	if tlli == 0 {
		tlli = gsmid.LocalTLLI(r.ptmsi)
	}
	if !accepted {
		s.reply(env, s.peers.Val(r.peer), r.ms, tlli, AttachReject{Cause: SMCauseUnknownSubscriber})
		return
	}
	s.reply(env, s.peers.Val(r.peer), r.ms, tlli, AttachAccept{PTMSI: r.ptmsi})
}

func (s *SGSN) handleDetach(env *sim.Env, ul gb.ULUnitdata) {
	h, r := s.byTLLI.Get(uint32(ul.TLLI))
	if r == nil {
		return
	}
	tids := s.removeAllPDPs(r, nil)
	peer := s.peers.Val(r.peer)
	s.byIMSI.Delete(r.imsi)
	s.unindexTLLIs(r)
	s.byTLLI.Delete(uint32(ul.TLLI)) // covers a detach on an unusual alias
	s.mms.Free(h)
	// Tear the tunnels down at the GGSN too, or a later re-attach would
	// collide with the stale TIDs (GSM 03.60 detach deletes all contexts).
	for _, tid := range tids {
		s.cleanupTunnel(env, tid)
	}
	s.reply(env, peer, ul.MS, ul.TLLI, DetachAccept{})
}

func (s *SGSN) handleActivate(env *sim.Env, peer sim.NodeID, ul gb.ULUnitdata, m ActivatePDPRequest) {
	h, r := s.byTLLI.Get(uint32(ul.TLLI))
	if r == nil {
		return // not attached: no reply channel is even known
	}
	// A retransmitted ActivatePDPRequest while the GTP create is in
	// flight must not issue a second CreatePDPRequest.
	if r.activating&nsapiBit(m.NSAPI) != 0 {
		return // duplicate of a pending activation: the original will answer
	}
	if p := s.findPDP(r, m.NSAPI); p != nil {
		// The NSAPI is already active: this is a retransmission whose
		// Accept was lost. Re-ack with the existing binding — rejecting
		// here would turn one dropped downlink frame into a permanent
		// activation failure.
		s.reply(env, peer, ul.MS, ul.TLLI, ActivatePDPAccept{NSAPI: m.NSAPI, Address: p.addrString(), QoS: p.qos})
		return
	}
	if s.cfg.MaxContexts > 0 && s.pdps.Len() >= s.cfg.MaxContexts {
		s.reply(env, peer, ul.MS, ul.TLLI, ActivatePDPReject{NSAPI: m.NSAPI, Cause: SMCauseNoResources})
		return
	}

	s.nextSeq++
	seq := s.nextSeq
	s.armGTP(env, seq, gtpTxn{
		kind: txnActivate, nsapi: m.NSAPI,
		peer: peer, ms: ul.MS, tlli: ul.TLLI, mm: h,
	}, gtp.CreatePDPRequest{
		Seq: seq, IMSI: r.imsi.IMSI(), NSAPI: m.NSAPI, QoS: m.QoS,
		SGSN: string(s.cfg.ID), RequestedAddress: m.RequestedAddress,
	})
}

func (s *SGSN) finishActivate(env *sim.Env, t gtpTxn, resp sim.Message) {
	cr, isCreate := resp.(gtp.CreatePDPResponse)
	if !isCreate || !cr.Cause.Accepted() {
		s.reply(env, t.peer, t.ms, t.tlli, ActivatePDPReject{NSAPI: t.nsapi, Cause: SMCauseNetworkFailure})
		return
	}
	r := s.mms.Get(t.mm)
	if r == nil {
		// The subscriber detached (or the HLR cancelled it) while the
		// create was in flight: the handle is stale, and installing the
		// context now would leak it permanently — nothing ever detaches a
		// context the MM index no longer references. Reclaim the freshly
		// built GGSN-side tunnel instead and stay silent; there is no
		// subscriber to answer.
		s.cleanupTunnel(env, cr.TID)
		return
	}
	p := s.addPDP(r)
	p.nsapi = t.nsapi
	p.tid = cr.TID
	if cr.Address != "" {
		if a, err := netip.ParseAddr(cr.Address); err == nil {
			p.addr = a
		}
	}
	p.qos = cr.QoS
	p.peer = s.peers.ID(t.peer)
	p.ms = t.ms
	s.byTID.Put(uint64(cr.TID), t.mm)
	s.reply(env, t.peer, t.ms, t.tlli, ActivatePDPAccept{NSAPI: t.nsapi, Address: cr.Address, QoS: cr.QoS})
}

func (s *SGSN) handleDeactivate(env *sim.Env, peer sim.NodeID, ul gb.ULUnitdata, m DeactivatePDPRequest) {
	h, r := s.byTLLI.Get(uint32(ul.TLLI))
	if r == nil || r.deactivating&nsapiBit(m.NSAPI) != 0 {
		return
	}
	pdp := s.findPDP(r, m.NSAPI)
	if pdp == nil {
		// Already deactivated: the Accept was lost and this is the
		// client's retransmission. Re-ack so its timer stops.
		s.reply(env, peer, ul.MS, ul.TLLI, DeactivatePDPAccept{NSAPI: m.NSAPI})
		return
	}

	s.nextSeq++
	seq := s.nextSeq
	s.armGTP(env, seq, gtpTxn{
		kind: txnDeactivate, nsapi: m.NSAPI,
		peer: peer, ms: ul.MS, tlli: ul.TLLI, tid: pdp.tid, mm: h,
	}, gtp.DeletePDPRequest{Seq: seq, TID: pdp.tid})
}

func (s *SGSN) finishDeactivate(env *sim.Env, t gtpTxn) {
	// A detach or HLR cancel that raced the in-flight delete has already
	// released this context (the handle went stale with it); removePDP on
	// a live record is naturally idempotent because the NSAPI entry is
	// already gone.
	if r := s.mms.Get(t.mm); r != nil {
		s.removePDP(r, t.nsapi)
	}
	s.reply(env, t.peer, t.ms, t.tlli, DeactivatePDPAccept{NSAPI: t.nsapi})
}

func (s *SGSN) handleUplinkData(env *sim.Env, ul gb.ULUnitdata, nsapi uint8, payload []byte) {
	_, r := s.byTLLI.Get(uint32(ul.TLLI))
	if r == nil {
		return
	}
	pdp := s.findPDP(r, nsapi)
	if pdp == nil {
		return
	}
	if pdp.qos.Realtime && isRTP(payload) {
		// Realtime context: reuse the context's GTP message (the GGSN
		// consumes the previous one within the Gn latency).
		if pdp.media == nil {
			pdp.media = &pdpMedia{}
		}
		pdp.media.tpdu = gtp.TPDU{TID: pdp.tid, Payload: payload}
		sim.SendReused(env, s.cfg.ID, s.cfg.GGSN, &pdp.media.tpdu)
		return
	}
	env.Send(s.cfg.ID, s.cfg.GGSN, gtp.TPDU{TID: pdp.tid, Payload: payload})
}

func (s *SGSN) handleDownlinkTPDU(env *sim.Env, m gtp.TPDU) {
	_, r := s.byTID.Get(uint64(m.TID))
	if r == nil {
		return
	}
	tlli := gsmid.LocalTLLI(r.ptmsi)
	// Downlink follows the path the context was activated over.
	peer, ms := s.peers.Val(r.peer), r.ms
	pdp := s.findPDP(r, m.TID.NSAPI())
	if pdp != nil && pdp.peer != 0 {
		peer, ms = s.peers.Val(pdp.peer), pdp.ms
	}
	// Downlink media rides whatever context owns the destination
	// address — the voice context, or the signalling context when an
	// endpoint registers its media address there — so the fast path
	// gates on the RTP port alone, not the QoS profile.
	if pdp != nil && isRTP(m.Payload) {
		// Realtime context: frame the LLC PDU into the context's reusable
		// buffer and send the reusable Gb message by pointer. The Gb peer
		// (VMSC or PCU) copies the frame at arrival, within the link
		// latency.
		if pdp.media == nil {
			pdp.media = &pdpMedia{}
		}
		med := pdp.media
		med.dlBuf = append(med.dlBuf[:0], sapiData, m.TID.NSAPI())
		med.dlBuf = append(med.dlBuf, m.Payload...)
		med.dl = gb.DLUnitdata{TLLI: tlli, MS: ms, PDU: med.dlBuf}
		sim.SendReused(env, s.cfg.ID, peer, &med.dl)
		return
	}
	pdu := make([]byte, 0, 2+len(m.Payload))
	pdu = append(pdu, sapiData, m.TID.NSAPI())
	pdu = append(pdu, m.Payload...)
	env.Send(s.cfg.ID, peer, gb.DLUnitdata{TLLI: tlli, MS: ms, PDU: pdu})
}

// handlePDUNotify relays the GGSN's network-requested activation to the MS
// (TR 23.923 MT-call path).
func (s *SGSN) handlePDUNotify(env *sim.Env, from sim.NodeID, m gtp.PDUNotifyRequest) {
	_, r := s.byIMSI.Get(m.IMSI.Pack())
	if r == nil {
		env.Send(s.cfg.ID, from, gtp.PDUNotifyResponse{Seq: m.Seq, Cause: gtp.CauseNotFound})
		return
	}
	env.Send(s.cfg.ID, from, gtp.PDUNotifyResponse{Seq: m.Seq, Cause: gtp.CauseAccepted})
	// Unsolicited requests use the subscriber's most recent attach path
	// (the only one the SGSN can assume is listening).
	s.reply(env, s.peers.Val(r.peer), r.ms, gsmid.LocalTLLI(r.ptmsi), RequestPDPActivation{Address: m.Address})
}
