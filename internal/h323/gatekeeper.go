package h323

import (
	"fmt"
	"math"
	"net/netip"
	"strings"
	"time"

	"vgprs/internal/gsmid"
	"vgprs/internal/ipnet"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/slab"
	"vgprs/internal/ss7"
	"vgprs/internal/txn"
)

// GatekeeperConfig parameterises a gatekeeper node.
type GatekeeperConfig struct {
	ID sim.NodeID
	// Addr is the gatekeeper's IP address on the H.323 LAN.
	Addr netip.Addr
	// Router is the LAN router node the gatekeeper is attached to.
	Router sim.NodeID
	// Dir resolves peer addresses for tracing.
	Dir *Directory

	// HLR, when set together with RequireIMSI, makes the gatekeeper
	// behave like the (non-standard) TR 23.923 gatekeeper: it resolves
	// and memorizes the subscriber's IMSI over GSM MAP before confirming
	// each registration. A standard gatekeeper (the vGPRS configuration)
	// leaves both unset and never touches MAP — the paper's §6
	// "modifications to the existing networks" contrast.
	HLR         sim.NodeID
	RequireIMSI bool
	// MobilePrefixes limits the IMSI requirement to aliases in the PLMN's
	// number ranges; fixed-network endpoints register normally.
	MobilePrefixes []string
	// MAPTimeout bounds HLR dialogues in the TR mode. Zero means 5 s.
	MAPTimeout time.Duration

	// PSTNGateway, when valid, receives admission for called aliases that
	// are not registered endpoints but match a PSTNPrefix — the standard
	// H.323 gateway-prefix routing that lets an MS call "a traditional
	// telephone set in the PSTN, connected indirectly through the H.323
	// network" (paper §4).
	PSTNGateway netip.Addr
	// PSTNPrefixes are the number ranges routed to the gateway. Empty
	// with a valid PSTNGateway means every unregistered alias routes
	// there.
	PSTNPrefixes []string

	// RegistrationTTL, when positive, expires registrations that are not
	// refreshed (H.225 timeToLive): RCFs grant this lifetime, expired
	// rows stop resolving, and keepalive RRQs for them are answered with
	// "full registration required". Zero keeps registrations forever.
	RegistrationTTL time.Duration
}

// Registration is the public copy-out of one address-translation row
// (paper step 1.5: "the GK creates an entry for the MS in the address
// translation table, which stores the (IP address, MSISDN) pair").
type Registration struct {
	Alias      gsmid.MSISDN
	SignalAddr netip.Addr
	SignalPort uint16
	EndpointID string
	// ExpiresAt is the virtual time the registration lapses; zero means
	// it never does.
	ExpiresAt time.Duration
}

// gkReg is the resident form of a registration: pointer-free (the alias is
// BCD-packed, the endpoint ID a counter rendered only on copy-out) so a
// million rows sit in chunked slabs with nothing for the GC to trace.
type gkReg struct {
	alias      gsmid.PackedDigits
	signalAddr netip.Addr
	signalPort uint16
	epID       uint32
	expiresAt  time.Duration
}

func (r *gkReg) public() Registration {
	return Registration{
		Alias: r.alias.MSISDN(), SignalAddr: r.signalAddr, SignalPort: r.signalPort,
		EndpointID: fmt.Sprintf("ep-%d", r.epID), ExpiresAt: r.expiresAt,
	}
}

// gkCallKey identifies an open call: the call reference alone is not unique
// (references are scoped to the originating endpoint), so the caller's alias
// disambiguates.
type gkCallKey struct {
	caller gsmid.PackedDigits
	ref    uint16
}

func hashCallKey(k gkCallKey) uint64 {
	return slab.HashUint64(k.caller.Hash() ^ uint64(k.ref))
}

// gkCall is the resident (pointer-free) row of an admitted call. It lives
// from the caller's admission to the first DRQ that names the call.
type gkCall struct {
	caller     gsmid.PackedDigits
	ref        uint16
	admittedAt time.Duration
}

// gkIMSI is one memorized (alias, IMSI) pair — TR 23.923 mode only.
type gkIMSI struct {
	alias gsmid.PackedDigits
	imsi  gsmid.PackedDigits
}

// Gatekeeper is a standard H.323 gatekeeper: registration, address
// translation, call admission, location queries, and disengage accounting.
// Deliberately: it has no GSM MAP interface and never sees an IMSI — the
// architectural property the paper's §6 contrasts with TR 23.923 and that
// test C4 audits.
//
// Its two per-subscriber tables (registrations and the TR-mode IMSI cache)
// and its open calls live in value slabs reached through
// open-addressing indexes keyed by BCD-packed aliases, the same treatment
// the core's VLR/HLR/SGSN stores use: GSM-scale populations cost the GC
// nothing and iteration order is deterministic.
type Gatekeeper struct {
	cfg GatekeeperConfig
	ep  *Endpoint
	dm  *ss7.DialogueManager

	regs    *slab.Slab[gkReg]
	byAlias *slab.RowIndex[gsmid.PackedDigits, gkReg]
	calls   *slab.Slab[gkCall]
	byCall  *slab.RowIndex[gkCallKey, gkCall]
	imsiTab *slab.Slab[gkIMSI] // TR 23.923 mode only
	byIMSI  *slab.RowIndex[gsmid.PackedDigits, gkIMSI]
	nextEP  uint32
	admits  uint64
	rejects uint64
	// disengaged and held are the calls closed by a DRQ and their summed
	// time from admission to disengage.
	disengaged uint64
	held       time.Duration
}

var _ sim.Node = (*Gatekeeper)(nil)

// NewGatekeeper returns an empty gatekeeper.
func NewGatekeeper(cfg GatekeeperConfig) *Gatekeeper {
	if cfg.MAPTimeout == 0 {
		cfg.MAPTimeout = 5 * time.Second
	}
	regs := slab.NewSlab[gkReg]()
	calls := slab.NewSlab[gkCall]()
	imsiTab := slab.NewSlab[gkIMSI]()
	gk := &Gatekeeper{
		cfg:     cfg,
		dm:      ss7.NewDialogueManager(cfg.ID),
		regs:    regs,
		byAlias: slab.NewRowIndex(regs, gsmid.PackedDigits.Hash, func(k gsmid.PackedDigits, r *gkReg) bool { return r.alias == k }),
		calls:   calls,
		byCall:  slab.NewRowIndex(calls, hashCallKey, func(k gkCallKey, c *gkCall) bool { return c.caller == k.caller && c.ref == k.ref }),
		imsiTab: imsiTab,
		byIMSI:  slab.NewRowIndex(imsiTab, gsmid.PackedDigits.Hash, func(k gsmid.PackedDigits, r *gkIMSI) bool { return r.alias == k }),
	}
	gk.ep = &Endpoint{
		Node: cfg.ID,
		Addr: cfg.Addr,
		Dir:  cfg.Dir,
		Send: func(env *sim.Env, pkt ipnet.Packet) {
			env.Send(cfg.ID, cfg.Router, pkt)
		},
	}
	return gk
}

// ID implements sim.Node.
func (g *Gatekeeper) ID() sim.NodeID { return g.cfg.ID }

// reg resolves an alias to its resident row.
func (g *Gatekeeper) reg(key gsmid.PackedDigits) *gkReg {
	_, r := g.byAlias.Get(key)
	return r
}

// dropReg removes a registration row and its index entry.
func (g *Gatekeeper) dropReg(key gsmid.PackedDigits) {
	if h, _ := g.byAlias.Get(key); !h.IsZero() {
		g.byAlias.Delete(key)
		g.regs.Free(h)
	}
}

// Lookup returns the registration for an alias.
func (g *Gatekeeper) Lookup(alias gsmid.MSISDN) (Registration, bool) {
	r := g.reg(alias.Pack())
	if r == nil {
		return Registration{}, false
	}
	return r.public(), true
}

// RegHandle returns the slab handle behind an alias's registration (zero if
// none) — a test hook for generational-invalidation checks.
func (g *Gatekeeper) RegHandle(alias gsmid.MSISDN) slab.Handle {
	h, _ := g.byAlias.Get(alias.Pack())
	return h
}

// RegAlive reports whether a previously obtained handle still resolves.
func (g *Gatekeeper) RegAlive(h slab.Handle) bool {
	return g.regs.Get(h) != nil
}

// Registered returns the number of table entries.
func (g *Gatekeeper) Registered() int {
	return g.byAlias.Len()
}

// Calls returns the admitted calls no DRQ has closed yet, and how many a DRQ
// has closed with their total held time, admission to disengage (paper step
// 3.3: charging stops).
func (g *Gatekeeper) Calls() (active int, disengaged uint64, held time.Duration) {
	return g.byCall.Len(), g.disengaged, g.held
}

// Admissions returns (admitted, rejected) counts.
func (g *Gatekeeper) Admissions() (admitted, rejected uint64) {
	return g.admits, g.rejects
}

// KnownIMSIs returns how many IMSIs the gatekeeper has memorized — zero for
// a standard gatekeeper; one per subscriber in the TR 23.923 mode. This is
// the C4 experiment's headline counter.
func (g *Gatekeeper) KnownIMSIs() int {
	return g.byIMSI.Len()
}

// Audit reports the gatekeeper's calls and its store audit for netsim's leak
// gate, which reads its transaction table from TxnStats.
func (g *Gatekeeper) Audit(report func(kind string, n int)) {
	active, _, _ := g.Calls()
	report("active calls", active)
	report("slab imbalance", g.storeImbalance())
}

// TxnStats reports the MAP dialogue table's accounting.
func (g *Gatekeeper) TxnStats(report func(plane string, s txn.Stats)) { report("MAP", g.dm.Stats()) }

// Footprint is the memory the registration, open-call and IMSI tables hold, in
// bytes: slab chunks plus index tables, and the MAP dialogue table.
func (g *Gatekeeper) Footprint() int {
	return g.regs.Bytes() + g.byAlias.Bytes() + g.calls.Bytes() + g.byCall.Bytes() +
		g.imsiTab.Bytes() + g.byIMSI.Bytes() + txn.Total(g.TxnStats).Bytes
}

// SlabImbalance adds the transaction tables' record imbalance to storeImbalance.
func (g *Gatekeeper) SlabImbalance() int { return txn.Total(g.TxnStats).Imbalance + g.storeImbalance() }

// storeImbalance cross-checks each slab against the index that owns its rows
// (RowIndex.Audit): each entry must resolve to a live row carrying the same
// key, the slab's live count must match the entries resolving into it, and
// allocated capacity must be fully accounted as live or free. Zero means no
// leaked rows, no stale or misdirected entries, and no books that disagree
// — the soak gate's invariant.
func (g *Gatekeeper) storeImbalance() int {
	return g.byAlias.Audit() + g.byCall.Audit() + g.byIMSI.Audit()
}

// Receive implements sim.Node.
func (g *Gatekeeper) Receive(env *sim.Env, from sim.NodeID, iface string, msg sim.Message) {
	if ack, isMAP := msg.(sigmap.SendIMSIAck); isMAP {
		g.dm.Resolve(ack.Invoke, msg)
		return
	}
	pkt, ok := msg.(ipnet.Packet)
	if !ok {
		return
	}
	in, ok := Classify(pkt)
	if !ok || in.RAS == nil {
		return
	}
	switch m := in.RAS.(type) {
	case RRQ:
		if g.cfg.RequireIMSI && g.cfg.HLR != "" && g.isMobileAlias(m.Alias) {
			g.resolveIMSIThen(env, pkt.Src, m)
			return
		}
		g.handleRRQ(env, pkt.Src, m)
	case URQ:
		key := m.Alias.Pack()
		if reg := g.reg(key); reg != nil &&
			(!m.SignalAddr.IsValid() || reg.signalAddr == m.SignalAddr) {
			g.dropReg(key)
		}
		g.ep.SendRAS(env, pkt.Src, UCF{Seq: m.Seq})
	case ARQ:
		g.handleARQ(env, pkt.Src, m)
	case DRQ:
		// The caller disengaging names its own call; the called side, or
		// the gateway speaking for a PSTN callee, names the caller as Peer.
		for _, caller := range [2]gsmid.MSISDN{m.Alias, m.Peer} {
			key := gkCallKey{caller.Pack(), m.CallRef}
			if h, rec := g.byCall.Get(key); rec != nil {
				g.disengaged++
				g.held += env.Now() - rec.admittedAt
				g.byCall.Delete(key)
				g.calls.Free(h)
				break
			}
		}
		g.ep.SendRAS(env, pkt.Src, DCF{Seq: m.Seq})
	case LRQ:
		reg, exists := g.lookupLive(m.Alias.Pack(), env.Now())
		if !exists {
			g.ep.SendRAS(env, pkt.Src, LRJ{Seq: m.Seq, Reason: RejectCalledPartyNotRegistered})
			return
		}
		g.ep.SendRAS(env, pkt.Src, LCF{Seq: m.Seq, SignalAddr: reg.signalAddr, SignalPort: reg.signalPort})
	}
}

// isMobileAlias reports whether an alias falls in the PLMN number ranges.
// With no prefixes configured, every alias counts as mobile.
func (g *Gatekeeper) isMobileAlias(alias gsmid.MSISDN) bool {
	if len(g.cfg.MobilePrefixes) == 0 {
		return true
	}
	for _, p := range g.cfg.MobilePrefixes {
		if strings.HasPrefix(string(alias), p) {
			return true
		}
	}
	return false
}

// resolveIMSIThen is the TR 23.923 registration path: the gatekeeper
// queries the HLR over GSM MAP, memorizes the IMSI, and only then confirms.
func (g *Gatekeeper) resolveIMSIThen(env *sim.Env, src netip.Addr, m RRQ) {
	invoke := g.dm.Invoke(env, g.cfg.MAPTimeout, func(resp sim.Message, ok bool) {
		ack, isAck := resp.(sigmap.SendIMSIAck)
		if !ok || !isAck || ack.Cause != sigmap.CauseNone {
			g.ep.SendRAS(env, src, RRJ{Seq: m.Seq, Reason: RejectGenericData})
			return
		}
		key := m.Alias.Pack()
		if _, row := g.byIMSI.Get(key); row != nil {
			row.imsi = ack.IMSI.Pack()
		} else {
			h, row := g.imsiTab.Alloc()
			row.alias, row.imsi = key, ack.IMSI.Pack()
			g.byIMSI.Put(key, h)
		}
		g.handleRRQ(env, src, m)
	})
	env.Send(g.cfg.ID, g.cfg.HLR, sigmap.SendIMSI{Invoke: invoke, MSISDN: m.Alias})
}

func (g *Gatekeeper) handleRRQ(env *sim.Env, src netip.Addr, m RRQ) {
	key := m.Alias.Pack()
	existing := g.reg(key)
	if existing != nil && g.expired(existing, env.Now()) {
		g.dropReg(key)
		existing = nil
	}
	// A keepalive refresh presumes the gatekeeper still holds the row;
	// if it lapsed (or never existed), demand a full registration.
	if m.KeepAlive && (existing == nil || existing.signalAddr != m.SignalAddr) {
		g.ep.SendRAS(env, src, RRJ{Seq: m.Seq, Reason: RejectFullRegistrationRequired})
		return
	}
	// Re-registration from the same transport address refreshes the row;
	// a different address claiming a registered alias is rejected.
	if existing != nil && existing.signalAddr != m.SignalAddr {
		g.ep.SendRAS(env, src, RRJ{Seq: m.Seq, Reason: RejectDuplicateAlias})
		return
	}
	granted := g.grantTTL(m.TTLSeconds)
	var epNum uint32
	if existing != nil {
		existing.signalPort = m.SignalPort
		existing.expiresAt = expiryAt(env.Now(), granted)
		epNum = existing.epID
	} else {
		g.nextEP++
		epNum = g.nextEP
		h, row := g.regs.Alloc()
		row.alias, row.signalAddr, row.signalPort = key, m.SignalAddr, m.SignalPort
		row.epID, row.expiresAt = epNum, expiryAt(env.Now(), granted)
		g.byAlias.Put(key, h)
	}
	g.ep.SendRAS(env, src, RCF{
		Seq: m.Seq, EndpointID: fmt.Sprintf("ep-%d", epNum), TTLSeconds: granted,
	})
}

// grantTTL computes the lifetime an RCF grants, in seconds: the
// gatekeeper's configured TTL, clamped to 1 .. 65,535 s (the width of the
// RRQ/RCF timeToLive field) and shortened further if the endpoint asked for
// less. Zero means no expiry is in force.
func (g *Gatekeeper) grantTTL(requested uint16) uint16 {
	if g.cfg.RegistrationTTL <= 0 {
		return 0
	}
	granted := uint16(max(1, min(g.cfg.RegistrationTTL/time.Second, math.MaxUint16)))
	if requested > 0 && requested < granted {
		granted = requested
	}
	return granted
}

func expiryAt(now time.Duration, ttlSeconds uint16) time.Duration {
	if ttlSeconds == 0 {
		return 0
	}
	return now + time.Duration(ttlSeconds)*time.Second
}

// expired reports whether the row has lapsed at the given virtual time.
func (g *Gatekeeper) expired(r *gkReg, now time.Duration) bool {
	return r.expiresAt != 0 && now >= r.expiresAt
}

// lookupLive returns the registration for alias unless it has expired, in
// which case the row is dropped (lazy expiry — the gatekeeper never has to
// keep the event queue alive with a sweep timer).
func (g *Gatekeeper) lookupLive(key gsmid.PackedDigits, now time.Duration) (*gkReg, bool) {
	r := g.reg(key)
	if r == nil {
		return nil, false
	}
	if g.expired(r, now) {
		g.dropReg(key)
		return nil, false
	}
	return r, true
}

func (g *Gatekeeper) handleARQ(env *sim.Env, src netip.Addr, m ARQ) {
	var response sim.Message
	if m.Answer {
		// Admission for an incoming call: the callee asks permission to
		// accept; no translation needed.
		if _, ok := g.lookupLive(m.CallerAlias.Pack(), env.Now()); ok {
			g.admits++
			response = ACF{Seq: m.Seq}
		} else {
			g.rejects++
			response = ARJ{Seq: m.Seq, Reason: RejectCallerNotRegistered}
		}
	} else if dest, ok := g.lookupLive(m.CalledAlias.Pack(), env.Now()); ok {
		g.admits++
		g.openCall(m, env.Now())
		response = ACF{Seq: m.Seq, SignalAddr: dest.signalAddr, SignalPort: dest.signalPort}
	} else if g.routesToPSTN(m.CalledAlias) {
		g.admits++
		g.openCall(m, env.Now())
		response = ACF{Seq: m.Seq, SignalAddr: g.cfg.PSTNGateway, SignalPort: ipnet.PortQ931}
	} else {
		g.rejects++
		response = ARJ{Seq: m.Seq, Reason: RejectCalledPartyNotRegistered}
	}
	g.ep.SendRAS(env, src, response)
}

// openCall creates the row of an admitted call if this is the first
// admission of the (caller, reference) pair.
func (g *Gatekeeper) openCall(m ARQ, now time.Duration) {
	key := gkCallKey{m.CallerAlias.Pack(), m.CallRef}
	if h, _ := g.byCall.Get(key); !h.IsZero() {
		return
	}
	h, rec := g.calls.Alloc()
	rec.caller, rec.ref, rec.admittedAt = key.caller, m.CallRef, now
	g.byCall.Put(key, h)
}

// routesToPSTN reports whether an unregistered called alias should be
// admitted toward the configured PSTN gateway.
func (g *Gatekeeper) routesToPSTN(alias gsmid.MSISDN) bool {
	if !g.cfg.PSTNGateway.IsValid() {
		return false
	}
	if len(g.cfg.PSTNPrefixes) == 0 {
		return true
	}
	for _, p := range g.cfg.PSTNPrefixes {
		if strings.HasPrefix(string(alias), p) {
			return true
		}
	}
	return false
}
