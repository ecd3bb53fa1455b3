package h323

import (
	"fmt"
	"net/netip"
	"time"

	"vgprs/internal/codec"
	"vgprs/internal/gsmid"
	"vgprs/internal/ipnet"
	"vgprs/internal/q931"
	"vgprs/internal/rtp"
	"vgprs/internal/sim"
	"vgprs/internal/slab"
	"vgprs/internal/txn"
)

// TerminalHooks observe terminal events.
type TerminalHooks struct {
	OnRegistered     func()
	OnRegisterFailed func(reason RejectReason)
	OnIncoming       func(callRef uint16, calling gsmid.MSISDN)
	OnAlerting       func(callRef uint16)
	OnConnected      func(callRef uint16)
	OnReleased       func(callRef uint16)
	OnRejected       func(callRef uint16, reason RejectReason)
}

// TerminalConfig parameterises an H.323 terminal.
type TerminalConfig struct {
	ID sim.NodeID
	// Alias is the terminal's dialable number.
	Alias gsmid.MSISDN
	// Addr is the terminal's IP address.
	Addr netip.Addr
	// Router is the LAN router node.
	Router sim.NodeID
	// Gatekeeper is the GK's IP address.
	Gatekeeper netip.Addr
	// Dir resolves peer addresses for tracing.
	Dir *Directory
	// AutoAnswer answers incoming calls after AnswerDelay.
	AutoAnswer  bool
	AnswerDelay time.Duration
	// Talk generates RTP media while connected.
	Talk bool
	// FrameInterval is the media frame period; zero means 20 ms.
	FrameInterval time.Duration
	// Transport, when set, replaces the default router link for outgoing
	// IP packets. The TR 23.923 baseline uses it to push the terminal's
	// traffic through a GPRS PDP context instead of a LAN.
	Transport func(env *sim.Env, pkt ipnet.Packet)

	// SigRTO enables RAS and Q.931 fault tolerance: an unanswered
	// request is retransmitted with the RTO doubling each time until
	// SigRetries is exhausted, then the procedure fails cleanly (RAS
	// completions see a nil message; calls release with
	// recovery-on-timer-expiry). Zero keeps the legacy behaviour: no
	// timers, a lost answer hangs the transaction.
	SigRTO time.Duration
	// SigRetries is the per-transaction retransmission budget. Zero
	// means the default (3); negative disables retransmission so the
	// transaction fails at the first unanswered RTO.
	SigRetries int

	Hooks TerminalHooks
}

type termCall struct {
	// ref is the terminal-local call handle (unique across this
	// terminal's calls, what the public API exposes). The leg holds the
	// Q.931 reference used on the wire: references are scoped per
	// signalling connection, so two peers may legitimately use the same
	// value, and the terminal remaps collisions to a free local ref.
	ref      uint16
	leg      Leg
	remote   gsmid.MSISDN
	mediaSeq uint16
}

// Terminal is an H.323 terminal: a native VoIP endpoint on the external
// network — the far party in the paper's Figs 5-6.
type Terminal struct {
	cfg TerminalConfig
	ep  *Endpoint

	registered bool
	keepAlive  bool
	nextSeq    uint32
	nextRef    uint16
	calls      map[uint16]*termCall // live calls by local reference
	byWire     map[legKey]*termCall // live calls by peer and wire reference
	txns       *Transactions[*termHost, *termCall]

	// Media is the RTP receive-side statistics collector.
	Media *rtp.Receiver
}

var _ sim.Node = (*Terminal)(nil)

// NewTerminal returns an unregistered terminal.
func NewTerminal(cfg TerminalConfig) *Terminal {
	if cfg.FrameInterval == 0 {
		cfg.FrameInterval = codec.FrameDuration
	}
	t := &Terminal{
		cfg:    cfg,
		calls:  make(map[uint16]*termCall),
		byWire: make(map[legKey]*termCall),
		Media:  rtp.NewReceiver(),
	}
	t.txns = NewTransactions[*termHost, *termCall]((*termHost)(t), cfg.Gatekeeper,
		txn.Policy{RTO: cfg.SigRTO, Retries: cfg.SigRetries})
	send := cfg.Transport
	if send == nil {
		send = func(env *sim.Env, pkt ipnet.Packet) {
			env.Send(cfg.ID, cfg.Router, pkt)
		}
	}
	t.ep = &Endpoint{Node: cfg.ID, Addr: cfg.Addr, Dir: cfg.Dir, Send: send}
	return t
}

// HandlePacket feeds an IP packet to the terminal outside the normal node
// delivery path — for hosts (the TR 23.923 MS) that receive the terminal's
// traffic through a tunnel.
func (t *Terminal) HandlePacket(env *sim.Env, pkt ipnet.Packet) {
	t.Receive(env, t.cfg.ID, "tunnel", pkt)
}

// ID implements sim.Node.
func (t *Terminal) ID() sim.NodeID { return t.cfg.ID }

// Registered reports gatekeeper registration state.
func (t *Terminal) Registered() bool { return t.registered }

// CallState returns the state of a call's leg by reference: LegIdle while
// an outgoing call waits for admission, LegAlerting while either party
// rings. A call the terminal does not hold — cleared, or never placed —
// reads LegReleasing, false.
func (t *Terminal) CallState(ref uint16) (LegState, bool) {
	c, ok := t.calls[ref]
	if !ok {
		return LegReleasing, false
	}
	return c.leg.State, true
}

// CallRefs returns the references of all live calls.
func (t *Terminal) CallRefs() []uint16 {
	out := make([]uint16, 0, len(t.calls))
	for ref := range t.calls {
		out = append(out, ref)
	}
	return out
}

// ActiveCalls returns the number of live calls.
func (t *Terminal) ActiveCalls() int { return len(t.calls) }

// termHost is the terminal as the host of its own transactions: every
// request leaves from its one endpoint.
type termHost Terminal

// termRAS is one of the terminal's RAS requests in flight.
type termRAS = RAS[*termHost, *termCall]

func (h *termHost) Endpoint(slab.Handle) (Endpoint, bool) { return *h.ep, true }

func (h *termHost) CallLeg(call *termCall) (Endpoint, *Leg, bool) { return *h.ep, &call.leg, true }

func (h *termHost) Released(env *sim.Env, call *termCall) { (*Terminal)(h).finishCall(env, call) }

// TxnStats reports the RAS and Q.931 tables' accounting.
func (t *Terminal) TxnStats(report func(plane string, s txn.Stats)) { t.txns.TxnStats(report) }

// Audit reports the terminal's calls for netsim's leak gate, which reads its
// transaction tables from TxnStats.
func (t *Terminal) Audit(report func(kind string, n int)) {
	report("active calls", t.ActiveCalls())
}

// Register performs endpoint registration with the gatekeeper.
func (t *Terminal) Register(env *sim.Env) {
	t.nextSeq++
	t.txns.SendRAS(env, 0, nil, RRQ{
		Seq: t.nextSeq, Alias: t.cfg.Alias,
		SignalAddr: t.cfg.Addr, SignalPort: ipnet.PortQ931,
	}, termRegisterDone)
}

func termRegisterDone(env *sim.Env, r termRAS, msg sim.Message) {
	t := (*Terminal)(r.Host)
	switch m := msg.(type) {
	case RCF:
		t.registered = true
		if t.cfg.Hooks.OnRegistered != nil {
			t.cfg.Hooks.OnRegistered()
		}
	case RRJ:
		if t.cfg.Hooks.OnRegisterFailed != nil {
			t.cfg.Hooks.OnRegisterFailed(m.Reason)
		}
	case nil:
		// Retransmission budget exhausted without any answer.
		if t.cfg.Hooks.OnRegisterFailed != nil {
			t.cfg.Hooks.OnRegisterFailed(RejectTimeout)
		}
	}
}

// StartKeepAlive begins periodic lightweight registration refreshes (H.225
// keepAlive RRQs) at the given interval — required to stay registered at a
// gatekeeper that enforces a registration TTL. If the gatekeeper answers
// "full registration required" (it lost or expired the row), the terminal
// re-registers fully. Keepalives keep the event queue non-empty, so drive
// the simulation with RunUntil once started.
func (t *Terminal) StartKeepAlive(env *sim.Env, interval time.Duration) {
	if interval <= 0 || t.keepAlive {
		return
	}
	t.keepAlive = true
	var tick func()
	tick = func() {
		if t.registered {
			t.nextSeq++
			t.txns.SendRAS(env, 0, nil, RRQ{
				Seq: t.nextSeq, Alias: t.cfg.Alias,
				SignalAddr: t.cfg.Addr, SignalPort: ipnet.PortQ931,
				KeepAlive: true,
			}, termKeepAliveDone)
		}
		env.After(interval, tick)
	}
	tick()
}

func termKeepAliveDone(env *sim.Env, r termRAS, msg sim.Message) {
	if rrj, isRRJ := msg.(RRJ); isRRJ &&
		rrj.Reason == RejectFullRegistrationRequired {
		(*Terminal)(r.Host).Register(env)
	}
}

// Call originates a call to the given alias (the calling-party role of
// paper Fig 6 step 4.1). It returns the local call reference.
func (t *Terminal) Call(env *sim.Env, called gsmid.MSISDN) (uint16, error) {
	if !t.registered {
		return 0, fmt.Errorf("h323: terminal %s not registered", t.cfg.ID)
	}
	t.nextRef++
	ref := t.nextRef
	call := &termCall{ref: ref, leg: Leg{Ref: ref}, remote: called}
	t.calls[ref] = call

	t.nextSeq++
	t.txns.SendRAS(env, 0, call, ARQ{
		Seq: t.nextSeq, CallerAlias: t.cfg.Alias, CalledAlias: called, CallRef: ref,
	}, termCallAdmitDone)
	return ref, nil
}

// termCallAdmitDone continues an outgoing call once the gatekeeper admits
// it (or rejects/times out). A call hung up meanwhile goes no further, but
// disengages if admitted: the gatekeeper has just opened it.
func termCallAdmitDone(env *sim.Env, r termRAS, msg sim.Message) {
	t, call := (*Terminal)(r.Host), r.Call
	if call.leg.State == LegReleasing {
		if _, admitted := msg.(ACF); admitted {
			t.disengage(env, call)
		}
		return
	}
	switch m := msg.(type) {
	case ACF:
		call.leg.Peer = m.SignalAddr
		t.byWire[call.leg.key()] = call
		t.txns.Setup(env, call, q931.Setup{
			CallRef: call.leg.Ref, Called: call.remote, Calling: t.cfg.Alias,
			Media: q931.MediaAddr{Addr: t.cfg.Addr, Port: ipnet.PortRTP},
		})
	case ARJ:
		t.forget(call)
		if t.cfg.Hooks.OnRejected != nil {
			t.cfg.Hooks.OnRejected(call.ref, m.Reason)
		}
	case nil:
		// Admission never answered: fail the call attempt cleanly.
		t.forget(call)
		if t.cfg.Hooks.OnRejected != nil {
			t.cfg.Hooks.OnRejected(call.ref, RejectTimeout)
		}
	}
}

// answer accepts a ringing incoming call.
func (t *Terminal) answer(env *sim.Env, call *termCall) {
	if !t.txns.Connect(env, call, q931.MediaAddr{Addr: t.cfg.Addr, Port: ipnet.PortRTP}) {
		return // cleared while it rang
	}
	t.startMedia(env, call)
	if t.cfg.Hooks.OnConnected != nil {
		t.cfg.Hooks.OnConnected(call.ref)
	}
}

// Hangup clears a call from this side. A call still waiting for admission
// has no far end yet, so only the gatekeeper hears of it.
func (t *Terminal) Hangup(env *sim.Env, ref uint16) error {
	call, ok := t.calls[ref]
	if !ok {
		return fmt.Errorf("h323: terminal %s has no active call %d", t.cfg.ID, ref)
	}
	if call.leg.State != LegIdle {
		t.txns.Release(env, call, q931.CauseNormal)
	}
	t.finishCall(env, call)
	return nil
}

// finishCall clears a live call. The DRQ of a call still waiting for
// admission is left to termCallAdmitDone: an ACF may yet open the call.
func (t *Terminal) finishCall(env *sim.Env, call *termCall) {
	if call.leg.State != LegIdle {
		t.disengage(env, call)
	}
	t.forget(call)
	if t.cfg.Hooks.OnReleased != nil {
		t.cfg.Hooks.OnReleased(call.ref)
	}
}

// forget drops a call from the live set and resets its leg. A continuation
// still holding it sees the leg releasing, and its media ticks stop.
func (t *Terminal) forget(call *termCall) {
	t.txns.Reset(call)
	delete(t.calls, call.ref)
	if t.byWire[call.leg.key()] == call {
		delete(t.byWire, call.leg.key())
	}
}

// disengage tells the gatekeeper the call is over (paper step 3.3).
func (t *Terminal) disengage(env *sim.Env, call *termCall) {
	t.nextSeq++
	t.ep.SendRAS(env, t.cfg.Gatekeeper, DRQ{Seq: t.nextSeq, Alias: t.cfg.Alias, CallRef: call.leg.Ref, Peer: call.remote})
}

// Receive implements sim.Node.
func (t *Terminal) Receive(env *sim.Env, from sim.NodeID, iface string, msg sim.Message) {
	pkt, ok := msg.(ipnet.Packet)
	if !ok {
		return
	}
	in, ok := Classify(pkt)
	if !ok {
		return
	}
	switch {
	case in.RAS != nil:
		t.txns.AnswerRAS(env, in.RAS)
	case in.Q931 != nil:
		t.handleQ931(env, pkt, in.Q931)
	case in.RTPPayload != nil:
		t.handleRTP(env, in.RTPPayload)
	}
}

// handleQ931 runs a call's leg on an arriving message. The reference is
// scoped to the peer that sent it, so the call is keyed by both; a Setup
// for no call opens one.
func (t *Terminal) handleQ931(env *sim.Env, pkt ipnet.Packet, msg sim.Message) {
	ref, _ := q931.CallRefOf(msg)
	call := t.byWire[legKey{pkt.Src, ref}]
	if call == nil {
		if m, isSetup := msg.(q931.Setup); isSetup {
			t.handleIncomingSetup(env, pkt, m)
		}
		return
	}
	switch t.txns.Receive(env, call, msg) {
	case LegAlerted:
		if t.cfg.Hooks.OnAlerting != nil {
			t.cfg.Hooks.OnAlerting(call.ref)
		}
	case LegAnswered:
		t.startMedia(env, call)
		if t.cfg.Hooks.OnConnected != nil {
			t.cfg.Hooks.OnConnected(call.ref)
		}
	}
}

// handleIncomingSetup runs paper steps 2.4-2.6 on the called terminal:
// Call Proceeding back, ARQ/ACF with the gatekeeper, then Alerting.
func (t *Terminal) handleIncomingSetup(env *sim.Env, pkt ipnet.Packet, m q931.Setup) {
	// The peer's reference may collide with a call from another peer (or
	// one of our own outgoing references); pick a free local handle.
	ref := m.CallRef
	for _, taken := t.calls[ref]; taken; _, taken = t.calls[ref] {
		t.nextRef++
		ref = t.nextRef
	}
	call := &termCall{
		ref: ref, remote: m.Calling,
		leg: Leg{Ref: m.CallRef, Peer: pkt.Src, Media: m.Media, Incoming: true},
	}
	t.calls[ref] = call
	t.byWire[call.leg.key()] = call
	t.txns.Proceed(env, call)

	// Step 2.5: admission for the incoming call.
	t.nextSeq++
	t.txns.SendRAS(env, 0, call, ARQ{
		Seq: t.nextSeq, CallerAlias: t.cfg.Alias, CalledAlias: m.Calling,
		CallRef: m.CallRef, Answer: true,
	}, termIncomingAdmitDone)
}

// termIncomingAdmitDone alerts the local user once the gatekeeper admits an
// incoming call; rejection or timeout releases the caller. A call cleared
// meanwhile goes no further.
func termIncomingAdmitDone(env *sim.Env, r termRAS, msg sim.Message) {
	t, call := (*Terminal)(r.Host), r.Call
	if call.leg.State == LegReleasing {
		return
	}
	switch msg.(type) {
	case ACF:
		t.txns.Alert(env, call)
		if t.cfg.Hooks.OnIncoming != nil {
			t.cfg.Hooks.OnIncoming(call.ref, call.remote)
		}
		if t.cfg.AutoAnswer {
			env.After(t.cfg.AnswerDelay, func() { t.answer(env, call) })
		}
	case ARJ, nil:
		// Step 2.5's failure arm, or admission never answered: release
		// toward the caller.
		cause := q931.CauseRecoveryOnTimerExpiry
		if _, rejected := msg.(ARJ); rejected {
			cause = q931.CauseResourcesUnavail
		}
		t.txns.Release(env, call, cause)
		t.forget(call)
	}
}

func (t *Terminal) startMedia(env *sim.Env, call *termCall) {
	if !t.cfg.Talk {
		return
	}
	var tick func()
	tick = func() {
		if call.leg.State != LegConnected {
			return
		}
		if call.leg.Media.Valid() {
			call.mediaSeq++
			p := rtp.Packet{
				PayloadType: rtp.PayloadTypeGSM,
				Seq:         call.mediaSeq,
				Timestamp:   rtp.TimestampAt(env.Now()),
				SSRC:        uint32(call.leg.Ref),
				Payload:     codec.NewFrame(env.Now(), uint32(call.mediaSeq)),
			}
			t.ep.SendRTP(env, call.leg.Media, p.Marshal())
		}
		env.After(t.cfg.FrameInterval, tick)
	}
	env.After(t.cfg.FrameInterval, tick)
}

func (t *Terminal) handleRTP(env *sim.Env, payload []byte) {
	p, err := rtp.Unmarshal(payload)
	if err != nil {
		return
	}
	gen, haveGen := codec.FrameTimestamp(p.Payload)
	t.Media.Receive(p, env.Now(), gen, haveGen)
}
