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
	"vgprs/internal/txn"
)

// CallState is a terminal-side call state.
type CallState uint8

// Call states.
const (
	CallAdmitting CallState = iota + 1
	CallSetupSent
	CallProceeding
	CallAlerting
	CallRinging // incoming, local user being alerted
	CallConnected
	CallCleared
)

// String names the state.
func (s CallState) String() string {
	switch s {
	case CallAdmitting:
		return "admitting"
	case CallSetupSent:
		return "setup-sent"
	case CallProceeding:
		return "proceeding"
	case CallAlerting:
		return "alerting"
	case CallRinging:
		return "ringing"
	case CallConnected:
		return "connected"
	case CallCleared:
		return "cleared"
	default:
		return fmt.Sprintf("CallState(%d)", uint8(s))
	}
}

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
	// terminal's calls, what the public API exposes).
	ref   uint16
	state CallState
	// wireRef is the Q.931 call reference used on the wire toward
	// remoteSig. Q.931 references are scoped per signalling connection,
	// so two peers may legitimately use the same value; the terminal
	// remaps collisions to a free local ref and keeps the wire value
	// here.
	wireRef   uint16
	remote    gsmid.MSISDN
	remoteSig netip.Addr
	remoteMed q931.MediaAddr
	outgoing  bool
	mediaSeq  uint16
	sending   bool
}

// Terminal is an H.323 terminal: a native VoIP endpoint on the external
// network — the far party in the paper's Figs 5-6.
type Terminal struct {
	cfg TerminalConfig
	ep  *Endpoint

	registered bool
	keepAlive  bool
	endpointID string
	nextSeq    uint32
	nextRef    uint16
	calls      map[uint16]*termCall
	// rasTxns holds outstanding RAS transactions by sequence number; q931 the
	// running T303/T313 cycle of each call.
	rasTxns *txn.Table[uint32, termRASTxn]
	q931    *txn.Table[*termCall, termQ931Txn]

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
		cfg:   cfg,
		calls: make(map[uint16]*termCall),
		Media: rtp.NewReceiver(),
	}
	t.rasTxns = txn.New[uint32](
		func(env *sim.Env, p *termRASTxn) bool { t.ep.SendRAS(env, t.cfg.Gatekeeper, p.msg); return true },
		func(env *sim.Env, p *termRASTxn) { p.fn(env, *p, nil) },
	)
	t.q931 = txn.New[*termCall](t.q931Resend, t.q931Expired)
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

// SetAddr updates the terminal's transport address (the TR 23.923 MS learns
// its PDP address at activation time). Must be called before Register.
func (t *Terminal) SetAddr(addr netip.Addr) {
	t.cfg.Addr = addr
	t.ep.Addr = addr
}

// ID implements sim.Node.
func (t *Terminal) ID() sim.NodeID { return t.cfg.ID }

// Registered reports gatekeeper registration state.
func (t *Terminal) Registered() bool { return t.registered }

// CallState returns the state of a call by reference.
func (t *Terminal) CallState(ref uint16) (CallState, bool) {
	c, ok := t.calls[ref]
	if !ok {
		return 0, false
	}
	return c.state, true
}

// CallRefs returns the references of all non-cleared calls.
func (t *Terminal) CallRefs() []uint16 {
	var out []uint16
	for ref, c := range t.calls {
		if c.state != CallCleared {
			out = append(out, ref)
		}
	}
	return out
}

// ActiveCalls returns the number of non-cleared calls.
func (t *Terminal) ActiveCalls() int {
	n := 0
	for _, c := range t.calls {
		if c.state != CallCleared {
			n++
		}
	}
	return n
}

// termRASTxn is one outstanding RAS transaction: a package-level completion
// function plus the transaction's subject (the call, if any). With SigRTO
// enabled, msg is retained for retransmission; on budget exhaustion the
// completion fires with a nil message.
type termRASTxn struct {
	t       *Terminal
	fn      func(env *sim.Env, p termRASTxn, msg sim.Message)
	call    *termCall
	calling gsmid.MSISDN // incoming-admission's caller, for the hooks
	msg     sim.Message
}

// sigPolicy is the RAS and Q.931 retransmission schedule; with SigRTO zero
// transactions never expire.
func (t *Terminal) sigPolicy() txn.Policy {
	return txn.Policy{RTO: t.cfg.SigRTO, Retries: t.cfg.SigRetries}
}

// Retransmits reports how many RAS and Q.931 requests this terminal has
// re-sent.
func (t *Terminal) Retransmits() uint64 { return t.rasTxns.Retransmits() + t.q931.Retransmits() }

// TxnStats reports the RAS and Q.931 tables' lifetime counters.
func (t *Terminal) TxnStats(report func(plane string, s txn.Stats)) {
	report("RAS", t.rasTxns.Stats())
	report("Q.931", t.q931.Stats())
}

// PendingRAS returns RAS transactions still awaiting a gatekeeper answer.
func (t *Terminal) PendingRAS() int { return t.rasTxns.InFlight() }

// Audit reports the terminal's transient state for netsim's leak gate.
func (t *Terminal) Audit(report func(kind string, n int)) {
	report("pending RAS", t.PendingRAS())
	report("active calls", t.ActiveCalls())
	report("transaction record imbalance",
		t.rasTxns.Occupancy().Imbalance()+t.q931.Occupancy().Imbalance())
}

// ras sends a RAS request; with a completion it registers a pending
// transaction for the answer, bound to call if the transaction concerns
// one. The record is returned so callers can attach extra subject fields.
func (t *Terminal) ras(env *sim.Env, msg sim.Message,
	fn func(*sim.Env, termRASTxn, sim.Message), call *termCall) *termRASTxn {
	var p *termRASTxn
	if fn != nil {
		p = t.rasTxns.Begin(env, rasSeq(msg), t.sigPolicy())
		*p = termRASTxn{t: t, fn: fn, call: call, msg: msg}
	}
	t.ep.SendRAS(env, t.cfg.Gatekeeper, msg)
	return p
}

func rasSeq(msg sim.Message) uint32 {
	switch m := msg.(type) {
	case RRQ:
		return m.Seq
	case URQ:
		return m.Seq
	case ARQ:
		return m.Seq
	case DRQ:
		return m.Seq
	case LRQ:
		return m.Seq
	default:
		return 0
	}
}

// Register performs endpoint registration with the gatekeeper.
func (t *Terminal) Register(env *sim.Env) {
	t.nextSeq++
	t.ras(env, RRQ{
		Seq: t.nextSeq, Alias: t.cfg.Alias,
		SignalAddr: t.cfg.Addr, SignalPort: ipnet.PortQ931,
	}, termRegisterDone, nil)
}

func termRegisterDone(env *sim.Env, p termRASTxn, msg sim.Message) {
	t := p.t
	switch m := msg.(type) {
	case RCF:
		t.registered = true
		t.endpointID = m.EndpointID
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
			t.ras(env, RRQ{
				Seq: t.nextSeq, Alias: t.cfg.Alias,
				SignalAddr: t.cfg.Addr, SignalPort: ipnet.PortQ931,
				KeepAlive: true,
			}, termKeepAliveDone, nil)
		}
		env.After(interval, tick)
	}
	tick()
}

func termKeepAliveDone(env *sim.Env, p termRASTxn, msg sim.Message) {
	if rrj, isRRJ := msg.(RRJ); isRRJ &&
		rrj.Reason == RejectFullRegistrationRequired {
		p.t.Register(env)
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
	call := &termCall{ref: ref, wireRef: ref, state: CallAdmitting, remote: called, outgoing: true}
	t.calls[ref] = call

	t.nextSeq++
	t.ras(env, ARQ{
		Seq: t.nextSeq, CallerAlias: t.cfg.Alias, CalledAlias: called, CallRef: ref,
	}, termCallAdmitDone, call)
	return ref, nil
}

// termCallAdmitDone continues an outgoing call once the gatekeeper admits
// it (or rejects/times out).
func termCallAdmitDone(env *sim.Env, p termRASTxn, msg sim.Message) {
	t, call := p.t, p.call
	switch m := msg.(type) {
	case ACF:
		call.remoteSig = m.SignalAddr
		call.state = CallSetupSent
		t.armQ931(env, call, q931.Setup{
			CallRef: call.wireRef, Called: call.remote, Calling: t.cfg.Alias,
			Media: q931.MediaAddr{Addr: t.cfg.Addr, Port: ipnet.PortRTP},
		})
	case ARJ:
		call.state = CallCleared
		if t.cfg.Hooks.OnRejected != nil {
			t.cfg.Hooks.OnRejected(call.ref, m.Reason)
		}
	case nil:
		// Admission never answered: fail the call attempt cleanly.
		call.state = CallCleared
		if t.cfg.Hooks.OnRejected != nil {
			t.cfg.Hooks.OnRejected(call.ref, RejectTimeout)
		}
	}
}

// Answer accepts a ringing incoming call.
func (t *Terminal) Answer(env *sim.Env, ref uint16) {
	call, ok := t.calls[ref]
	if !ok || call.state != CallRinging {
		return
	}
	call.state = CallConnected
	t.armQ931(env, call, q931.Connect{
		CallRef: call.wireRef,
		Media:   q931.MediaAddr{Addr: t.cfg.Addr, Port: ipnet.PortRTP},
	})
	t.startMedia(env, call)
	if t.cfg.Hooks.OnConnected != nil {
		t.cfg.Hooks.OnConnected(ref)
	}
}

// Hangup clears a call from this side.
func (t *Terminal) Hangup(env *sim.Env, ref uint16) error {
	call, ok := t.calls[ref]
	if !ok || call.state == CallCleared {
		return fmt.Errorf("h323: terminal %s has no active call %d", t.cfg.ID, ref)
	}
	t.ep.SendQ931(env, call.remoteSig, q931.ReleaseComplete{CallRef: call.wireRef, Cause: q931.CauseNormal})
	t.finishCall(env, call)
	return nil
}

func (t *Terminal) finishCall(env *sim.Env, call *termCall) {
	call.state = CallCleared
	call.sending = false
	t.q931.Take(call) // stop any retransmission cycle
	t.nextSeq++
	t.ras(env, DRQ{Seq: t.nextSeq, Alias: t.cfg.Alias, CallRef: call.wireRef, Peer: call.remote}, nil, nil)
	if t.cfg.Hooks.OnReleased != nil {
		t.cfg.Hooks.OnReleased(call.ref)
	}
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
		t.handleRAS(env, in.RAS)
	case in.Q931 != nil:
		t.handleQ931(env, pkt, in.Q931)
	case in.RTPPayload != nil:
		t.handleRTP(env, in.RTPPayload)
	}
}

func (t *Terminal) handleRAS(env *sim.Env, msg sim.Message) {
	var seq uint32
	switch m := msg.(type) {
	case RCF:
		seq = m.Seq
	case RRJ:
		seq = m.Seq
	case ACF:
		seq = m.Seq
	case ARJ:
		seq = m.Seq
	case DCF:
		seq = m.Seq
	case UCF:
		seq = m.Seq
	default:
		return
	}
	if p, ok := t.rasTxns.Take(seq); ok {
		p.fn(env, p, msg)
	}
}

// --- Q.931 retransmission (T303 for Setup, T313 for Connect) ---

// termQ931Txn is a call's running Q.931 retransmission cycle.
type termQ931Txn struct {
	call *termCall
	msg  sim.Message
}

// armQ931 sends a Q.931 message that expects an answer and, with SigRTO
// enabled, starts its retransmission cycle.
func (t *Terminal) armQ931(env *sim.Env, call *termCall, msg sim.Message) {
	t.ep.SendQ931(env, call.remoteSig, msg)
	if t.cfg.SigRTO <= 0 {
		return
	}
	t.q931.Take(call) // a new cycle supersedes one still running
	*t.q931.Begin(env, call, t.sigPolicy()) = termQ931Txn{call: call, msg: msg}
}

func (t *Terminal) q931Resend(env *sim.Env, r *termQ931Txn) bool {
	t.ep.SendQ931(env, r.call.remoteSig, r.msg)
	return true
}

// q931Expired releases the call cleanly on both sides once the budget is
// exhausted, rather than hang in a signalling state forever.
func (t *Terminal) q931Expired(env *sim.Env, r *termQ931Txn) {
	t.ep.SendQ931(env, r.call.remoteSig, q931.ReleaseComplete{
		CallRef: r.call.wireRef, Cause: q931.CauseRecoveryOnTimerExpiry,
	})
	t.finishCall(env, r.call)
}

func (t *Terminal) handleQ931(env *sim.Env, pkt ipnet.Packet, msg sim.Message) {
	switch m := msg.(type) {
	case q931.Setup:
		t.handleIncomingSetup(env, pkt, m)
	case q931.CallProceeding:
		if call := t.findCall(pkt.Src, m.CallRef); call != nil && call.state == CallSetupSent {
			call.state = CallProceeding
			t.q931.Take(call) // far end holds our Setup; stop T303
		}
	case q931.Alerting:
		// Guard against a late duplicate regressing an answered call.
		if call := t.findCall(pkt.Src, m.CallRef); call != nil &&
			(call.state == CallSetupSent || call.state == CallProceeding) {
			call.state = CallAlerting
			t.q931.Take(call) // stop T303
			if t.cfg.Hooks.OnAlerting != nil {
				t.cfg.Hooks.OnAlerting(call.ref)
			}
		}
	case q931.Connect:
		if call := t.findCall(pkt.Src, m.CallRef); call != nil {
			// Acknowledge every copy so the answerer's T313 stops;
			// process only the first.
			t.ep.SendQ931(env, call.remoteSig, q931.ConnectAck{CallRef: call.wireRef})
			if call.state == CallConnected {
				return
			}
			call.state = CallConnected
			t.q931.Take(call) // stop T303
			call.remoteMed = m.Media
			t.startMedia(env, call)
			if t.cfg.Hooks.OnConnected != nil {
				t.cfg.Hooks.OnConnected(call.ref)
			}
		}
	case q931.ConnectAck:
		// The caller saw our Connect: stop T313.
		if call := t.findCall(pkt.Src, m.CallRef); call != nil {
			t.q931.Take(call)
		}
	case q931.ReleaseComplete:
		if call := t.findCall(pkt.Src, m.CallRef); call != nil && call.state != CallCleared {
			t.finishCall(env, call)
		}
	}
}

// findCall resolves an incoming Q.931 message to a call: the reference is
// scoped to the peer that sent it, so both the source address and the wire
// reference must match.
func (t *Terminal) findCall(src netip.Addr, wireRef uint16) *termCall {
	for _, call := range t.calls {
		if call.wireRef == wireRef && call.remoteSig == src && call.state != CallCleared {
			return call
		}
	}
	return nil
}

// handleIncomingSetup runs paper steps 2.4-2.6 on the called terminal:
// Call Proceeding back, ARQ/ACF with the gatekeeper, then Alerting.
func (t *Terminal) handleIncomingSetup(env *sim.Env, pkt ipnet.Packet, m q931.Setup) {
	if t.findCall(pkt.Src, m.CallRef) != nil {
		return // retransmission of a Setup we already hold
	}
	// The peer's reference may collide with a call from another peer (or
	// one of our own outgoing references); pick a free local handle.
	ref := m.CallRef
	for _, taken := t.calls[ref]; taken; _, taken = t.calls[ref] {
		t.nextRef++
		ref = t.nextRef
	}
	call := &termCall{
		ref: ref, wireRef: m.CallRef, state: CallProceeding,
		remote: m.Calling, remoteSig: pkt.Src, remoteMed: m.Media,
	}
	t.calls[ref] = call
	t.ep.SendQ931(env, pkt.Src, q931.CallProceeding{CallRef: m.CallRef})

	// Step 2.5: admission for the incoming call.
	t.nextSeq++
	if p := t.ras(env, ARQ{
		Seq: t.nextSeq, CallerAlias: t.cfg.Alias, CalledAlias: m.Calling,
		CallRef: m.CallRef, Answer: true,
	}, termIncomingAdmitDone, call); p != nil {
		p.calling = m.Calling
	}
}

// termIncomingAdmitDone alerts the local user once the gatekeeper admits an
// incoming call; rejection or timeout releases the caller.
func termIncomingAdmitDone(env *sim.Env, p termRASTxn, msg sim.Message) {
	t, call := p.t, p.call
	switch msg.(type) {
	case ACF:
		call.state = CallRinging
		t.ep.SendQ931(env, call.remoteSig, q931.Alerting{CallRef: call.wireRef})
		if t.cfg.Hooks.OnIncoming != nil {
			t.cfg.Hooks.OnIncoming(call.ref, p.calling)
		}
		if t.cfg.AutoAnswer {
			ref := call.ref
			env.After(t.cfg.AnswerDelay, func() { t.Answer(env, ref) })
		}
	case ARJ:
		// Step 2.5's failure arm: release the call.
		t.ep.SendQ931(env, call.remoteSig, q931.ReleaseComplete{
			CallRef: call.wireRef, Cause: q931.CauseResourcesUnavail,
		})
		call.state = CallCleared
	case nil:
		// Admission never answered: release toward the caller.
		t.ep.SendQ931(env, call.remoteSig, q931.ReleaseComplete{
			CallRef: call.wireRef, Cause: q931.CauseRecoveryOnTimerExpiry,
		})
		call.state = CallCleared
	}
}

func (t *Terminal) startMedia(env *sim.Env, call *termCall) {
	if !t.cfg.Talk || call.sending {
		return
	}
	call.sending = true
	var tick func()
	tick = func() {
		if !call.sending || call.state != CallConnected {
			return
		}
		if call.remoteMed.Valid() {
			call.mediaSeq++
			p := rtp.Packet{
				PayloadType: rtp.PayloadTypeGSM,
				Seq:         call.mediaSeq,
				Timestamp:   rtp.TimestampAt(env.Now()),
				SSRC:        uint32(call.wireRef),
				Payload:     codec.NewFrame(env.Now(), uint32(call.mediaSeq)),
			}
			t.ep.SendRTP(env, call.remoteMed, p.Marshal())
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
