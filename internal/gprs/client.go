package gprs

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"vgprs/internal/gsmid"
	"vgprs/internal/gtp"
	"vgprs/internal/ipnet"
	"vgprs/internal/sim"
	"vgprs/internal/slab"
	"vgprs/internal/txn"
)

// Typed errors surfaced (via LastError) when a GMM/SM transaction exhausts
// its retransmission budget without an answer.
var (
	ErrAttachTimeout     = errors.New("gprs: attach timed out")
	ErrActivateTimeout   = errors.New("gprs: PDP activation timed out")
	ErrDeactivateTimeout = errors.New("gprs: PDP deactivation timed out")
)

// SendFunc transmits an uplink LLC PDU for a standalone client: a
// radio-attached GPRS MS sends it over Um (the BSC's PCU relays it onto Gb).
type SendFunc func(env *sim.Env, tlli gsmid.TLLI, pdu []byte)

// Host is what a subscriber's GMM/SM state machine runs over: the uplink
// transport, the retransmission policy and the consumers of downlink events
// — everything that is the same for every subscriber of one owner. A
// standalone Client is its own host. The VMSC is the host of every row of
// its MS table and puts uplink PDUs straight onto its own Gb interface: the
// paper's point that the VMSC "activates a new PDP context just like a GPRS
// MS does" is literally this shared state machine. owner names the
// subscriber: a hosted row's slab handle, zero for a standalone client.
type Host interface {
	// Policy is the retransmission schedule for attach, activation and
	// deactivation (see Client.Timeout and Client.Retries).
	Policy() txn.Policy
	// ClientState resolves an owner to its state, or nil once the owner is
	// gone: a procedure whose row was freed can then never reach the row's
	// next occupant.
	ClientState(owner slab.Handle) *ClientState
	// SendLLC transmits an uplink LLC PDU.
	SendLLC(env *sim.Env, owner slab.Handle, tlli gsmid.TLLI, pdu []byte)
	// PacketIn delivers a downlink IP packet on an NSAPI.
	PacketIn(env *sim.Env, owner slab.Handle, nsapi uint8, pkt ipnet.Packet)
	// ActivationRequested handles a network-requested PDP activation (TR
	// 23.923 MT path); the host decides whether to activate.
	ActivationRequested(env *sim.Env, owner slab.Handle, address string)
}

// maxClientContexts is how many PDP contexts one subscriber holds at a time.
// NSAPIs allow eleven, but every client in the stack holds a signalling (or
// data) context and at most a voice context beside it, so the state keeps two
// by value and needs no allocation of its own.
const maxClientContexts = 2

// ClientState is one subscriber's GMM/SM state: flat, 72 bytes, and complete
// without anything allocated beside it, so the VMSC embeds it in its MS-table
// row. The procedures that change it are Session's.
type ClientState struct {
	// contexts[:nctx] are the active PDP contexts in activation order.
	contexts [maxClientContexts]ClientPDP
	ptmsi    gsmid.PTMSI
	nctx     uint8
	// pending counts this subscriber's procedures in its host's table.
	pending  uint8
	attached bool
	// lastErr is the proc code of the last procedure to time out.
	lastErr uint8
}

// ClientPDP is the client-side view of one PDP context.
type ClientPDP struct {
	Address netip.Addr
	QoS     gtp.QoSProfile
	NSAPI   uint8
}

// Transactions is a host's table of in-flight GMM/SM procedures (attach,
// detach, routing-area update, and per-NSAPI PDP activation and deactivation)
// for all its subscribers: one table per host, never one per subscriber.
type Transactions struct {
	*txn.Table[procKey, clientProc]
	host Host
}

// procKey names one procedure of one subscriber; a subscriber runs at most
// one attach, detach and RAU, and one activation and deactivation per NSAPI.
type procKey struct {
	owner slab.Handle
	proc  uint8
	nsapi uint8
}

const (
	procAttach uint8 = iota + 1
	procDetach
	procRAU
	procActivate
	procDeactivate
)

// clientProc is one in-flight procedure: the request PDU retained for
// retransmission on the TLLI it first went out on (none can change while a
// timed procedure is pending) and the completion its kind uses — onAttach for
// attach, onActivate for activation (both with arg; func values are
// pointer-shaped, so boxing a plain callback into arg costs nothing), done
// for the rest.
type clientProc struct {
	procKey
	tlli       gsmid.TLLI
	pdu        []byte
	onAttach   func(env *sim.Env, arg any, owner slab.Handle, ok bool)
	onActivate func(env *sim.Env, arg any, owner slab.Handle, addr netip.Addr, ok bool)
	arg        any
	done       func()
}

// NewTransactions returns the empty GMM/SM transaction table of a host.
func NewTransactions(host Host) *Transactions {
	t := &Transactions{host: host}
	t.Table = txn.New[procKey](t.resend, t.expired)
	return t
}

func (t *Transactions) resend(env *sim.Env, p *clientProc) bool {
	if t.host.ClientState(p.owner) == nil {
		return false
	}
	t.host.SendLLC(env, p.owner, p.tlli, p.pdu)
	return true
}

// expired fails a procedure whose retransmission budget ran out: the
// completion fires with failure and LastError reports the typed cause.
func (t *Transactions) expired(env *sim.Env, p *clientProc) {
	st := t.host.ClientState(p.owner)
	if st == nil {
		return
	}
	st.pending--
	st.lastErr = p.proc
	switch p.proc {
	case procAttach:
		p.onAttach(env, p.arg, p.owner, false)
	case procActivate:
		if p.onActivate != nil {
			p.onActivate(env, p.arg, p.owner, netip.Addr{}, false)
		}
	case procDeactivate:
		// Tear the context down locally anyway — the network side reclaims
		// its half via its own supervision — and still complete the
		// callback so the caller's clear-down never hangs.
		st.dropContext(p.nsapi)
		if p.done != nil {
			p.done()
		}
	}
}

// Session is the GMM/SM state machine: one subscriber's state bound to the
// table (and through it the host) its procedures run in. A host builds one on
// the stack around a row for the length of a call; a standalone Client keeps
// the one around its own state.
type Session struct {
	*ClientState
	txns  *Transactions
	owner slab.Handle
	imsi  gsmid.PackedDigits
}

// Session binds a subscriber's state to the table.
func (t *Transactions) Session(owner slab.Handle, imsi gsmid.PackedDigits, st *ClientState) Session {
	return Session{ClientState: st, txns: t, owner: owner, imsi: imsi}
}

// begin enters a procedure into the table under the given schedule and sends
// its request. It returns nil if the same procedure is already in flight.
func (s Session) begin(env *sim.Env, proc, nsapi uint8, pdu []byte, policy txn.Policy) *clientProc {
	key := procKey{owner: s.owner, proc: proc, nsapi: nsapi}
	p := s.txns.Begin(env, key, policy)
	if p == nil {
		return nil
	}
	s.pending++
	p.procKey, p.tlli, p.pdu = key, s.TLLI(), pdu
	s.txns.host.SendLLC(env, s.owner, p.tlli, pdu)
	return p
}

// take ends a procedure whose answer arrived (or that is being aborted).
func (s Session) take(proc, nsapi uint8) (clientProc, bool) {
	p, ok := s.txns.Take(procKey{owner: s.owner, proc: proc, nsapi: nsapi})
	if ok {
		s.pending--
	}
	return p, ok
}

// callActivateDone adapts a plain activation callback stored in arg.
func callActivateDone(_ *sim.Env, arg any, _ slab.Handle, addr netip.Addr, ok bool) {
	arg.(func(netip.Addr, bool))(addr, ok)
}

// callAttachDone adapts a plain attach callback stored in arg.
func callAttachDone(_ *sim.Env, arg any, _ slab.Handle, ok bool) {
	arg.(func(bool))(ok)
}

// Client is a standalone GPRS protocol client — GPRS attach, PDP context
// activation/deactivation, and IP send/receive over SNDCP for one subscriber
// — holding both halves itself: the state, and the transport and policy it
// runs over. Session's methods are the procedures.
type Client struct {
	Session
	IMSI gsmid.IMSI

	// Timeout is the per-attempt RTO for attach/activation/deactivation
	// transactions: an unanswered request is retransmitted with the RTO
	// doubled each time until Retries is exhausted, then the callback
	// fires with failure and LastError reports the typed cause. Zero
	// disables expiry entirely (useful for single-procedure tests).
	Timeout time.Duration
	// Retries is the retransmission budget per transaction. Zero means
	// the default (3); negative disables retransmission so the first
	// unanswered attempt fails at Timeout.
	Retries int

	// OnPacket delivers downlink IP packets per NSAPI.
	OnPacket func(env *sim.Env, nsapi uint8, pkt ipnet.Packet)
	// OnActivationRequest fires for a network-requested PDP activation
	// (TR 23.923 MT path); the handler decides whether to activate.
	OnActivationRequest func(env *sim.Env, address string)

	send  SendFunc
	state ClientState
}

// NewClient returns a detached standalone client with a transaction table of
// its own.
func NewClient(imsi gsmid.IMSI, send SendFunc) *Client {
	c := &Client{IMSI: imsi, send: send}
	c.Session = NewTransactions((*selfHost)(c)).Session(0, imsi.Pack(), &c.state)
	return c
}

// Attach starts GPRS attach; done fires with the outcome.
func (c *Client) Attach(env *sim.Env, done func(ok bool)) error {
	return c.AttachArg(env, c.IMSI, callAttachDone, done)
}

// selfHost is a standalone Client in its Host role.
type selfHost Client

func (c *selfHost) Policy() txn.Policy                   { return txn.Policy{RTO: c.Timeout, Retries: c.Retries} }
func (c *selfHost) ClientState(slab.Handle) *ClientState { return &c.state }
func (c *selfHost) SendLLC(env *sim.Env, _ slab.Handle, tlli gsmid.TLLI, pdu []byte) {
	c.send(env, tlli, pdu)
}

func (c *selfHost) PacketIn(env *sim.Env, _ slab.Handle, nsapi uint8, pkt ipnet.Packet) {
	if c.OnPacket != nil {
		c.OnPacket(env, nsapi, pkt)
	}
}

func (c *selfHost) ActivationRequested(env *sim.Env, _ slab.Handle, address string) {
	if c.OnActivationRequest != nil {
		c.OnActivationRequest(env, address)
	}
}

// Retransmits reports how many GMM/SM PDUs the session's transaction table
// has retransmitted — across all its host's subscribers.
func (s Session) Retransmits() uint64 { return s.txns.Retransmits() }

// LastError returns the typed error from the most recent transaction that
// exhausted its retransmission budget (nil if none has).
func (st *ClientState) LastError() error { return timeoutErrs[st.lastErr] }

var timeoutErrs = [...]error{
	procAttach: ErrAttachTimeout, procActivate: ErrActivateTimeout, procDeactivate: ErrDeactivateTimeout,
}

// Attached reports whether GPRS attach has completed.
func (st *ClientState) Attached() bool { return st.attached }

// TLLI returns the subscriber's current logical link identity. Before attach
// completes this is a "random" TLLI derived from the IMSI; afterwards the
// local TLLI derived from the assigned P-TMSI (GSM 04.64).
func (s Session) TLLI() gsmid.TLLI {
	if s.attached {
		return gsmid.LocalTLLI(s.ptmsi)
	}
	var v uint32
	for i := 0; i < s.imsi.Len(); i++ {
		v = v*31 + uint32(s.imsi.Digit(i))
	}
	return gsmid.TLLI(v &^ 0xC0000000) // clear the "local" marker bits
}

// Context returns the active PDP context on an NSAPI.
func (st *ClientState) Context(nsapi uint8) (ClientPDP, bool) {
	if i := st.findContext(nsapi); i >= 0 {
		return st.contexts[i], true
	}
	return ClientPDP{}, false
}

// findContext returns the position of the context on an NSAPI, or -1.
func (st *ClientState) findContext(nsapi uint8) int {
	for i := range st.contexts[:st.nctx] {
		if st.contexts[i].NSAPI == nsapi {
			return i
		}
	}
	return -1
}

// dropContext forgets the context on an NSAPI, if there is one.
func (st *ClientState) dropContext(nsapi uint8) {
	if i := st.findContext(nsapi); i >= 0 {
		st.nctx--
		st.contexts[i] = st.contexts[st.nctx] // at most two: order survives
		st.contexts[st.nctx] = ClientPDP{}
	}
}

// ActiveContexts returns the number of active PDP contexts.
func (st *ClientState) ActiveContexts() int { return int(st.nctx) }

// PendingTransactions counts this subscriber's GMM/SM transactions still
// awaiting an answer (attach, detach, RAU, and per-NSAPI activate/
// deactivate). A quiesced client reports zero; soak tests assert on it to
// catch leaked callbacks.
func (st *ClientState) PendingTransactions() int { return int(st.pending) }

// AttachArg starts GPRS attach with a closure-free completion: fn(env, arg,
// owner, ok) fires with the outcome. A host driving many subscribers passes
// itself as arg and finds the subscriber through owner instead of allocating
// a callback per attach. imsi is the subscriber's identity in string form for
// the request, which the session holds only packed.
func (s Session) AttachArg(env *sim.Env, imsi gsmid.IMSI,
	fn func(env *sim.Env, arg any, owner slab.Handle, ok bool), arg any) error {
	if s.attached {
		return fmt.Errorf("gprs: client %s already attached", imsi)
	}
	pdu, err := WrapSM(AttachRequest{IMSI: imsi})
	if err != nil {
		return err
	}
	p := s.begin(env, procAttach, 0, pdu, s.txns.host.Policy())
	if p == nil {
		return fmt.Errorf("gprs: client %s attach already in progress", imsi)
	}
	p.onAttach, p.arg = fn, arg
	return nil
}

// UpdateRoutingArea reports a new routing area to the SGSN (movement). The
// attach and PDP contexts survive; done fires on the accept. A second update
// supersedes one still in flight.
func (s Session) UpdateRoutingArea(env *sim.Env, rai gsmid.RAI, done func()) error {
	return s.beginUntimed(env, procRAU, RAUpdateRequest{RAI: rai}, done)
}

// Detach leaves the GPRS network.
func (s Session) Detach(env *sim.Env, done func()) error {
	return s.beginUntimed(env, procDetach, DetachRequest{}, done)
}

// beginUntimed runs a detach or RAU: in the table so it is counted and
// audited like every other procedure, but sent once and never expired.
func (s Session) beginUntimed(env *sim.Env, proc uint8, sm sim.Message, done func()) error {
	if !s.attached {
		return fmt.Errorf("gprs: client %s not attached", s.imsi)
	}
	pdu, err := WrapSM(sm)
	if err != nil {
		return err
	}
	s.take(proc, 0)
	s.begin(env, proc, 0, pdu, txn.Policy{}).done = done
	return nil
}

// ActivatePDP requests a PDP context on the NSAPI; done fires with the
// assigned address. requestedAddr requests a static address ("" = dynamic).
func (s Session) ActivatePDP(env *sim.Env, nsapi uint8, qos gtp.QoSProfile,
	requestedAddr string, done func(addr netip.Addr, ok bool)) error {
	return s.ActivatePDPArg(env, nsapi, qos, requestedAddr, callActivateDone, done)
}

// ActivatePDPArg is ActivatePDP with a closure-free completion:
// fn(env, arg, owner, addr, ok) fires with the assigned address.
func (s Session) ActivatePDPArg(env *sim.Env, nsapi uint8, qos gtp.QoSProfile, requestedAddr string,
	fn func(env *sim.Env, arg any, owner slab.Handle, addr netip.Addr, ok bool), arg any) error {
	switch {
	case !s.attached:
		return fmt.Errorf("gprs: client %s must attach before PDP activation", s.imsi)
	case s.findContext(nsapi) >= 0:
		return fmt.Errorf("gprs: client %s NSAPI %d already active", s.imsi, nsapi)
	case s.nctx == maxClientContexts:
		return fmt.Errorf("gprs: client %s already holds %d contexts", s.imsi, s.nctx)
	}
	pdu, err := WrapSM(ActivatePDPRequest{NSAPI: nsapi, QoS: qos, RequestedAddress: requestedAddr})
	if err != nil {
		return err
	}
	p := s.begin(env, procActivate, nsapi, pdu, s.txns.host.Policy())
	if p == nil {
		return fmt.Errorf("gprs: client %s NSAPI %d activation in progress", s.imsi, nsapi)
	}
	p.onActivate, p.arg = fn, arg
	return nil
}

// DeactivatePDP tears down the context on the NSAPI.
func (s Session) DeactivatePDP(env *sim.Env, nsapi uint8, done func()) error {
	if s.findContext(nsapi) < 0 {
		return fmt.Errorf("gprs: client %s NSAPI %d not active", s.imsi, nsapi)
	}
	pdu, err := WrapSM(DeactivatePDPRequest{NSAPI: nsapi})
	if err != nil {
		return err
	}
	p := s.begin(env, procDeactivate, nsapi, pdu, s.txns.host.Policy())
	if p == nil {
		return fmt.Errorf("gprs: client %s NSAPI %d deactivation in progress", s.imsi, nsapi)
	}
	p.done = done
	return nil
}

// SendIP transmits an IP packet on the context's NSAPI. The packet's source
// address is filled from the context when unset.
func (s Session) SendIP(env *sim.Env, nsapi uint8, pkt ipnet.Packet) error {
	i := s.findContext(nsapi)
	if i < 0 {
		return fmt.Errorf("gprs: client %s NSAPI %d not active", s.imsi, nsapi)
	}
	if !pkt.Src.IsValid() {
		pkt.Src = s.contexts[i].Address
	}
	s.txns.host.SendLLC(env, s.owner, s.TLLI(), WrapData(nsapi, pkt))
	return nil
}

// finishAttach fires the pending attach completion, if any.
func (s Session) finishAttach(env *sim.Env, ok bool) {
	if p, pending := s.take(procAttach, 0); pending {
		p.onAttach(env, p.arg, s.owner, ok)
	}
}

// activated completes an activation with its outcome.
func (s Session) activated(env *sim.Env, p clientProc, addr netip.Addr, ok bool) {
	if p.onActivate != nil {
		p.onActivate(env, p.arg, s.owner, addr, ok)
	}
}

// HandleDownlink processes a downlink LLC PDU addressed to this subscriber.
func (s Session) HandleDownlink(env *sim.Env, pdu []byte) error {
	parsed, err := ParsePDU(pdu)
	if err != nil {
		return err
	}
	if parsed.IsData {
		s.txns.host.PacketIn(env, s.owner, parsed.NSAPI, parsed.Packet)
		return nil
	}
	switch m := parsed.SM.(type) {
	case AttachAccept:
		s.attached, s.ptmsi = true, m.PTMSI
		s.finishAttach(env, true)
	case AttachReject:
		s.finishAttach(env, false)
	case DetachAccept:
		s.attached = false
		s.contexts, s.nctx = [maxClientContexts]ClientPDP{}, 0
		detach, detaching := s.take(procDetach, 0)
		// Detach implicitly aborts every in-flight context transaction —
		// the SGSN has dropped the subscriber record, so no accept or
		// reject will ever arrive. Fail the activations and complete the
		// deactivations (their contexts are gone either way), in NSAPI
		// order so completion order is deterministic.
		for nsapi := 0; nsapi < 256 && s.pending > 0; nsapi++ {
			if p, ok := s.take(procActivate, uint8(nsapi)); ok {
				s.activated(env, p, netip.Addr{}, false)
			}
			if p, ok := s.take(procDeactivate, uint8(nsapi)); ok && p.done != nil {
				p.done()
			}
		}
		if detaching && detach.done != nil {
			detach.done()
		}
	case ActivatePDPAccept:
		addr, parseErr := netip.ParseAddr(m.Address)
		p, _ := s.take(procActivate, m.NSAPI)
		i := s.findContext(m.NSAPI) // >= 0 for a duplicated accept
		if parseErr != nil || (i < 0 && s.nctx == maxClientContexts) {
			s.activated(env, p, netip.Addr{}, false)
			return fmt.Errorf("gprs: unusable PDP accept for NSAPI %d (address %q)", m.NSAPI, m.Address)
		}
		if i < 0 {
			i = int(s.nctx)
			s.nctx++
		}
		s.contexts[i] = ClientPDP{NSAPI: m.NSAPI, Address: addr, QoS: m.QoS}
		s.activated(env, p, addr, true)
	case ActivatePDPReject:
		if p, pending := s.take(procActivate, m.NSAPI); pending {
			s.activated(env, p, netip.Addr{}, false)
		}
	case DeactivatePDPAccept:
		s.dropContext(m.NSAPI)
		if p, pending := s.take(procDeactivate, m.NSAPI); pending && p.done != nil {
			p.done()
		}
	case RequestPDPActivation:
		s.txns.host.ActivationRequested(env, s.owner, m.Address)
	case RAUpdateAccept:
		if p, pending := s.take(procRAU, 0); pending && p.done != nil {
			p.done()
		}
	}
	return nil
}
