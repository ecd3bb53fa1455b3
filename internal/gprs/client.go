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
	"vgprs/internal/txn"
)

// Typed errors surfaced (via Client.LastError) when a GMM/SM transaction
// exhausts its retransmission budget without an answer.
var (
	ErrAttachTimeout     = errors.New("gprs: attach timed out")
	ErrActivateTimeout   = errors.New("gprs: PDP activation timed out")
	ErrDeactivateTimeout = errors.New("gprs: PDP deactivation timed out")
)

// SendFunc transmits an uplink LLC PDU for the client. A radio-attached
// GPRS MS sends it over Um (the BSC's PCU relays it onto Gb); the VMSC sends
// it straight onto its own Gb interface — the paper's point that the VMSC
// "activates a new PDP context just like a GPRS MS does" is literally this
// shared state machine.
type SendFunc func(env *sim.Env, tlli gsmid.TLLI, pdu []byte)

// Host is the closure-free alternative to SendFunc/OnPacket/
// OnActivationRequest: an owner that embeds or references its clients can
// implement Host once instead of allocating three callbacks per client. The
// VMSC hosts one client per registered subscriber, so this matters on its
// registration path.
type Host interface {
	// Transactions returns the table every client of this host runs its
	// GMM/SM procedures in: one table per host, never one per subscriber.
	Transactions() *Transactions
	// SendLLC transmits an uplink LLC PDU (the SendFunc role).
	SendLLC(env *sim.Env, tlli gsmid.TLLI, pdu []byte)
	// PacketIn delivers a downlink IP packet on an NSAPI (the OnPacket role).
	PacketIn(env *sim.Env, nsapi uint8, pkt ipnet.Packet)
	// ActivationRequested handles a network-requested PDP activation (the
	// OnActivationRequest role).
	ActivationRequested(env *sim.Env, address string)
}

// Client is the GPRS protocol client: GPRS attach, PDP context
// activation/deactivation, and IP send/receive over SNDCP. One Client
// instance represents one subscriber; the VMSC hosts one per registered MS.
type Client struct {
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

	send SendFunc
	host Host

	attached bool
	ptmsi    gsmid.PTMSI

	// contexts holds the active PDP contexts by value, in activation order:
	// one or two per subscriber in practice (NSAPIs allow eleven), so a scan
	// beats a map and a resident subscriber pays for neither buckets nor a
	// boxed record.
	contexts []ClientPDP

	// txns is where this client's procedures are in flight — its host's
	// table, or its own for a standalone client — and pending counts how
	// many of them are this client's.
	txns    *Transactions
	pending int
	lastErr error

	// OnPacket delivers downlink IP packets per NSAPI.
	OnPacket func(env *sim.Env, nsapi uint8, pkt ipnet.Packet)
	// OnActivationRequest fires for a network-requested PDP activation
	// (TR 23.923 MT path); the handler decides whether to activate.
	OnActivationRequest func(env *sim.Env, address string)
}

// ClientPDP is the client-side view of one PDP context.
type ClientPDP struct {
	NSAPI   uint8
	Address netip.Addr
	QoS     gtp.QoSProfile
}

// Transactions is a table of in-flight GMM/SM procedures (attach, detach,
// routing-area update, and per-NSAPI PDP activation and deactivation) for any
// number of clients.
type Transactions struct {
	*txn.Table[procKey, clientProc]
}

// procKey names one procedure of one client; a client runs at most one
// attach, detach and RAU, and one activation and deactivation per NSAPI.
type procKey struct {
	c     *Client
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
// retransmission and the completion its kind uses — onAttach for attach,
// onActivate for activation (both with arg; func values are pointer-shaped,
// so boxing a plain callback into arg costs nothing), done for the rest.
type clientProc struct {
	procKey
	pdu        []byte
	onAttach   func(arg any, ok bool)
	onActivate func(arg any, addr netip.Addr, ok bool)
	arg        any
	done       func()
}

// NewTransactions returns an empty GMM/SM transaction table for a Host to
// share among its clients.
func NewTransactions() *Transactions {
	return &Transactions{txn.New[procKey](
		func(env *sim.Env, p *clientProc) bool {
			p.c.sendPDU(env, p.c.TLLI(), p.pdu)
			return true
		},
		procExpired,
	)}
}

// procExpired fails a procedure whose retransmission budget ran out: the
// completion fires with failure and LastError reports the typed cause.
func procExpired(_ *sim.Env, p *clientProc) {
	c := p.c
	c.pending--
	switch p.proc {
	case procAttach:
		c.lastErr = ErrAttachTimeout
		p.onAttach(p.arg, false)
	case procActivate:
		c.lastErr = ErrActivateTimeout
		if p.onActivate != nil {
			p.onActivate(p.arg, netip.Addr{}, false)
		}
	case procDeactivate:
		// Tear the context down locally anyway — the network side reclaims
		// its half via its own supervision — and still complete the
		// callback so the caller's clear-down never hangs.
		c.dropContext(p.nsapi)
		c.lastErr = ErrDeactivateTimeout
		if p.done != nil {
			p.done()
		}
	}
}

// begin enters a procedure into the table under the given schedule and sends
// its request. It returns nil if the same procedure is already in flight.
func (c *Client) begin(env *sim.Env, proc, nsapi uint8, pdu []byte, policy txn.Policy) *clientProc {
	key := procKey{c: c, proc: proc, nsapi: nsapi}
	p := c.txns.Begin(env, key, policy)
	if p == nil {
		return nil
	}
	c.pending++
	p.procKey, p.pdu = key, pdu
	c.sendPDU(env, c.TLLI(), pdu)
	return p
}

// policy is the client's configured Timeout/Retries schedule.
func (c *Client) policy() txn.Policy { return txn.Policy{RTO: c.Timeout, Retries: c.Retries} }

// take ends a procedure whose answer arrived (or that is being aborted).
func (c *Client) take(proc, nsapi uint8) (clientProc, bool) {
	p, ok := c.txns.Take(procKey{c: c, proc: proc, nsapi: nsapi})
	if ok {
		c.pending--
	}
	return p, ok
}

// callActivateDone adapts a plain activation callback stored in arg.
func callActivateDone(arg any, addr netip.Addr, ok bool) {
	arg.(func(netip.Addr, bool))(addr, ok)
}

// callAttachDone adapts a plain attach callback stored in arg.
func callAttachDone(arg any, ok bool) {
	arg.(func(bool))(ok)
}

// NewClient returns a detached standalone client with a transaction table of
// its own.
func NewClient(imsi gsmid.IMSI, send SendFunc) *Client {
	return &Client{IMSI: imsi, send: send, txns: NewTransactions()}
}

// NewHostedClient returns a detached client whose transport, event delivery
// and transaction table are its host's rather than per-client state.
func NewHostedClient(imsi gsmid.IMSI, host Host) *Client {
	return &Client{IMSI: imsi, host: host, txns: host.Transactions()}
}

// sendPDU routes an uplink PDU through the host or the send callback.
func (c *Client) sendPDU(env *sim.Env, tlli gsmid.TLLI, pdu []byte) {
	if c.host != nil {
		c.host.SendLLC(env, tlli, pdu)
		return
	}
	c.send(env, tlli, pdu)
}

// Retransmits reports how many GMM/SM PDUs the client's transaction table
// has retransmitted — for a hosted client, across all its host's clients.
func (c *Client) Retransmits() uint64 { return c.txns.Retransmits() }

// LastError returns the typed error from the most recent transaction that
// exhausted its retransmission budget (nil if none has).
func (c *Client) LastError() error { return c.lastErr }

// Attached reports whether GPRS attach has completed.
func (c *Client) Attached() bool { return c.attached }

// TLLI returns the client's current logical link identity. Before attach
// completes this is a "random" TLLI derived from the IMSI; afterwards the
// local TLLI derived from the assigned P-TMSI (GSM 04.64).
func (c *Client) TLLI() gsmid.TLLI {
	if c.attached {
		return gsmid.LocalTLLI(c.ptmsi)
	}
	return c.foreignTLLI()
}

func (c *Client) foreignTLLI() gsmid.TLLI {
	var v uint32
	for i := 0; i < len(c.IMSI); i++ {
		v = v*31 + uint32(c.IMSI[i])
	}
	return gsmid.TLLI(v &^ 0xC0000000) // clear the "local" marker bits
}

// Context returns the active PDP context on an NSAPI.
func (c *Client) Context(nsapi uint8) (ClientPDP, bool) {
	if i := c.findContext(nsapi); i >= 0 {
		return c.contexts[i], true
	}
	return ClientPDP{}, false
}

// findContext returns the position of the context on an NSAPI, or -1.
func (c *Client) findContext(nsapi uint8) int {
	for i := range c.contexts {
		if c.contexts[i].NSAPI == nsapi {
			return i
		}
	}
	return -1
}

// dropContext forgets the context on an NSAPI, if there is one.
func (c *Client) dropContext(nsapi uint8) {
	if i := c.findContext(nsapi); i >= 0 {
		c.contexts = append(c.contexts[:i], c.contexts[i+1:]...)
	}
}

// ActiveContexts returns the number of active PDP contexts.
func (c *Client) ActiveContexts() int { return len(c.contexts) }

// PendingTransactions counts this client's GMM/SM transactions still
// awaiting an answer (attach, detach, RAU, and per-NSAPI activate/
// deactivate). A quiesced client reports zero; soak tests assert on it to
// catch leaked callbacks.
func (c *Client) PendingTransactions() int { return c.pending }

// Attach starts GPRS attach; done fires with the outcome.
func (c *Client) Attach(env *sim.Env, done func(ok bool)) error {
	return c.AttachArg(env, callAttachDone, done)
}

// AttachArg is Attach with a closure-free completion: fn(arg, ok) fires with
// the outcome. Callers driving many clients thread a per-subscriber record
// through arg instead of allocating a callback per attach.
func (c *Client) AttachArg(env *sim.Env, fn func(arg any, ok bool), arg any) error {
	if c.attached {
		return fmt.Errorf("gprs: client %s already attached", c.IMSI)
	}
	pdu, err := WrapSM(AttachRequest{IMSI: c.IMSI})
	if err != nil {
		return err
	}
	p := c.begin(env, procAttach, 0, pdu, c.policy())
	if p == nil {
		return fmt.Errorf("gprs: client %s attach already in progress", c.IMSI)
	}
	p.onAttach, p.arg = fn, arg
	return nil
}

// finishAttach fires the pending attach completion, if any.
func (c *Client) finishAttach(ok bool) {
	if p, pending := c.take(procAttach, 0); pending {
		p.onAttach(p.arg, ok)
	}
}

// UpdateRoutingArea reports a new routing area to the SGSN (movement). The
// attach and PDP contexts survive; done fires on the accept. A second update
// supersedes one still in flight.
func (c *Client) UpdateRoutingArea(env *sim.Env, rai gsmid.RAI, done func()) error {
	if !c.attached {
		return fmt.Errorf("gprs: client %s not attached", c.IMSI)
	}
	return c.beginUntimed(env, procRAU, RAUpdateRequest{RAI: rai}, done)
}

// Detach leaves the GPRS network.
func (c *Client) Detach(env *sim.Env, done func()) error {
	if !c.attached {
		return fmt.Errorf("gprs: client %s not attached", c.IMSI)
	}
	return c.beginUntimed(env, procDetach, DetachRequest{}, done)
}

// beginUntimed runs a detach or RAU: in the table so it is counted and
// audited like every other procedure, but sent once and never expired.
func (c *Client) beginUntimed(env *sim.Env, proc uint8, sm sim.Message, done func()) error {
	pdu, err := WrapSM(sm)
	if err != nil {
		return err
	}
	c.take(proc, 0)
	c.begin(env, proc, 0, pdu, txn.Policy{}).done = done
	return nil
}

// ActivatePDP requests a PDP context on the NSAPI; done fires with the
// assigned address. requestedAddr requests a static address ("" = dynamic).
func (c *Client) ActivatePDP(env *sim.Env, nsapi uint8, qos gtp.QoSProfile,
	requestedAddr string, done func(addr netip.Addr, ok bool)) error {
	return c.ActivatePDPArg(env, nsapi, qos, requestedAddr, callActivateDone, done)
}

// ActivatePDPArg is ActivatePDP with a closure-free completion:
// fn(arg, addr, ok) fires with the assigned address.
func (c *Client) ActivatePDPArg(env *sim.Env, nsapi uint8, qos gtp.QoSProfile,
	requestedAddr string, fn func(arg any, addr netip.Addr, ok bool), arg any) error {
	if !c.attached {
		return fmt.Errorf("gprs: client %s must attach before PDP activation", c.IMSI)
	}
	if c.findContext(nsapi) >= 0 {
		return fmt.Errorf("gprs: client %s NSAPI %d already active", c.IMSI, nsapi)
	}
	pdu, err := WrapSM(ActivatePDPRequest{NSAPI: nsapi, QoS: qos, RequestedAddress: requestedAddr})
	if err != nil {
		return err
	}
	p := c.begin(env, procActivate, nsapi, pdu, c.policy())
	if p == nil {
		return fmt.Errorf("gprs: client %s NSAPI %d activation in progress", c.IMSI, nsapi)
	}
	p.onActivate, p.arg = fn, arg
	return nil
}

// DeactivatePDP tears down the context on the NSAPI.
func (c *Client) DeactivatePDP(env *sim.Env, nsapi uint8, done func()) error {
	if c.findContext(nsapi) < 0 {
		return fmt.Errorf("gprs: client %s NSAPI %d not active", c.IMSI, nsapi)
	}
	pdu, err := WrapSM(DeactivatePDPRequest{NSAPI: nsapi})
	if err != nil {
		return err
	}
	p := c.begin(env, procDeactivate, nsapi, pdu, c.policy())
	if p == nil {
		return fmt.Errorf("gprs: client %s NSAPI %d deactivation in progress", c.IMSI, nsapi)
	}
	p.done = done
	return nil
}

// SendIP transmits an IP packet on the context's NSAPI. The packet's source
// address is filled from the context when unset.
func (c *Client) SendIP(env *sim.Env, nsapi uint8, pkt ipnet.Packet) error {
	i := c.findContext(nsapi)
	if i < 0 {
		return fmt.Errorf("gprs: client %s NSAPI %d not active", c.IMSI, nsapi)
	}
	if !pkt.Src.IsValid() {
		pkt.Src = c.contexts[i].Address
	}
	c.sendPDU(env, c.TLLI(), WrapData(nsapi, pkt))
	return nil
}

// HandleDownlink processes a downlink LLC PDU addressed to this client.
func (c *Client) HandleDownlink(env *sim.Env, pdu []byte) error {
	parsed, err := ParsePDU(pdu)
	if err != nil {
		return err
	}
	if parsed.IsData {
		if c.host != nil {
			c.host.PacketIn(env, parsed.NSAPI, parsed.Packet)
		} else if c.OnPacket != nil {
			c.OnPacket(env, parsed.NSAPI, parsed.Packet)
		}
		return nil
	}
	switch m := parsed.SM.(type) {
	case AttachAccept:
		c.attached = true
		c.ptmsi = m.PTMSI
		c.finishAttach(true)
	case AttachReject:
		c.finishAttach(false)
	case DetachAccept:
		c.attached = false
		c.contexts = nil
		detach, detaching := c.take(procDetach, 0)
		// Detach implicitly aborts every in-flight context transaction —
		// the SGSN has dropped the subscriber record, so no accept or
		// reject will ever arrive. Fail the activations and complete the
		// deactivations (their contexts are gone either way), in NSAPI
		// order so completion order is deterministic.
		for nsapi := 0; nsapi < 256 && c.pending > 0; nsapi++ {
			if p, ok := c.take(procActivate, uint8(nsapi)); ok && p.onActivate != nil {
				p.onActivate(p.arg, netip.Addr{}, false)
			}
			if p, ok := c.take(procDeactivate, uint8(nsapi)); ok && p.done != nil {
				p.done()
			}
		}
		if detaching && detach.done != nil {
			detach.done()
		}
	case ActivatePDPAccept:
		addr, parseErr := netip.ParseAddr(m.Address)
		p, _ := c.take(procActivate, m.NSAPI)
		if parseErr != nil {
			if p.onActivate != nil {
				p.onActivate(p.arg, netip.Addr{}, false)
			}
			return fmt.Errorf("gprs: bad PDP address %q: %w", m.Address, parseErr)
		}
		ctx := ClientPDP{NSAPI: m.NSAPI, Address: addr, QoS: m.QoS}
		if i := c.findContext(m.NSAPI); i >= 0 {
			c.contexts[i] = ctx // a duplicated accept
		} else {
			c.contexts = append(c.contexts, ctx)
		}
		if p.onActivate != nil {
			p.onActivate(p.arg, addr, true)
		}
	case ActivatePDPReject:
		if p, pending := c.take(procActivate, m.NSAPI); pending && p.onActivate != nil {
			p.onActivate(p.arg, netip.Addr{}, false)
		}
	case DeactivatePDPAccept:
		c.dropContext(m.NSAPI)
		if p, pending := c.take(procDeactivate, m.NSAPI); pending && p.done != nil {
			p.done()
		}
	case RequestPDPActivation:
		if c.host != nil {
			c.host.ActivationRequested(env, m.Address)
		} else if c.OnActivationRequest != nil {
			c.OnActivationRequest(env, m.Address)
		}
	case RAUpdateAccept:
		if p, pending := c.take(procRAU, 0); pending && p.done != nil {
			p.done()
		}
	}
	return nil
}
