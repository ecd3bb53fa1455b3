// Package tr23923 implements the comparison baseline of the paper's §6: the
// 3G TR 23.923 approach to voice over GPRS. Its differences from vGPRS are
// exactly the ones the paper enumerates, each of which this package models
// so the experiment harness can measure them:
//
//   - The MS itself must be an H.323 terminal with a vocoder (here: an
//     h323.Terminal whose IP transport is a GPRS PDP context over the
//     packet-switched radio path).
//   - Voice crosses the radio interface packet-switched, so it sees the
//     shared-channel contention the paper says breaks real-time quality
//     (modelled as configurable jitter on the Um link — experiment C3).
//   - After gatekeeper registration the PDP context is DEACTIVATED; every
//     call re-activates it, and terminating calls need network-initiated
//     activation, which requires a static PDP address (GSM 03.60) —
//     experiments C1/C2.
//   - The gatekeeper must speak GSM MAP and memorize IMSIs (experiment C4).
//
// netsim.BuildTR23923 wires these mobiles into a network.
package tr23923

import (
	"fmt"
	"net/netip"
	"time"

	"vgprs/internal/gprs"
	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/gtp"
	"vgprs/internal/h323"
	"vgprs/internal/ipnet"
	"vgprs/internal/sim"
	"vgprs/internal/txn"
)

// MSHooks observe the TR 23.923 mobile's events.
type MSHooks struct {
	OnRegistered func()
	OnConnected  func(ref uint16)
	OnReleased   func(ref uint16)
	OnIncoming   func(ref uint16, calling gsmid.MSISDN)
}

// MSConfig parameterises a TR 23.923 mobile station.
type MSConfig struct {
	ID     sim.NodeID
	IMSI   gsmid.IMSI
	MSISDN gsmid.MSISDN
	// BTS is the serving cell; all traffic is packet-switched over Um.
	BTS sim.NodeID
	// Gatekeeper is the GK's IP address.
	Gatekeeper netip.Addr
	// StaticAddr is the provisioned static PDP address — mandatory in
	// this architecture, since terminating calls need network-initiated
	// activation (the paper: "static PDP address is required (which may
	// not be practical for a large-scaled network)").
	StaticAddr string
	// Dir resolves addresses for tracing.
	Dir *h323.Directory
	// KeepPDPActive disables the per-call activate/deactivate cycle (an
	// ablation; TR 23.923 proper deactivates when idle).
	KeepPDPActive bool
	// Talk generates RTP media while connected.
	Talk        bool
	AutoAnswer  bool
	AnswerDelay time.Duration

	Hooks MSHooks
}

const nsapiVoIP uint8 = 5

// MS is a TR 23.923 mobile: an H.323 terminal riding a GPRS PDP context.
type MS struct {
	cfg    MSConfig
	Client *gprs.Client
	// Term is the embedded H.323 terminal; its media statistics are the
	// C3 experiment's TR-side measurements.
	Term *h323.Terminal

	registered bool
	// pendingSend queues packets produced while the context is being
	// (re)activated.
	pendingSend []ipnet.Packet
	activating  bool
	// pendingDeactivate defers context teardown until in-flight
	// signalling (the DRQ and its DCF) has drained.
	pendingDeactivate bool
	// env caches the simulation environment for hook callbacks, which
	// always run on the simulation goroutine.
	env *sim.Env
}

var _ sim.Node = (*MS)(nil)

// NewMS returns a detached TR 23.923 mobile.
func NewMS(cfg MSConfig) *MS {
	m := &MS{cfg: cfg}
	m.Client = gprs.NewClient(cfg.IMSI, func(env *sim.Env, tlli gsmid.TLLI, pdu []byte) {
		env.Send(cfg.ID, cfg.BTS, gsm.LLCFrame{
			Leg: gsm.LegUm, MS: cfg.ID, TLLI: tlli, Payload: pdu,
		})
	})
	m.Client.OnPacket = func(env *sim.Env, nsapi uint8, pkt ipnet.Packet) {
		m.Term.HandlePacket(env, pkt)
	}
	m.Client.OnActivationRequest = func(env *sim.Env, address string) {
		// Network-initiated activation for a terminating call.
		m.ensureActive(env, func(bool) {})
	}
	m.Term = h323.NewTerminal(h323.TerminalConfig{
		ID:         cfg.ID,
		Alias:      cfg.MSISDN,
		Addr:       ipnet.MustAddr(cfg.StaticAddr),
		Gatekeeper: cfg.Gatekeeper,
		Dir:        cfg.Dir,
		AutoAnswer: cfg.AutoAnswer, AnswerDelay: cfg.AnswerDelay,
		Talk:      cfg.Talk,
		Transport: m.transport,
		Hooks: h323.TerminalHooks{
			OnRegistered: func() {
				m.registered = true
				// The defining TR 23.923 move: drop the context once
				// registered "due to the network resource consideration".
				if !m.cfg.KeepPDPActive {
					m.deactivateLater(m.env)
				}
				if cfg.Hooks.OnRegistered != nil {
					cfg.Hooks.OnRegistered()
				}
			},
			OnConnected: func(ref uint16) {
				if cfg.Hooks.OnConnected != nil {
					cfg.Hooks.OnConnected(ref)
				}
			},
			OnReleased: func(ref uint16) {
				if !m.cfg.KeepPDPActive {
					m.deactivateLater(m.env)
				}
				if cfg.Hooks.OnReleased != nil {
					cfg.Hooks.OnReleased(ref)
				}
			},
			OnIncoming: cfg.Hooks.OnIncoming,
		},
	})
	return m
}

// ID implements sim.Node.
func (m *MS) ID() sim.NodeID { return m.cfg.ID }

// Registered reports gatekeeper registration.
func (m *MS) Registered() bool { return m.registered }

// Audit reports the MS's transient state for netsim's leak gate: the packets
// held for a context still being activated and the embedded terminal's
// calls. The gate reads the transaction tables from TxnStats.
func (m *MS) Audit(report func(kind string, n int)) {
	report("packets awaiting a context", len(m.pendingSend))
	m.Term.Audit(report)
}

// TxnStats reports the GPRS client's GMM/SM table and the embedded
// terminal's RAS and Q.931 tables.
func (m *MS) TxnStats(report func(plane string, s txn.Stats)) {
	m.Client.TxnStats(report)
	m.Term.TxnStats(report)
}

// deactivateLater schedules the context teardown after a short linger, so
// in-flight signalling (the DRQ/DCF pair) and straggler media drain first —
// otherwise a late RTP packet reaching the GGSN with no context would
// immediately trigger a spurious network-initiated re-activation.
func (m *MS) deactivateLater(env *sim.Env) {
	m.pendingDeactivate = true
	env.After(time.Second, func() {
		if !m.pendingDeactivate || m.Term.ActiveCalls() > 0 {
			return
		}
		m.pendingDeactivate = false
		if _, active := m.Client.Context(nsapiVoIP); active {
			_ = m.Client.DeactivatePDP(env, nsapiVoIP, func() {})
		}
	})
}

// transport pushes the terminal's IP packets through the PDP context.
func (m *MS) transport(env *sim.Env, pkt ipnet.Packet) {
	m.env = env
	if _, active := m.Client.Context(nsapiVoIP); active {
		_ = m.Client.SendIP(env, nsapiVoIP, pkt)
		return
	}
	if m.activating {
		m.pendingSend = append(m.pendingSend, pkt)
	}
	// No context and none coming: the packet is dropped.
}

// Register attaches, activates the context, registers with the gatekeeper,
// and (per TR 23.923) deactivates again.
func (m *MS) Register(env *sim.Env) error {
	return m.Client.Attach(env, func(ok bool) {
		if !ok {
			return
		}
		m.ensureActive(env, func(ok bool) {
			if !ok {
				return
			}
			m.Term.Register(env)
		})
	})
}

// Call originates a call: the PDP context must be re-activated first — the
// setup-time cost the C1 experiment measures.
func (m *MS) Call(env *sim.Env, called gsmid.MSISDN) (uint16, error) {
	if !m.registered {
		return 0, fmt.Errorf("tr23923: MS %s not registered", m.cfg.ID)
	}
	// Start re-activation first: ensureActive marks the client as
	// activating synchronously, so the ARQ the terminal pushes next is
	// queued rather than dropped, and flows once the context is up.
	m.ensureActive(env, func(bool) {})
	return m.Term.Call(env, called)
}

// Hangup clears a call.
func (m *MS) Hangup(env *sim.Env, ref uint16) error {
	return m.Term.Hangup(env, ref)
}

// ensureActive re-activates the PDP context if needed.
func (m *MS) ensureActive(env *sim.Env, done func(ok bool)) {
	if _, active := m.Client.Context(nsapiVoIP); active {
		done(true)
		return
	}
	if m.activating {
		done(true) // piggyback on the in-flight activation
		return
	}
	m.activating = true
	err := m.Client.ActivatePDP(env, nsapiVoIP, gtp.VoiceQoS(), m.cfg.StaticAddr,
		func(_ netip.Addr, ok bool) {
			m.activating = false
			if ok {
				for _, pkt := range m.pendingSend {
					_ = m.Client.SendIP(env, nsapiVoIP, pkt)
				}
				m.pendingSend = nil
			} else {
				m.pendingSend = nil
			}
			done(ok)
		})
	if err != nil {
		m.activating = false
		done(false)
	}
}

// Receive implements sim.Node: downlink LLC frames feed the client.
func (m *MS) Receive(env *sim.Env, from sim.NodeID, iface string, msg sim.Message) {
	m.env = env
	frame, ok := msg.(gsm.LLCFrame)
	if !ok || !frame.Downlink {
		return
	}
	_ = m.Client.HandleDownlink(env, frame.Payload)
}
