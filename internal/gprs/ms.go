package gprs

import (
	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/sim"
	"vgprs/internal/txn"
)

// MSConfig parameterises a GPRS-capable mobile station.
type MSConfig struct {
	ID   sim.NodeID
	IMSI gsmid.IMSI
	// BTS is the serving cell; LLC frames cross Um to it and the BSC's
	// PCU relays them onto Gb (the Fig 1 data path (1)(2)(3)(4)).
	BTS sim.NodeID
}

// MS is a GPRS mobile station: the radio-attached host of a Client. Unlike
// the paper's vGPRS handsets it speaks packet data natively, but — also per
// the paper — it has no H.323 stack; its voice service still comes from the
// VMSC.
type MS struct {
	cfg MSConfig
	// Client is the GPRS protocol client; callers drive Attach /
	// ActivatePDP / SendIP through it.
	Client *Client
}

var _ sim.Node = (*MS)(nil)

// NewMS returns a detached GPRS MS.
func NewMS(cfg MSConfig) *MS {
	ms := &MS{cfg: cfg}
	ms.Client = NewClient(cfg.IMSI, func(env *sim.Env, tlli gsmid.TLLI, pdu []byte) {
		env.Send(cfg.ID, cfg.BTS, gsm.LLCFrame{
			Leg: gsm.LegUm, MS: cfg.ID, TLLI: tlli, Payload: pdu,
		})
	})
	return ms
}

// ID implements sim.Node.
func (m *MS) ID() sim.NodeID { return m.cfg.ID }

// TxnStats reports the client's GMM/SM table's accounting, for netsim's leak
// gate.
func (m *MS) TxnStats(report func(plane string, s txn.Stats)) { m.Client.TxnStats(report) }

// Receive implements sim.Node: downlink LLC frames feed the client.
func (m *MS) Receive(env *sim.Env, from sim.NodeID, iface string, msg sim.Message) {
	frame, ok := msg.(gsm.LLCFrame)
	if !ok || !frame.Downlink {
		return
	}
	_ = m.Client.HandleDownlink(env, frame.Payload)
}
