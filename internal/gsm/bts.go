package gsm

import (
	"vgprs/internal/sim"
)

// BTSConfig parameterises a base transceiver station.
type BTSConfig struct {
	ID sim.NodeID
	// BSC is the controlling base station controller.
	BSC sim.NodeID
}

// BTS is a base transceiver station: a per-message relay between the Um air
// interface and the Abis interface, exactly the role it plays in the
// paper's figures (it renames messages hop by hop but takes no decisions).
type BTS struct {
	cfg BTSConfig
}

var _ sim.Node = (*BTS)(nil)

// NewBTS returns a BTS.
func NewBTS(cfg BTSConfig) *BTS { return &BTS{cfg: cfg} }

// ID implements sim.Node.
func (b *BTS) ID() sim.NodeID { return b.cfg.ID }

// Receive implements sim.Node: uplink (Um) traffic is relayed to the BSC
// with the Abis leg; downlink (Abis) traffic is relayed to the target MS
// with the Um leg, provided the MS is in this cell — linked to this BTS.
// An MS in another cell is dropped here; paging elsewhere finds it.
func (b *BTS) Receive(env *sim.Env, from sim.NodeID, iface string, msg sim.Message) {
	switch iface {
	case "Um":
		env.Send(b.cfg.ID, b.cfg.BSC, relayLeg(env, msg, LegAbis))
	case "Abis":
		if ms := TargetMS(msg); ms != "" {
			env.TrySend(b.cfg.ID, ms, relayLeg(env, msg, LegUm))
		}
	}
}

// relayLeg tags a relayed message with the leg it is about to cross. The tag
// feeds only trace naming and wire headers — no protocol handler reads it —
// so with no tracer installed the original message is forwarded untouched,
// skipping the re-boxing copy WithLeg would make on every hop.
func relayLeg(env *sim.Env, msg sim.Message, leg Leg) sim.Message {
	if env.Tracer() == nil {
		return msg
	}
	return WithLeg(msg, leg)
}

// WithLeg returns a copy of a radio-access message with the leg rewritten —
// the relay operation a BTS/BSC performs when a message crosses interfaces.
// A frame record sent by pointer comes back as a value copy, which a trace
// may keep. Messages without a leg (foreign types) are returned unchanged.
func WithLeg(msg sim.Message, leg Leg) sim.Message {
	switch m := msg.(type) {
	case ChannelRequest:
		m.Leg = leg
		return m
	case ImmediateAssignment:
		m.Leg = leg
		return m
	case LocationUpdate:
		m.Leg = leg
		return m
	case LocationUpdateAccept:
		m.Leg = leg
		return m
	case LocationUpdateReject:
		m.Leg = leg
		return m
	case AuthRequest:
		m.Leg = leg
		return m
	case AuthResponse:
		m.Leg = leg
		return m
	case CipherModeCommand:
		m.Leg = leg
		return m
	case CipherModeComplete:
		m.Leg = leg
		return m
	case Setup:
		m.Leg = leg
		return m
	case CallConfirmed:
		m.Leg = leg
		return m
	case Alerting:
		m.Leg = leg
		return m
	case Connect:
		m.Leg = leg
		return m
	case Disconnect:
		m.Leg = leg
		return m
	case Release:
		m.Leg = leg
		return m
	case ReleaseComplete:
		m.Leg = leg
		return m
	case IMSIDetach:
		m.Leg = leg
		return m
	case Paging:
		m.Leg = leg
		return m
	case PagingResponse:
		m.Leg = leg
		return m
	case TCHFrame:
		m.Leg = leg
		return m
	case *TCHFrame:
		c := *m
		c.Leg = leg
		return c
	case MeasurementReport:
		m.Leg = leg
		return m
	case HandoverRequired:
		m.Leg = leg
		return m
	case HandoverCommand:
		m.Leg = leg
		return m
	case HandoverAccess:
		m.Leg = leg
		return m
	case HandoverComplete:
		m.Leg = leg
		return m
	case LLCFrame:
		m.Leg = leg
		return m
	default:
		return msg
	}
}

// TargetMS extracts the MS correlation handle from a radio-access message,
// or "" for foreign types.
func TargetMS(msg sim.Message) sim.NodeID {
	switch m := msg.(type) {
	case ChannelRequest:
		return m.MS
	case ImmediateAssignment:
		return m.MS
	case LocationUpdate:
		return m.MS
	case LocationUpdateAccept:
		return m.MS
	case LocationUpdateReject:
		return m.MS
	case AuthRequest:
		return m.MS
	case AuthResponse:
		return m.MS
	case CipherModeCommand:
		return m.MS
	case CipherModeComplete:
		return m.MS
	case Setup:
		return m.MS
	case CallConfirmed:
		return m.MS
	case Alerting:
		return m.MS
	case Connect:
		return m.MS
	case Disconnect:
		return m.MS
	case Release:
		return m.MS
	case ReleaseComplete:
		return m.MS
	case IMSIDetach:
		return m.MS
	case Paging:
		return m.MS
	case PagingResponse:
		return m.MS
	case TCHFrame:
		return m.MS
	case *TCHFrame:
		return m.MS
	case MeasurementReport:
		return m.MS
	case HandoverRequired:
		return m.MS
	case HandoverCommand:
		return m.MS
	case HandoverAccess:
		return m.MS
	case HandoverComplete:
		return m.MS
	case LLCFrame:
		return m.MS
	default:
		return ""
	}
}
