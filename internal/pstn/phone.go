package pstn

import (
	"fmt"
	"hash/fnv"
	"time"

	"vgprs/internal/codec"
	"vgprs/internal/gsmid"
	"vgprs/internal/isup"
	"vgprs/internal/sim"
)

// PhoneHooks observe fixed-phone events.
type PhoneHooks struct {
	OnAlerting  func(ref uint32)
	OnConnected func(ref uint32)
	OnReleased  func(ref uint32, cause isup.ReleaseCause)
	OnIncoming  func(ref uint32, calling gsmid.MSISDN)
	OnFrame     func(f isup.TrunkFrame)
}

// PhoneConfig parameterises a fixed telephone.
type PhoneConfig struct {
	ID sim.NodeID
	// Number is the phone's E.164 number.
	Number gsmid.MSISDN
	// Exchange is the serving local exchange.
	Exchange sim.NodeID
	// AutoAnswer answers incoming calls after AnswerDelay.
	AutoAnswer  bool
	AnswerDelay time.Duration
	// Talk generates voice frames while connected.
	Talk bool
	// FrameInterval is the frame period; zero means 20 ms.
	FrameInterval time.Duration

	Hooks PhoneHooks
}

// Phone is a fixed PSTN telephone — the "y" of the tromboning scenario.
type Phone struct {
	cfg PhoneConfig

	nextRef  uint32
	ref      uint32
	active   bool
	answered bool
	talking  bool
	seq      uint32
	rx       uint64
}

var _ sim.Node = (*Phone)(nil)

// NewPhone returns an idle phone.
func NewPhone(cfg PhoneConfig) *Phone {
	if cfg.FrameInterval == 0 {
		cfg.FrameInterval = codec.FrameDuration
	}
	return &Phone{cfg: cfg}
}

// ID implements sim.Node.
func (p *Phone) ID() sim.NodeID { return p.cfg.ID }

// SetOnConnected replaces the OnConnected hook (for tests and examples that
// attach observers after construction).
func (p *Phone) SetOnConnected(fn func(ref uint32)) { p.cfg.Hooks.OnConnected = fn }

// SetOnIncoming replaces the OnIncoming hook.
func (p *Phone) SetOnIncoming(fn func(ref uint32, calling gsmid.MSISDN)) {
	p.cfg.Hooks.OnIncoming = fn
}

// SetAutoAnswer enables automatic answering with the given ring time.
func (p *Phone) SetAutoAnswer(after time.Duration) {
	p.cfg.AutoAnswer = true
	p.cfg.AnswerDelay = after
}

// FramesReceived returns the number of voice frames heard.
func (p *Phone) FramesReceived() uint64 { return p.rx }

// InCall reports whether a call is active.
func (p *Phone) InCall() bool { return p.active && p.answered }

// Audit reports the phone's transient state for netsim's leak gate.
func (p *Phone) Audit(report func(kind string, n int)) {
	if p.InCall() {
		report("active calls", 1)
	}
}

// Call dials a number and returns the call reference. Call references are
// derived from the phone's number so concurrent calls from different phones
// never collide.
func (p *Phone) Call(env *sim.Env, called gsmid.MSISDN) (uint32, error) {
	if p.active {
		return 0, fmt.Errorf("pstn: phone %s is busy", p.cfg.ID)
	}
	p.nextRef++
	h := fnv.New32a()
	h.Write([]byte(p.cfg.Number))
	ref := h.Sum32()&0xFFFF0000 | p.nextRef&0xFFFF
	p.ref = ref
	p.active = true
	p.answered = false
	env.Send(p.cfg.ID, p.cfg.Exchange, isup.IAM{
		CIC: 0, CallRef: ref, Called: called, Calling: p.cfg.Number,
	})
	return ref, nil
}

// Hangup releases the active call.
func (p *Phone) Hangup(env *sim.Env) error {
	if !p.active {
		return fmt.Errorf("pstn: phone %s has no call", p.cfg.ID)
	}
	ref := p.ref
	p.clear()
	env.Send(p.cfg.ID, p.cfg.Exchange, isup.REL{CIC: 0, CallRef: ref, Cause: isup.CauseNormalClearing})
	return nil
}

func (p *Phone) clear() {
	p.active = false
	p.answered = false
	p.talking = false
}

// Receive implements sim.Node.
func (p *Phone) Receive(env *sim.Env, from sim.NodeID, iface string, msg sim.Message) {
	switch m := msg.(type) {
	case isup.IAM:
		if p.active {
			env.Send(p.cfg.ID, from, isup.REL{CIC: m.CIC, CallRef: m.CallRef, Cause: isup.CauseUserBusy})
			return
		}
		p.ref = m.CallRef
		p.active = true
		env.Send(p.cfg.ID, from, isup.ACM{CIC: m.CIC, CallRef: m.CallRef})
		if p.cfg.Hooks.OnIncoming != nil {
			p.cfg.Hooks.OnIncoming(m.CallRef, m.Calling)
		}
		if p.cfg.AutoAnswer {
			env.After(p.cfg.AnswerDelay, func() { p.Answer(env, m.CallRef, m.CIC) })
		}
	case isup.ACM:
		if m.CallRef == p.ref && p.cfg.Hooks.OnAlerting != nil {
			p.cfg.Hooks.OnAlerting(m.CallRef)
		}
	case isup.ANM:
		if m.CallRef == p.ref {
			p.answered = true
			p.startTalking(env)
			if p.cfg.Hooks.OnConnected != nil {
				p.cfg.Hooks.OnConnected(m.CallRef)
			}
		}
	case isup.REL:
		env.Send(p.cfg.ID, from, isup.RLC{CIC: m.CIC, CallRef: m.CallRef})
		if m.CallRef == p.ref && p.active {
			p.clear()
			if p.cfg.Hooks.OnReleased != nil {
				p.cfg.Hooks.OnReleased(m.CallRef, m.Cause)
			}
		}
	case isup.TrunkFrame:
		if m.CallRef == p.ref {
			p.rx++
			if p.cfg.Hooks.OnFrame != nil {
				p.cfg.Hooks.OnFrame(m)
			}
		}
	}
}

// Answer answers a ringing incoming call.
func (p *Phone) Answer(env *sim.Env, ref uint32, cic isup.CIC) {
	if !p.active || p.answered || ref != p.ref {
		return
	}
	p.answered = true
	env.Send(p.cfg.ID, p.cfg.Exchange, isup.ANM{CIC: cic, CallRef: ref})
	p.startTalking(env)
	if p.cfg.Hooks.OnConnected != nil {
		p.cfg.Hooks.OnConnected(ref)
	}
}

func (p *Phone) startTalking(env *sim.Env) {
	if !p.cfg.Talk || p.talking {
		return
	}
	p.talking = true
	ref := p.ref
	var tick func()
	tick = func() {
		if !p.talking || p.ref != ref || !p.answered {
			return
		}
		p.seq++
		env.Send(p.cfg.ID, p.cfg.Exchange, isup.TrunkFrame{
			CIC: 0, CallRef: ref, Seq: p.seq,
			Payload: codec.NewFrame(env.Now(), p.seq),
		})
		env.After(p.cfg.FrameInterval, tick)
	}
	env.After(p.cfg.FrameInterval, tick)
}
