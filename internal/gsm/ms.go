package gsm

import (
	"fmt"
	"time"

	"vgprs/internal/codec"
	"vgprs/internal/gsmid"
	"vgprs/internal/hlr"
	"vgprs/internal/sim"
)

// MSState is the mobile station's layer-3 state.
type MSState uint8

// MS states.
const (
	MSDetached MSState = iota + 1
	MSRequestingChannel
	MSRegistering
	MSIdle
	MSDialing
	MSWaitAnswer
	MSRinging
	MSInCall
	MSClearing
)

// String names the state.
func (s MSState) String() string {
	switch s {
	case MSDetached:
		return "detached"
	case MSRequestingChannel:
		return "requesting-channel"
	case MSRegistering:
		return "registering"
	case MSIdle:
		return "idle"
	case MSDialing:
		return "dialing"
	case MSWaitAnswer:
		return "wait-answer"
	case MSRinging:
		return "ringing"
	case MSInCall:
		return "in-call"
	case MSClearing:
		return "clearing"
	default:
		return fmt.Sprintf("MSState(%d)", uint8(s))
	}
}

// MSHooks are optional observation callbacks fired by the MS state machine.
// All callbacks run on the simulation goroutine.
type MSHooks struct {
	// OnRegistered fires when the network accepts the location update.
	OnRegistered func(tmsi gsmid.TMSI)
	// OnRegisterFailed fires on location-update rejection or radio
	// congestion during registration.
	OnRegisterFailed func()
	// OnAlerting fires when the MS receives Alerting for its outgoing
	// call (ringback begins).
	OnAlerting func(callRef uint32)
	// OnConnected fires when the call enters conversation.
	OnConnected func(callRef uint32)
	// OnReleased fires when a call finishes clearing.
	OnReleased func(callRef uint32)
	// OnIncoming fires when a mobile-terminated Setup arrives; the MS
	// rings and (with AutoAnswer) answers after AnswerDelay.
	OnIncoming func(callRef uint32, calling gsmid.MSISDN)
	// OnBlocked fires when a channel request is rejected.
	OnBlocked func()
	// OnFrame fires for every downlink speech frame.
	OnFrame func(f TCHFrame)
	// OnHandover fires when the MS completes a handover to a new BTS.
	OnHandover func(newBTS sim.NodeID)
}

// MSConfig parameterises a mobile station.
type MSConfig struct {
	ID     sim.NodeID
	IMSI   gsmid.IMSI
	MSISDN gsmid.MSISDN
	// Ki is the SIM's secret key; must match the HLR's provisioned key.
	Ki [16]byte
	// BTS is the serving cell.
	BTS sim.NodeID
	// LAI is the location area the MS camps on.
	LAI gsmid.LAI
	// AutoAnswer answers incoming calls after AnswerDelay.
	AutoAnswer  bool
	AnswerDelay time.Duration
	// Talk makes the MS generate uplink speech frames while in a call.
	Talk bool
	// DTX enables discontinuous transmission: a Brady talk-spurt model
	// gates the uplink frames, suppressing silence (VAD), as GSM DTX
	// does. Only meaningful with Talk.
	DTX bool
	// FrameInterval is the vocoder frame period; zero means 20 ms (GSM FR).
	FrameInterval time.Duration
	// UseTMSIAfterFirstUpdate registers with the stored TMSI on
	// subsequent location updates, as a real MS does.
	UseTMSIAfterFirstUpdate bool
	// MaxAccessRetries bounds registration random-access retries under
	// radio congestion. Zero means 8.
	MaxAccessRetries int
	// PeriodicUpdate, when positive, re-runs the location update on this
	// interval while the MS is idle — the GSM T3212 periodic registration
	// timer.
	PeriodicUpdate time.Duration

	Hooks MSHooks
}

// MS is a standard GSM mobile station — deliberately without any H.323 or
// vocoder-IP capability, since the paper's whole point is that vGPRS serves
// unmodified handsets.
type MS struct {
	cfg MSConfig

	state    MSState
	tmsi     gsmid.TMSI
	hasTMSI  bool
	channel  uint16
	callRef  uint32
	nextRef  uint32
	seq      uint32
	rxFrames uint64

	// pending is what the MS wants the channel for.
	pending pendingAction
	dialled gsmid.MSISDN
	retries int

	talking bool
	// speech is the DTX talk-spurt gate (nil when DTX is off).
	speech *codec.Source
	// ul is the reusable uplink frame record, allocated at the first
	// frame, so an MS that never talks pays one pointer for it.
	ul *uplinkFrame

	media mediaStats
}

// uplinkFrame is an MS's reusable uplink frame: the message and the
// payload it points at, rewritten every tick and sent by pointer. The
// BTS/BSC/VMSC chain consumes each frame within one FrameInterval, so the
// steady-state talk path allocates nothing.
type uplinkFrame struct {
	msg TCHFrame
	buf [codec.FrameBytes]byte
}

// mediaStats accumulates listener-side QoS for the downlink speech the MS
// hears: the three E-model axes (one-way delay, interarrival jitter, loss).
// Frames embed their generation time and sequence number (codec.NewFrame)
// and the transcoding hops are byte-preserving, so both survive the
// Um→core→Um hairpin intact.
type mediaStats struct {
	frames   uint64
	firstSeq uint32
	lastSeq  uint32
	haveSeq  bool
	sumDelay time.Duration
	maxDelay time.Duration
	// jitter is the RFC 3550 smoothed estimator J += (|D|-J)/16 over the
	// transit-time differences of consecutive frames, in nanoseconds.
	jitter    float64
	lastDelay time.Duration
	haveDelay bool
}

func (s *mediaStats) observe(now, gen time.Duration, seq uint32) {
	s.frames++
	if !s.haveSeq {
		s.firstSeq, s.lastSeq, s.haveSeq = seq, seq, true
	} else {
		if seq < s.firstSeq {
			s.firstSeq = seq
		}
		if seq > s.lastSeq {
			s.lastSeq = seq
		}
	}
	delay := now - gen
	s.sumDelay += delay
	if delay > s.maxDelay {
		s.maxDelay = delay
	}
	if s.haveDelay {
		d := float64(delay - s.lastDelay)
		if d < 0 {
			d = -d
		}
		s.jitter += (d - s.jitter) / 16
	}
	s.lastDelay, s.haveDelay = delay, true
}

// MediaReport is a snapshot of the listener-side QoS accumulated since the
// last ResetMedia, in the units metrics.EModel scores: delay and jitter as
// durations, loss as expected-vs-heard frame counts over the received
// sequence span.
type MediaReport struct {
	// Frames is the number of downlink speech frames heard.
	Frames uint64
	// Expected is the frame count the received sequence span implies;
	// Expected-Frames is the end-to-end loss within the span.
	Expected  uint64
	MeanDelay time.Duration
	MaxDelay  time.Duration
	Jitter    time.Duration
}

// maxRetries bounds random-access backoff attempts during registration.
func (m *MS) maxRetries() int {
	if m.cfg.MaxAccessRetries > 0 {
		return m.cfg.MaxAccessRetries
	}
	return 8
}

type pendingAction uint8

const (
	pendingNone pendingAction = iota
	pendingRegister
	pendingDial
	pendingPageResponse
	pendingDetach
)

var _ sim.Node = (*MS)(nil)

// NewMS returns a powered-off MS.
func NewMS(cfg MSConfig) *MS {
	if cfg.FrameInterval == 0 {
		cfg.FrameInterval = 20 * time.Millisecond
	}
	return &MS{cfg: cfg, state: MSDetached}
}

// ID implements sim.Node.
func (m *MS) ID() sim.NodeID { return m.cfg.ID }

// State returns the current layer-3 state.
func (m *MS) State() MSState { return m.state }

// SetOnConnected replaces the OnConnected hook.
func (m *MS) SetOnConnected(fn func(callRef uint32)) { m.cfg.Hooks.OnConnected = fn }

// SetOnFrame replaces the OnFrame hook.
func (m *MS) SetOnFrame(fn func(f TCHFrame)) { m.cfg.Hooks.OnFrame = fn }

// TMSI returns the allocated temporary identity, if any.
func (m *MS) TMSI() (gsmid.TMSI, bool) { return m.tmsi, m.hasTMSI }

// FramesReceived returns the number of downlink speech frames received.
func (m *MS) FramesReceived() uint64 { return m.rxFrames }

// MediaReport snapshots the listener-side QoS stats accumulated since power
// on or the last ResetMedia. Read it before releasing the call: the stats
// survive release, but a later call keeps accumulating into them.
func (m *MS) MediaReport() MediaReport {
	r := MediaReport{
		Frames:   m.media.frames,
		MaxDelay: m.media.maxDelay,
		Jitter:   time.Duration(m.media.jitter),
	}
	if m.media.haveSeq {
		r.Expected = uint64(m.media.lastSeq-m.media.firstSeq) + 1
	}
	if m.media.frames > 0 {
		r.MeanDelay = m.media.sumDelay / time.Duration(m.media.frames)
	}
	return r
}

// ResetMedia clears the listener-side QoS stats, starting a fresh
// measurement window (e.g. between talk waves).
func (m *MS) ResetMedia() { m.media = mediaStats{} }

// PowerOn starts the registration procedure (paper Fig 4 step 1.1): the MS
// requests a channel and performs a location update.
func (m *MS) PowerOn(env *sim.Env) {
	if m.state != MSDetached {
		return
	}
	m.pending = pendingRegister
	m.requestChannel(env, false)
}

// UpdateLocation performs a fresh location update from the idle state — the
// movement/periodic registration the paper's §3 closing remark covers. With
// UseTMSIAfterFirstUpdate set, the MS identifies itself by TMSI, the common
// case for location update due to movement.
func (m *MS) UpdateLocation(env *sim.Env) error {
	if m.state != MSIdle {
		return fmt.Errorf("gsm: MS %s cannot update location in state %s", m.cfg.ID, m.state)
	}
	m.pending = pendingRegister
	m.requestChannel(env, false)
	return nil
}

// MoveTo re-homes the MS onto a new serving cell (and location area) and
// performs the location update from there. The MS must be idle and a Um
// link to the new BTS must exist.
func (m *MS) MoveTo(env *sim.Env, bts sim.NodeID, lai gsmid.LAI) error {
	if m.state != MSIdle {
		return fmt.Errorf("gsm: MS %s cannot move in state %s", m.cfg.ID, m.state)
	}
	m.cfg.BTS = bts
	m.cfg.LAI = lai
	return m.UpdateLocation(env)
}

// PowerOff deregisters the MS: it sends the GSM IMSI detach indication
// (which has no acknowledgement) and returns to the detached state. An
// idle MS first requests a channel for the indication; an MS in a call
// sends it on the channel it already holds — abrupt power loss mid-call —
// and the network clears the far leg on the detach.
func (m *MS) PowerOff(env *sim.Env) error {
	switch m.state {
	case MSIdle:
		m.pending = pendingDetach
		m.requestChannel(env, false)
		return nil
	case MSInCall, MSWaitAnswer, MSDialing, MSRinging, MSClearing:
		m.stopTalking()
		env.Send(m.cfg.ID, m.cfg.BTS, IMSIDetach{
			Leg: LegUm, MS: m.cfg.ID, Identity: m.identity(),
		})
		m.state = MSDetached
		m.hasTMSI = false
		return nil
	default:
		return fmt.Errorf("gsm: MS %s cannot power off in state %s", m.cfg.ID, m.state)
	}
}

// Dial originates a call to the given number (paper Fig 5 step 2.1). The MS
// must be registered and idle.
func (m *MS) Dial(env *sim.Env, called gsmid.MSISDN) error {
	if m.state != MSIdle {
		return fmt.Errorf("gsm: MS %s cannot dial in state %s", m.cfg.ID, m.state)
	}
	m.pending = pendingDial
	m.dialled = called
	m.requestChannel(env, false)
	return nil
}

// Hangup starts call clearing (paper Fig 5 step 3.1).
func (m *MS) Hangup(env *sim.Env) error {
	if m.state != MSInCall && m.state != MSWaitAnswer && m.state != MSDialing {
		return fmt.Errorf("gsm: MS %s cannot hang up in state %s", m.cfg.ID, m.state)
	}
	m.stopTalking()
	m.state = MSClearing
	env.Send(m.cfg.ID, m.cfg.BTS, Disconnect{Leg: LegUm, MS: m.cfg.ID, CallRef: m.callRef})
	return nil
}

// Answer answers a ringing incoming call (no-op unless ringing). AutoAnswer
// configurations call it internally.
func (m *MS) Answer(env *sim.Env) {
	if m.state != MSRinging {
		return
	}
	m.state = MSInCall
	env.Send(m.cfg.ID, m.cfg.BTS, Connect{Leg: LegUm, MS: m.cfg.ID, CallRef: m.callRef})
	m.startTalking(env)
	if m.cfg.Hooks.OnConnected != nil {
		m.cfg.Hooks.OnConnected(m.callRef)
	}
}

// ReportNeighbor sends a measurement report naming a stronger neighbour
// cell, which triggers handover when the network decides so (Fig 9).
func (m *MS) ReportNeighbor(env *sim.Env, target gsmid.CGI) {
	if m.state != MSInCall {
		return
	}
	env.Send(m.cfg.ID, m.cfg.BTS, MeasurementReport{Leg: LegUm, MS: m.cfg.ID, TargetCell: target})
}

func (m *MS) requestChannel(env *sim.Env, forPaging bool) {
	m.state = MSRequestingChannel
	env.Send(m.cfg.ID, m.cfg.BTS, ChannelRequest{Leg: LegUm, MS: m.cfg.ID, ForPaging: forPaging})
}

// identity returns what the MS identifies itself as: IMSI on first contact,
// TMSI afterwards when configured.
func (m *MS) identity() gsmid.MobileIdentity {
	if m.cfg.UseTMSIAfterFirstUpdate && m.hasTMSI {
		return gsmid.ByTMSI(m.tmsi)
	}
	return gsmid.ByIMSI(m.cfg.IMSI)
}

// Receive implements sim.Node.
func (m *MS) Receive(env *sim.Env, from sim.NodeID, iface string, msg sim.Message) {
	switch t := msg.(type) {
	case ImmediateAssignment:
		m.onAssignment(env, t)
	case AuthRequest:
		// The SIM signs the challenge with Ki.
		sres := hlr.SRES(m.cfg.Ki, t.RAND)
		env.Send(m.cfg.ID, m.cfg.BTS, AuthResponse{Leg: LegUm, MS: m.cfg.ID, SRES: sres})
	case CipherModeCommand:
		env.Send(m.cfg.ID, m.cfg.BTS, CipherModeComplete{Leg: LegUm, MS: m.cfg.ID})
	case LocationUpdateAccept:
		m.tmsi = t.TMSI
		m.hasTMSI = true
		m.state = MSIdle
		m.pending = pendingNone
		m.schedulePeriodicUpdate(env)
		if m.cfg.Hooks.OnRegistered != nil {
			m.cfg.Hooks.OnRegistered(t.TMSI)
		}
	case LocationUpdateReject:
		if m.hasTMSI {
			// GSM 04.08: when the network cannot derive the identity
			// from the TMSI (e.g. a new VLR), delete it and retry the
			// location update identifying with IMSI.
			m.hasTMSI = false
			m.pending = pendingRegister
			m.requestChannel(env, false)
			return
		}
		m.state = MSDetached
		m.pending = pendingNone
		if m.cfg.Hooks.OnRegisterFailed != nil {
			m.cfg.Hooks.OnRegisterFailed()
		}
	case Alerting:
		if m.state == MSDialing {
			m.state = MSWaitAnswer
			if m.cfg.Hooks.OnAlerting != nil {
				m.cfg.Hooks.OnAlerting(t.CallRef)
			}
		}
	case Connect:
		if m.state == MSWaitAnswer || m.state == MSDialing {
			m.state = MSInCall
			m.startTalking(env)
			if m.cfg.Hooks.OnConnected != nil {
				m.cfg.Hooks.OnConnected(t.CallRef)
			}
		}
	case Setup:
		m.onIncomingSetup(env, t)
	case Paging:
		m.onPaging(env, t)
	case Release:
		// Network-initiated clearing (or answer to our Disconnect).
		m.onCleared(env, t.CallRef)
	case Disconnect:
		// Far party cleared first: respond and go idle.
		m.onCleared(env, t.CallRef)
	case *TCHFrame:
		m.onFrame(env, t)
	case TCHFrame:
		m.onFrame(env, &t)
	case HandoverCommand:
		m.onHandoverCommand(env, t)
	}
	_ = from
	_ = iface
}

// onFrame hears a downlink speech frame.
func (m *MS) onFrame(env *sim.Env, t *TCHFrame) {
	if !t.Downlink {
		return
	}
	m.rxFrames++
	if gen, ok := codec.FrameTimestamp(t.Payload); ok {
		if seq, ok := codec.FrameSeq(t.Payload); ok {
			m.media.observe(env.Now(), gen, seq)
		}
	}
	if m.cfg.Hooks.OnFrame != nil {
		m.cfg.Hooks.OnFrame(*t)
	}
}

// onCleared answers the network's Release or Disconnect for a call. The
// network leg must clear whatever the MS is doing, so ReleaseComplete always
// goes back. An MS that powered off while the call was still clearing stays
// off: the trailing Release of that call must not mark it registered again.
func (m *MS) onCleared(env *sim.Env, netRef uint32) {
	complete := ReleaseComplete{Leg: LegUm, MS: m.cfg.ID, CallRef: netRef}
	if m.state == MSDetached {
		env.Send(m.cfg.ID, m.cfg.BTS, complete)
		return
	}
	m.stopTalking()
	ref := m.callRef
	m.callRef = 0
	m.state = MSIdle
	env.Send(m.cfg.ID, m.cfg.BTS, complete)
	if m.cfg.Hooks.OnReleased != nil {
		m.cfg.Hooks.OnReleased(ref)
	}
}

func (m *MS) onAssignment(env *sim.Env, t ImmediateAssignment) {
	if m.state != MSRequestingChannel {
		return
	}
	if t.Rejected {
		if m.cfg.Hooks.OnBlocked != nil {
			m.cfg.Hooks.OnBlocked()
		}
		// Random-access congestion: back off and retry, as GSM 04.08
		// access control does, up to the retry budget.
		if m.pending == pendingRegister && m.retries < m.maxRetries() {
			m.retries++
			backoff := time.Duration(m.retries) * 200 * time.Millisecond
			backoff += time.Duration(env.Rand().Int63n(int64(200 * time.Millisecond)))
			pending := m.pending
			env.After(backoff, func() {
				if m.state == MSRequestingChannel && m.pending == pendingNone {
					m.pending = pending
					env.Send(m.cfg.ID, m.cfg.BTS, ChannelRequest{Leg: LegUm, MS: m.cfg.ID})
				}
			})
			m.pending = pendingNone
			return
		}
		// A failed registration leaves the MS detached; a blocked call
		// attempt returns a registered MS to idle.
		if m.pending == pendingRegister {
			m.state = MSDetached
			if m.cfg.Hooks.OnRegisterFailed != nil {
				m.cfg.Hooks.OnRegisterFailed()
			}
		} else {
			m.state = MSIdle
		}
		m.pending = pendingNone
		return
	}
	m.retries = 0
	m.channel = t.Channel
	switch m.pending {
	case pendingRegister:
		m.state = MSRegistering
		env.Send(m.cfg.ID, m.cfg.BTS, LocationUpdate{
			Leg: LegUm, MS: m.cfg.ID, Identity: m.identity(), LAI: m.cfg.LAI,
		})
	case pendingDial:
		m.state = MSDialing
		m.nextRef++
		m.callRef = m.nextRef
		env.Send(m.cfg.ID, m.cfg.BTS, Setup{
			Leg: LegUm, MS: m.cfg.ID, CallRef: m.callRef,
			Called: m.dialled, Calling: m.cfg.MSISDN,
		})
	case pendingPageResponse:
		m.state = MSIdle // connected on a channel, waiting for MT Setup
		env.Send(m.cfg.ID, m.cfg.BTS, PagingResponse{
			Leg: LegUm, MS: m.cfg.ID, Identity: m.identity(),
		})
	case pendingDetach:
		env.Send(m.cfg.ID, m.cfg.BTS, IMSIDetach{
			Leg: LegUm, MS: m.cfg.ID, Identity: m.identity(),
		})
		m.state = MSDetached
		m.hasTMSI = false
	}
	m.pending = pendingNone
}

func (m *MS) onPaging(env *sim.Env, t Paging) {
	if m.state != MSIdle {
		return // busy; no paging response -> network times out
	}
	m.pending = pendingPageResponse
	m.requestChannel(env, true)
}

func (m *MS) onIncomingSetup(env *sim.Env, t Setup) {
	if m.state != MSIdle {
		return
	}
	m.callRef = t.CallRef
	m.state = MSRinging
	env.Send(m.cfg.ID, m.cfg.BTS, CallConfirmed{Leg: LegUm, MS: m.cfg.ID, CallRef: t.CallRef})
	env.Send(m.cfg.ID, m.cfg.BTS, Alerting{Leg: LegUm, MS: m.cfg.ID, CallRef: t.CallRef})
	if m.cfg.Hooks.OnIncoming != nil {
		m.cfg.Hooks.OnIncoming(t.CallRef, t.Calling)
	}
	if m.cfg.AutoAnswer {
		env.After(m.cfg.AnswerDelay, func() { m.Answer(env) })
	}
}

func (m *MS) onHandoverCommand(env *sim.Env, t HandoverCommand) {
	if m.state != MSInCall {
		return
	}
	oldBTS := m.cfg.BTS
	m.cfg.BTS = t.TargetBTS
	m.channel = t.Channel
	env.Send(m.cfg.ID, m.cfg.BTS, HandoverAccess{Leg: LegUm, MS: m.cfg.ID, CallRef: t.CallRef})
	env.Send(m.cfg.ID, m.cfg.BTS, HandoverComplete{Leg: LegUm, MS: m.cfg.ID, CallRef: t.CallRef})
	if m.cfg.Hooks.OnHandover != nil {
		m.cfg.Hooks.OnHandover(t.TargetBTS)
	}
	_ = oldBTS
}

// startTalking begins the uplink speech-frame clock.
func (m *MS) startTalking(env *sim.Env) {
	if !m.cfg.Talk || m.talking {
		return
	}
	m.talking = true
	if m.cfg.DTX && m.speech == nil {
		m.speech = codec.NewSource(env.Rand().Int63(), 0, 0)
	}
	ref := m.callRef
	var tick func()
	tick = func() {
		if !m.talking || m.callRef != ref || m.state != MSInCall {
			return
		}
		// DTX: silent frames are suppressed entirely (the vocoder's VAD);
		// the frame clock keeps running.
		if m.speech == nil || m.speech.Next() {
			m.seq++
			// The frame record is reused every interval: everything
			// downstream (BTS/BSC relay, VMSC transcode-at-arrival) copies
			// or finishes with it well inside one FrameInterval, and
			// nothing may retain it (OnFrame consumers included).
			if m.ul == nil {
				m.ul = new(uplinkFrame)
			}
			codec.FrameInto(m.ul.buf[:], env.Now(), m.seq)
			m.ul.msg = TCHFrame{
				Leg: LegUm, MS: m.cfg.ID, CallRef: ref, Seq: m.seq,
				Payload: m.ul.buf[:],
			}
			sim.SendReused(env, m.cfg.ID, m.cfg.BTS, &m.ul.msg)
		}
		env.After(m.cfg.FrameInterval, tick)
	}
	env.After(m.cfg.FrameInterval, tick)
}

func (m *MS) stopTalking() { m.talking = false }

// schedulePeriodicUpdate arms the T3212 periodic registration timer. The
// update runs only if the MS is still idle when it fires (a call or a
// movement-triggered update resets the cycle via the next accept).
func (m *MS) schedulePeriodicUpdate(env *sim.Env) {
	if m.cfg.PeriodicUpdate <= 0 {
		return
	}
	tmsiAtArm := m.tmsi
	env.After(m.cfg.PeriodicUpdate, func() {
		if m.state == MSIdle && m.tmsi == tmsiAtArm {
			_ = m.UpdateLocation(env)
		}
	})
}
