package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"vgprs/internal/gb"
	"vgprs/internal/gprs"
	"vgprs/internal/gsm"
	"vgprs/internal/gtp"
	"vgprs/internal/h323"
	"vgprs/internal/ipnet"
	"vgprs/internal/netsim"
	"vgprs/internal/q931"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
)

// codecSamples bounds the messages kept per codec family for replay.
const codecSamples = 4096

// span is one traced record. A delivery span runs from its host start to
// the next delivery's start (or the end of the wave): the destination
// node's Receive plus the engine's pop and push for it, plus any timers that
// fire before the next delivery. Note and drop records are kept for counting
// and carry no time.
type span struct {
	from, to sim.NodeID
	iface    string
	msg      sim.Message
	start    int64 // host ns since the tracer's base
	dur      int64 // host ns; 0 for notes and drops
	kind     spanKind
}

type spanKind uint8

const (
	spanDelivery spanKind = iota
	spanNote
	spanDrop
	spanInject // the driver injecting a wave, before the first delivery
)

// tracer is the bench-owned sim.Tracer. It records while a wave is open and
// is reduced (per layer, interface and codec family) when the buffer fills
// and when the pass ends.
type tracer struct {
	spans []span
	base  time.Time
	open  int // index of the delivery span still running, -1 if none
	on    bool

	red *reduction
}

// newTracer allocates the span buffer; red outlives the tracer, so several
// traced passes fold into one reduction.
func newTracer(red *reduction, buffer int) *tracer {
	return &tracer{spans: make([]span, 0, buffer), base: time.Now(), open: -1, red: red}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a wave. Until the first delivery the time belongs to the
// driver, which is injecting the wave's operations.
func (t *tracer) begin() {
	t.on = true
	t.push(span{kind: spanInject})
}

// end closes the wave and the span still running.
func (t *tracer) end() {
	t.closeOpen(t.now())
	t.on = false
}

func (t *tracer) closeOpen(now int64) {
	if t.open >= 0 {
		t.spans[t.open].dur = now - t.spans[t.open].start
		t.open = -1
	}
}

// push appends one record, reducing first when the buffer is full. The
// reduction's host time belongs to no span: the running span is closed
// before it, and the caller reads the clock after it.
func (t *tracer) push(s span) {
	if len(t.spans) == cap(t.spans) {
		t.closeOpen(t.now())
		t.reduce()
	}
	if s.kind == spanDelivery || s.kind == spanInject {
		s.start = t.now()
		t.closeOpen(s.start)
		t.open = len(t.spans)
	}
	t.spans = append(t.spans, s)
}

// Trace implements sim.Tracer.
func (t *tracer) Trace(_ time.Duration, from, to sim.NodeID, iface string, msg sim.Message) {
	if !t.on {
		return
	}
	switch {
	case strings.HasPrefix(iface, "drop:"):
		t.push(span{kind: spanDrop})
	case iface == "GMM" || iface == "RAS" || iface == "H.225":
		// Env.Note records: logical arrows of encapsulated protocols.
		t.push(span{kind: spanNote, from: from, to: to, iface: iface, msg: msg})
	default:
		t.push(span{kind: spanDelivery, from: from, to: to, iface: iface, msg: msg})
	}
}

// layerOf maps a node ID to its module. Node IDs are ROLE, ROLE-n or
// ROLE-Rn(-m) in every topology builder of netsim, and the bench driver is
// LOAD.
func layerOf(id sim.NodeID) string {
	role := string(id)
	if i := strings.IndexByte(role, '-'); i >= 0 {
		role = role[:i]
	}
	switch role {
	case "VMSC":
		return "vmsc"
	case "VLR":
		return "vlr"
	case "HLR":
		return "hlr"
	case "SGSN":
		return "gprs.sgsn"
	case "GGSN":
		return "gprs.ggsn"
	case "GK":
		return "h323.gk"
	case "GI":
		return "ipnet.router"
	case "MS":
		return "gsm.ms"
	case "BTS":
		return "gsm.bts"
	case "BSC":
		return "gsm.bsc"
	case "LOAD":
		return "driver"
	}
	return "other" // H.323 terminals: present in BuildVGPRS, outside the listed layers
}

type layerAgg struct {
	deliveries uint64
	busyNS     int64
}

type ifaceAgg struct {
	msgs  uint64
	bytes uint64
}

type linkKey struct{ from, to sim.NodeID }

// codecSample keeps up to codecSamples encoded messages of one family, a
// uniform sample of the primary region (reservoir sampling on a seeded
// stream, so the sample repeats for equal seed).
type codecSample struct {
	seen uint64
	kept [][]byte
}

// offer counts one more message of the family and returns the slot its
// encoding should be stored in, or nil when the sample passes it over.
func (c *codecSample) offer(rng *rand.Rand) *[]byte {
	c.seen++
	if len(c.kept) < codecSamples {
		c.kept = append(c.kept, nil)
		return &c.kept[len(c.kept)-1]
	}
	if j := rng.Int63n(int64(c.seen)); j < codecSamples {
		return &c.kept[j]
	}
	return nil
}

// reduction is the running fold of reduced spans.
type reduction struct {
	rng *rand.Rand

	layers map[string]*layerAgg
	ifaces map[string]*ifaceAgg
	codecs map[string]*codecSample
	links  map[linkKey]string // directed link -> interface, for the kernel replay
	nodes  map[sim.NodeID]string

	deliveries, notes, drops uint64
	unsized                  uint64
	scratch                  []byte
}

func newReduction(seed int64) *reduction {
	r := &reduction{
		rng:    rand.New(rand.NewSource(seed)),
		layers: map[string]*layerAgg{},
		ifaces: map[string]*ifaceAgg{},
		codecs: map[string]*codecSample{},
		links:  map[linkKey]string{},
		nodes:  map[sim.NodeID]string{},
	}
	for _, f := range codecFamilies {
		r.codecs[f] = &codecSample{}
	}
	return r
}

func (r *reduction) layer(id sim.NodeID) *layerAgg {
	name, ok := r.nodes[id]
	if !ok {
		name = layerOf(id)
		r.nodes[id] = name
	}
	a := r.layers[name]
	if a == nil {
		a = &layerAgg{}
		r.layers[name] = a
	}
	return a
}

// familyOf maps netsim.WireSize's family names onto the bench's.
var familyOf = map[string]string{
	"MAP": "map", "GMM": "gmm", "GTP": "gtp", "Gb": "gb",
	"RAS": "ras", "Q.931": "q931", "GSM": "gsm",
}

// reduce folds the buffered spans into the running aggregates and empties
// the buffer.
func (t *tracer) reduce() {
	r := t.red
	for i := range t.spans {
		s := &t.spans[i]
		switch s.kind {
		case spanInject:
			r.layer("LOAD").busyNS += s.dur
			continue
		case spanDrop:
			r.drops++
			continue
		}
		size, fam, ok := netsim.WireSize(s.msg)
		if !ok {
			r.unsized++
		}
		if s.kind == spanNote {
			r.notes++
		} else {
			r.deliveries++
			a := r.layer(s.to)
			a.deliveries++
			a.busyNS += s.dur
			ia := r.ifaces[s.iface]
			if ia == nil {
				ia = &ifaceAgg{}
				r.ifaces[s.iface] = ia
			}
			ia.msgs++
			ia.bytes += uint64(size)
			r.links[linkKey{s.from, s.to}] = s.iface
			if s.iface == "Gn" {
				r.offerRTP(s.msg)
			}
		}
		// Encapsulated protocols (GMM, RAS, Q.931) appear once, as the
		// note; their carriers count under the carrier's family.
		if f, ok := familyOf[fam]; ok {
			if slot := r.codecs[f].offer(r.rng); slot != nil {
				*slot = r.encode(f, s.msg)
			}
		}
	}
	for i := range t.spans {
		t.spans[i] = span{}
	}
	t.spans = t.spans[:0]
	t.open = -1
}

// offerRTP samples the RTP packet inside a Gn T-PDU, if there is one.
func (r *reduction) offerRTP(msg sim.Message) {
	var payload []byte
	switch m := msg.(type) {
	case gtp.TPDU:
		payload = m.Payload
	case *gtp.TPDU:
		payload = m.Payload
	default:
		return
	}
	pkt, err := ipnet.Unmarshal(payload)
	if err != nil || pkt.Proto != ipnet.ProtoUDP ||
		(pkt.DstPort != ipnet.PortRTP && pkt.SrcPort != ipnet.PortRTP) {
		return
	}
	if slot := r.codecs["rtp"].offer(r.rng); slot != nil {
		*slot = bytes.Clone(pkt.Payload)
	}
}

// encode returns a fresh copy of msg's wire form through its family's
// public Append entry point.
func (r *reduction) encode(family string, msg sim.Message) []byte {
	// The media fast path sends reusable pointer messages; they encode
	// exactly like their value forms.
	switch m := msg.(type) {
	case *gtp.TPDU:
		msg = *m
	case *gb.ULUnitdata:
		msg = *m
	case *gb.DLUnitdata:
		msg = *m
	}
	b, err := codecs[family].append(r.scratch[:0], msg)
	if err != nil {
		panic(fmt.Sprintf("bench: %s message %s sized by WireSize does not encode: %v", family, msg.Name(), err))
	}
	r.scratch = b
	return bytes.Clone(b)
}

// codec is one family's public encode and decode entry points.
type codec struct {
	append    func(dst []byte, msg sim.Message) ([]byte, error)
	unmarshal func(b []byte) (sim.Message, error)
}

var codecs = map[string]codec{
	"map":  {sigmap.Append, sigmap.Unmarshal},
	"gmm":  {gprs.AppendSM, gprs.UnmarshalSM},
	"gtp":  {gtp.Append, gtp.Unmarshal},
	"gb":   {gb.Append, gb.Unmarshal},
	"ras":  {h323.AppendRAS, h323.UnmarshalRAS},
	"q931": {q931.Append, q931.Unmarshal},
	"gsm":  {gsm.Append, gsm.Unmarshal},
}
