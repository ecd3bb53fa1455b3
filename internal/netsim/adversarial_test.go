package netsim

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"vgprs/internal/gb"
	"vgprs/internal/gprs"
	"vgprs/internal/gsm"
	"vgprs/internal/gtp"
	"vgprs/internal/h323"
	"vgprs/internal/ipnet"
	"vgprs/internal/isup"
	"vgprs/internal/q931"
	"vgprs/internal/rtp"
	"vgprs/internal/sigmap"
	"vgprs/internal/ss7"
)

// decoder is one protocol family's decode entry point. Decoders take bytes
// off the wire from peers the node does not control, so none of them may
// panic, whatever the input.
type decoder struct {
	family string
	decode func([]byte)
}

func allDecoders() []decoder {
	return []decoder{
		{"MAP", func(b []byte) { _, _ = sigmap.Unmarshal(b) }},
		{"Q.931", func(b []byte) { _, _ = q931.Unmarshal(b) }},
		{"ISUP", func(b []byte) { _, _ = isup.Unmarshal(b) }},
		{"GTP", func(b []byte) { _, _ = gtp.Unmarshal(b) }},
		{"Gb", func(b []byte) { _, _ = gb.Unmarshal(b) }},
		{"GMM", func(b []byte) { _, _ = gprs.UnmarshalSM(b) }},
		{"RAS", func(b []byte) { _, _ = h323.UnmarshalRAS(b) }},
		{"GSM", func(b []byte) { _, _ = gsm.Unmarshal(b) }},
		{"IP", func(b []byte) { _, _ = ipnet.Unmarshal(b) }},
		{"RTP", func(b []byte) { _, _ = rtp.Unmarshal(b) }},
		{"SS7", func(b []byte) { _, _ = ss7.UnmarshalMSU(b) }},
	}
}

// mustNotPanic runs f and reports a test failure (with the input that
// triggered it) instead of crashing the test binary if f panics.
func mustNotPanic(t *testing.T, family, mode string, input []byte, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s decoder panicked on %s input %x: %v", family, mode, input, r)
		}
	}()
	f()
}

// TestDecodersSurviveRandomGarbage throws seeded random byte strings of
// every length 0..64 at every protocol decoder. Decoders parse attacker-
// controlled bytes; returning an error is fine, panicking is not.
func TestDecodersSurviveRandomGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, d := range allDecoders() {
		for length := 0; length <= 64; length++ {
			for iter := 0; iter < 40; iter++ {
				b := make([]byte, length)
				rng.Read(b)
				mustNotPanic(t, d.family, "garbage", b, func() { d.decode(b) })
			}
		}
	}
}

// harvestEncodings drives a full lifecycle (registration, MO and MT calls
// with media, clearing) and returns the wire encoding of every traced
// message, keyed by family — a corpus of structurally valid packets.
func harvestEncodings(t *testing.T) map[string][][]byte {
	t.Helper()
	n := BuildVGPRS(VGPRSOptions{Seed: 17, NumMS: 2, Talk: true})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	if err := n.MSs[0].Dial(n.Env, TerminalAlias(0)); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if err := n.MSs[0].Hangup(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)

	corpus := make(map[string][][]byte)
	add := func(family string, b []byte, err error) {
		if err == nil {
			corpus[family] = append(corpus[family], b)
		}
	}
	for _, e := range n.Rec.Entries() {
		switch m := e.Msg.(type) {
		case ipnet.Packet:
			add("IP", m.Marshal(), nil)
		case q931.Setup, q931.CallProceeding, q931.Alerting, q931.Connect,
			q931.ReleaseComplete:
			b, err := q931.Marshal(e.Msg)
			add("Q.931", b, err)
		case gtp.CreatePDPRequest, gtp.CreatePDPResponse,
			gtp.DeletePDPRequest, gtp.DeletePDPResponse, gtp.TPDU:
			b, err := gtp.Marshal(e.Msg)
			add("GTP", b, err)
		case gb.ULUnitdata, gb.DLUnitdata:
			b, err := gb.Marshal(e.Msg)
			add("Gb", b, err)
		default:
			if b, err := sigmap.Marshal(e.Msg); err == nil {
				add("MAP", b, nil)
			} else if b, err := h323.MarshalRAS(e.Msg); err == nil {
				add("RAS", b, nil)
			} else if b, err := gprs.MarshalSM(e.Msg); err == nil {
				add("GMM", b, nil)
			} else if b, err := gsm.Marshal(e.Msg); err == nil {
				add("GSM", b, nil)
			}
		}
	}
	// Families the vGPRS trace does not carry directly: a representative
	// ISUP IAM, an RTP packet, and an SS7 MSU.
	b, err := isup.Marshal(isup.IAM{CIC: 7, Called: "0912345678", Calling: "044123"})
	add("ISUP", b, err)
	add("RTP", rtp.Packet{PayloadType: rtp.PayloadTypeGSM, Seq: 9, Timestamp: 160,
		SSRC: 0xDEAD, Payload: []byte("frame")}.Marshal(), nil)
	add("SS7", ss7.MSU{OPC: 1, DPC: 2, SLS: 3, Payload: []byte{1, 2, 3}}.Marshal(), nil)
	return corpus
}

// TestDecodersSurviveTruncation feeds every prefix of every harvested valid
// encoding back to its own decoder: short reads must surface as errors, not
// panics or misparses that crash later.
func TestDecodersSurviveTruncation(t *testing.T) {
	corpus := harvestEncodings(t)
	decoders := map[string]decoder{}
	for _, d := range allDecoders() {
		decoders[d.family] = d
	}
	for family, packets := range corpus {
		d, ok := decoders[family]
		if !ok {
			t.Fatalf("no decoder registered for family %q", family)
		}
		if len(packets) == 0 {
			t.Errorf("no harvested packets for family %q", family)
		}
		for _, pkt := range packets {
			for cut := 0; cut < len(pkt); cut++ {
				mustNotPanic(t, family, "truncated", pkt[:cut], func() { d.decode(pkt[:cut]) })
			}
		}
	}
}

// corruption is one input TestDecodersSurviveCorruption decodes: a
// harvested packet of the family with seeded random bytes flipped.
type corruption struct {
	family string
	input  []byte
}

// corruptions derives the corrupted inputs from the corpus, in a fixed
// order: families sorted by name, at most 25 packets each, 30 trials a
// packet with 1–3 bytes flipped from one seeded stream. A panic it finds
// replays from the seed alone.
func corruptions(corpus map[string][][]byte, seed int64) []corruption {
	rng := rand.New(rand.NewSource(seed))
	families := make([]string, 0, len(corpus))
	for family := range corpus {
		families = append(families, family)
	}
	slices.Sort(families)
	var out []corruption
	for _, family := range families {
		for i, pkt := range corpus[family] {
			// Bound the per-family work; the corpus repeats structures.
			if i >= 25 {
				break
			}
			for trial := 0; trial < 30; trial++ {
				b := slices.Clone(pkt)
				if len(b) > 0 {
					flips := 1 + rng.Intn(3)
					for f := 0; f < flips; f++ {
						b[rng.Intn(len(b))] ^= byte(1 + rng.Intn(255))
					}
				}
				out = append(out, corruption{family, b})
			}
		}
	}
	return out
}

// TestDecodersSurviveCorruption flips seeded random bytes in harvested
// valid encodings and decodes the result with every decoder — both the
// packet's own (bit errors on its link) and the others (misdelivery to the
// wrong port/SAP). No combination may panic.
func TestDecodersSurviveCorruption(t *testing.T) {
	all := allDecoders()
	for _, c := range corruptions(harvestEncodings(t), 99) {
		for _, d := range all {
			mustNotPanic(t, d.family, "corrupted-"+c.family, c.input, func() { d.decode(c.input) })
		}
	}
}

// TestCorruptionsReplay derives the corrupted inputs twice, each from its
// own harvest, and requires the same sequence: a run that ranged over the
// corpus map would flip bytes in a different order each time.
func TestCorruptionsReplay(t *testing.T) {
	a := corruptions(harvestEncodings(t), 99)
	b := corruptions(harvestEncodings(t), 99)
	if len(a) != len(b) {
		t.Fatalf("%d inputs, then %d", len(a), len(b))
	}
	for i := range a {
		if a[i].family != b[i].family || !bytes.Equal(a[i].input, b[i].input) {
			t.Fatalf("input %d: %s %x, then %s %x", i, a[i].family, a[i].input, b[i].family, b[i].input)
		}
	}
}
