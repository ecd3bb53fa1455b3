// Package codec models the vocoder of the vGPRS media plane. The paper's
// VMSC translates circuit-switched voice into VoIP packets "through vocoder
// and packet control unit"; this package provides the GSM full-rate frame
// model (33 bytes / 20 ms / 13 kb/s), transparent FR<->RTP transcoding that
// preserves the measurement timestamp embedded in each frame, and a
// two-state talk-spurt source (Brady model) for load generation.
//
// Substitution note: a real GSM 06.10 RPE-LTP codec transforms speech
// samples; for the paper's architecture experiments only frame timing, size
// and path matter, so frames carry a generation timestamp and sequence
// number instead of audio. The transcoding hops are transparent, which is
// what lets the mouth-to-ear benches (experiment C3) measure one-way delay
// end to end.
package codec

import (
	"encoding/binary"
	"math/rand"
	"time"
)

// GSM full-rate codec parameters (GSM 06.10).
const (
	// FrameBytes is the encoded size of one FR frame.
	FrameBytes = 33
	// FrameDuration is the speech interval one frame covers.
	FrameDuration = 20 * time.Millisecond
	// BitRateBps is the resulting codec rate (13 kb/s).
	BitRateBps = 13000
)

// NewFrame builds an FR-sized frame carrying the generation time and
// sequence number for end-to-end delay measurement.
func NewFrame(now time.Duration, seq uint32) []byte {
	p := make([]byte, FrameBytes)
	binary.BigEndian.PutUint64(p, uint64(now))
	binary.BigEndian.PutUint32(p[8:], seq)
	return p
}

// FrameInto writes an FR frame into dst, which must be at least FrameBytes
// long. It is the allocation-free form of NewFrame for steady-state talk
// paths that reuse a per-call buffer every frame interval.
func FrameInto(dst []byte, now time.Duration, seq uint32) {
	_ = dst[:FrameBytes]
	binary.BigEndian.PutUint64(dst, uint64(now))
	binary.BigEndian.PutUint32(dst[8:], seq)
	for i := 12; i < FrameBytes; i++ {
		dst[i] = 0
	}
}

// FrameTimestamp extracts the generation time embedded by NewFrame.
func FrameTimestamp(frame []byte) (time.Duration, bool) {
	if len(frame) < 8 {
		return 0, false
	}
	return time.Duration(binary.BigEndian.Uint64(frame)), true
}

// FrameSeq extracts the sequence number embedded by NewFrame.
func FrameSeq(frame []byte) (uint32, bool) {
	if len(frame) < 12 {
		return 0, false
	}
	return binary.BigEndian.Uint32(frame[8:]), true
}

// Transcode converts between the circuit-switched FR frame and the RTP
// payload form. The VMSC applies it in both directions; it is transparent
// (byte-preserving) so embedded timestamps survive, but it is a distinct
// step so benches can charge it a per-frame processing cost.
func Transcode(frame []byte) []byte {
	out := make([]byte, len(frame))
	copy(out, frame)
	return out
}

// TranscodeInto is the allocation-free form of Transcode: it copies the
// frame into dst (which must be large enough) and returns the frame length,
// letting the VMSC relay legs reuse one buffer per call per direction.
func TranscodeInto(dst, frame []byte) int {
	return copy(dst[:len(frame)], frame)
}

// TranscodeCost is the per-frame processing delay the VMSC's vocoder adds
// in each direction. GSM 06.10 encoders are well under a millisecond of
// algorithmic delay on period hardware; 500µs is the reproduction's default.
const TranscodeCost = 500 * time.Microsecond

// Source is a two-state (talk/silence) speech activity model with
// exponentially distributed state holding times — the classic Brady voice
// model. It decides, frame by frame, whether a frame is speech or silence;
// silent frames are suppressed (VAD/DTX), which shapes media load in the
// C3 experiment.
type Source struct {
	rng *rand.Rand
	// MeanTalk and MeanSilence are the average state durations.
	MeanTalk    time.Duration
	MeanSilence time.Duration

	talking   bool
	remaining time.Duration
}

// NewSource returns a source seeded for reproducibility. Zero durations
// default to the Brady parameters (1.0 s talk, 1.35 s silence).
func NewSource(seed int64, meanTalk, meanSilence time.Duration) *Source {
	if meanTalk == 0 {
		meanTalk = time.Second
	}
	if meanSilence == 0 {
		meanSilence = 1350 * time.Millisecond
	}
	return &Source{
		rng:         rand.New(rand.NewSource(seed)),
		MeanTalk:    meanTalk,
		MeanSilence: meanSilence,
		// Next flips state before drawing the first holding time, so
		// starting from "silence" makes the first spurt a talk spurt —
		// a conversation begins with speech, and media-path tests see
		// frames immediately.
		talking: false,
	}
}

// minSpurt is the shortest talk spurt the model produces; utterances
// shorter than ~200 ms are not phonetically meaningful, and the floor also
// guarantees media flows promptly after a call connects for every seed.
const minSpurt = 200 * time.Millisecond

// Next advances one frame interval and reports whether this frame is
// speech.
func (s *Source) Next() bool {
	for s.remaining <= 0 {
		s.talking = !s.talking
		mean := s.MeanTalk
		if !s.talking {
			mean = s.MeanSilence
		}
		s.remaining = time.Duration(s.rng.ExpFloat64() * float64(mean))
		if s.talking && s.remaining < minSpurt {
			s.remaining = minSpurt
		}
	}
	s.remaining -= FrameDuration
	return s.talking
}
