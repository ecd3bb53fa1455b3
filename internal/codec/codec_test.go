package codec

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	f := NewFrame(123*time.Millisecond, 42)
	if len(f) != FrameBytes {
		t.Fatalf("frame len = %d, want %d", len(f), FrameBytes)
	}
	ts, ok := FrameTimestamp(f)
	if !ok || ts != 123*time.Millisecond {
		t.Fatalf("timestamp = %v/%v", ts, ok)
	}
	seq, ok := FrameSeq(f)
	if !ok || seq != 42 {
		t.Fatalf("seq = %d/%v", seq, ok)
	}
}

func TestFrameShortInputs(t *testing.T) {
	if _, ok := FrameTimestamp([]byte{1, 2}); ok {
		t.Error("short timestamp decoded")
	}
	if _, ok := FrameSeq(make([]byte, 10)); ok {
		t.Error("short seq decoded")
	}
}

func TestTranscodePreservesBytesAndCopies(t *testing.T) {
	f := NewFrame(time.Second, 7)
	out := Transcode(f)
	ts, _ := FrameTimestamp(out)
	if ts != time.Second {
		t.Fatal("transcode lost the timestamp")
	}
	out[0] = 0xFF
	if f[0] == 0xFF {
		t.Fatal("transcode must copy, not alias")
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	prop := func(nanos int64, seq uint32) bool {
		if nanos < 0 {
			nanos = -nanos
		}
		f := NewFrame(time.Duration(nanos), seq)
		ts, ok1 := FrameTimestamp(f)
		s, ok2 := FrameSeq(f)
		return ok1 && ok2 && ts == time.Duration(nanos) && s == seq
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitrateConsistency(t *testing.T) {
	// 33 bytes per 20 ms = 13.2 kb/s gross; the nominal codec rate is
	// 13.0 kb/s (260 bits of the 264 carried are speech).
	gross := float64(FrameBytes*8) / FrameDuration.Seconds()
	if gross < 13000 || gross > 13500 {
		t.Fatalf("gross bitrate %f out of FR range", gross)
	}
}

func TestSourceAlternates(t *testing.T) {
	s := NewSource(1, 200*time.Millisecond, 200*time.Millisecond)
	talk, silence := 0, 0
	for range 10000 {
		if s.Next() {
			talk++
		} else {
			silence++
		}
	}
	if talk == 0 || silence == 0 {
		t.Fatalf("source never alternated: talk=%d silence=%d", talk, silence)
	}
	// With equal means, activity should be near 50%.
	ratio := float64(talk) / 10000
	if math.Abs(ratio-0.5) > 0.15 {
		t.Fatalf("activity ratio = %f, want ~0.5", ratio)
	}
}

func TestSourceSeedStable(t *testing.T) {
	a := NewSource(7, 0, 0)
	b := NewSource(7, 0, 0)
	for i := range 500 {
		if a.Next() != b.Next() {
			t.Fatalf("sources diverged at frame %d", i)
		}
	}
}

func TestSourceDefaultsAndActivity(t *testing.T) {
	s := NewSource(1, 0, 0)
	if s.MeanTalk != time.Second || s.MeanSilence != 1350*time.Millisecond {
		t.Fatalf("defaults = %v/%v", s.MeanTalk, s.MeanSilence)
	}
	// Over a long run the share of speech frames is the Brady activity
	// factor, 1.0 / 2.35 ≈ 0.43 (a little above: spurts last ≥ 200 ms).
	const frames = 100000
	talk := 0
	for range frames {
		if s.Next() {
			talk++
		}
	}
	if af := float64(talk) / frames; af < 0.40 || af > 0.46 {
		t.Fatalf("activity factor = %f, want ~0.43 (Brady)", af)
	}
}
