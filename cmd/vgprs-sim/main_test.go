package main

import (
	"fmt"
	"strings"
	"testing"

	"vgprs/internal/trace"
)

// TestEveryScenarioRuns runs each named scenario end to end at seeds 1 and 3
// and pins its printed trace: a trace.Digest streams the printed lines, and
// its Sum must equal the committed digest, so a reordered, re-timed, added or
// dropped message in any figure's flow fails here. The lossless flows draw nothing from the seed, so
// both seeds share one digest; a run that starts to depend on it fails too.
func TestEveryScenarioRuns(t *testing.T) {
	digests := map[string]string{
		"registration":    "391d58523c83ac23cb647e61b59b618f7e85991071146d12d27ffc9481248c09",
		"mo-call":         "8b30abcaeb0e59781abbc47e656c99e42e028aaf7c5ec4e365d4ef421c780a71",
		"mt-call":         "5f388011d7f7c6c95356fbb7c801310dc809592499561267a8a59374bebf50cd",
		"trombone-gsm":    "e347940005772128654f4b2268efb113a79003ef01759a117f3dd7638ed9d2eb",
		"trombone-vgprs":  "b79ad0c74c2bc06b808d038393e9302a638758314e0a57535477378fc1a54db3",
		"fallback":        "cd064f4eaf38b3bb9f50e831193f8acbbe0b48ef4714d0a240e480e0b2a75eb5",
		"movement":        "7562c201d3907b1e82a2cbe62c2df9b84425cf0188b445ddcceaf3afb5b820a9",
		"handoff":         "99752c07cc3f2722bb5f11e3f11960cf923e3316862444c6a79f089b18ec8412",
		"handback":        "10b15e8f04f643ddea09df0a94bc8838d322da89275f8f0b3ae1091892713f37",
		"handoff-vmsc":    "ff137041852d55800e1b5549d64e66f9365d1a569d3f1b9d328a51d3462a5304",
		"tr-registration": "e7ceef6a0dfbfcbc04cf3cb937f5811aeb96aa8e4c9b2f09f756ecf38f4c7141",
		"tr-mo-call":      "64fbd65d4639bfa15e2341a6f8b3af07894ef68de75b2c994b4f9e00fd9c6b8f",
		"tr-mt-call":      "43acbf733f13f3586bda4191d6d0605b77303ee1b0affa5df03ebd3dd60e8f50",
	}
	for name, want := range digests {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{1, 3} {
				d := trace.NewDigest()
				if err := runScenario(name, seed, d); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if got := d.Sum(); got != want {
					t.Errorf("seed %d: trace digest %s, want %s (%d messages)", seed, got, want, d.Len())
				}
			}
		})
	}
}

// TestPrintTrace checks the printout the digests stand for: under its header,
// which counts the messages, vgprs-sim prints one line for each delivery a
// digest of the same run hashes.
func TestPrintTrace(t *testing.T) {
	var out strings.Builder
	if err := printTrace(&out, "mo-call", 3); err != nil {
		t.Fatal(err)
	}
	d := trace.NewDigest()
	if err := runScenario("mo-call", 3, d); err != nil {
		t.Fatal(err)
	}
	header, body, _ := strings.Cut(out.String(), "\n")
	if want := fmt.Sprintf("=== scenario \"mo-call\" (seed 3): %d messages ===", d.Len()); header != want {
		t.Errorf("header %q, want %q", header, want)
	}
	if lines := strings.Count(body, "\n"); lines != d.Len() {
		t.Errorf("%d trace lines printed, the digest hashed %d", lines, d.Len())
	}
}

func TestUnknownScenarioErrors(t *testing.T) {
	if err := runScenario("nope", 1, nil); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}
