package sim

import "math/rand"

// Per-context random streams.
//
// Env.Rand() hands out one independent stream per scheduling context (per
// node, plus one root stream for draws made outside a run). Derivation:
//
//	streamSeed(ctx) = mix64(uint64(rootSeed) ^ (uint64(ctx+1) * golden))
//
// where golden is 2^64/phi (the splitmix64 gamma) and mix64 is the
// splitmix64 finalizer. The stream itself is a splitmix64 generator over
// that seed. The derivation depends only on the root seed and the node's
// registration index, and each context owns its stream exclusively, so a
// node's draw sequence is a function of its own history alone: extra draws
// in one node never shift another's.
//
// A stream is 8 bytes of state and is created lazily on first draw, so
// large populations of nodes that never draw cost nothing — unlike
// math/rand's default source (~5 KB each), which would blow the engine's
// allocation budget at million-node scale.
type stream struct {
	state uint64
}

const golden = 0x9E3779B97F4A7C15 // 2^64 / phi, the splitmix64 gamma

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// newStream derives the context's generator from the root seed.
func newStream(rootSeed int64, ctx int32) *stream {
	return &stream{state: mix64(uint64(rootSeed) ^ (uint64(ctx+1) * golden))}
}

var _ rand.Source64 = (*stream)(nil)

func (s *stream) Uint64() uint64 {
	s.state += golden
	return mix64(s.state)
}

func (s *stream) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *stream) Seed(seed int64) { s.state = mix64(uint64(seed)) }
