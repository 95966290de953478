// Package splitmix derives independent, reproducible random streams
// from one scenario seed. Every seeded component that needs more than
// one RNG — the shared-medium simulator's per-sender schedules
// (internal/medium), the fault injector's schedule, jam-noise and
// reverse-path streams (internal/channel), and the ARQ session's
// timing jitter and its harness's collision draws (internal/reliable) —
// splits its streams through this package, so "stream k of seed s"
// means the same thing everywhere and adjacent seeds never correlate.
//
// The derivation is the splitmix64 finalizer over seed + (stream+1)·φ
// (the 64-bit golden-ratio increment). It is stateless: deriving stream
// k never consumes randomness from any other stream, which is what lets
// the event-driven medium admit senders lazily in schedule order while
// reproducing the dense reference bit-for-bit.
package splitmix

import "math/rand"

// NoiseStream is the conventional stream index of a component's
// receiver/jam noise source: senders occupy streams 0..N-1, the noise
// that is added after every sender's contribution lives at -1.
const NoiseStream = -1

// ReverseStream is the conventional stream index of reverse-path
// (WiFi→ZigBee downlink) fault draws: ack loss lives on its own stream
// so toggling reverse faults never shifts the forward loss/burst
// schedule, and vice versa.
const ReverseStream = -2

// CollisionStream is the conventional stream index of full-duplex
// collision draws: whether a forward frame and an overlapping
// reverse-channel transmission destroy each other is decided on this
// stream, independent of both the forward fault schedule and the
// reverse loss schedule.
const CollisionStream = -3

// ScheduleStream is the conventional stream index of forward-path
// fault-schedule draws (frame loss): the fault injector's per-frame
// loss uniforms live here, so the forward schedule is decorrelated
// from adjacent scenario seeds just like every side stream.
const ScheduleStream = -4

// JitterStream is the conventional stream index of protocol-timing
// draws: the ARQ session's retransmission jitter lives on its own
// stream, so timing randomization never perturbs (or is perturbed by)
// the channel fault schedules derived from the same seed.
const JitterStream = -5

// Split derives stream's private seed from the scenario seed.
// Stream -1 (NoiseStream) maps to the raw finalizer of seed itself.
func Split(seed int64, stream int) int64 {
	z := uint64(seed) + uint64(stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// New returns a math/rand generator seeded with Split(seed, stream).
func New(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(Split(seed, stream)))
}
