// Package load is the load-generation subsystem behind cmd/slload: the
// instrument that turns "faster" claims into tail-latency evidence. Where
// go test -bench measures *means* of hot paths in a tight loop, this package
// measures *quantiles* (p50/p95/p99) of a configurable workload — skewed key
// distributions, open-loop (arrival-paced) or closed-loop (worker-paced)
// request generation, warmup/measure phasing, and graceful drain — against
// whatever operation the caller supplies (in-process registry dispatch, live
// HTTP, anything with the Op signature).
//
// The pieces:
//
//   - KeySpec / KeyGen (keys.go): deterministic key-index generators —
//     uniform, hot-key (a small hot set absorbs a configured fraction of
//     traffic), and zipfian — seeded explicitly so runs replay the same key
//     sequence byte-for-byte.
//   - Pacer / Pace (pacer.go): open-loop arrival schedules, fixed-rate or
//     Poisson, driven through a Clock so tests can verify offered rate under
//     a simulated clock.
//   - Reservoir (reservoir.go): fixed-capacity per-worker latency sampling
//     (algorithm R) with weighted cross-worker quantile merging, bounding
//     allocations no matter how long the run is.
//   - Config / Run (runner.go): the run controller — warmup, measure, drain —
//     producing a Result with quantiles, throughput, and error counts.
//   - Summary (summary.go): the one-line machine-readable record (schema
//     slload/v5) cmd/slload emits.
//
// Open loop vs closed loop, in one paragraph: a closed-loop run has W
// workers each issuing the next request as soon as the previous one
// completes, so the offered load adapts to the system — a slow server is
// politely offered less, which hides queueing collapse. An open-loop run
// schedules arrivals on a clock at a fixed offered rate regardless of
// completions, and measures latency from the *scheduled arrival* (not
// dispatch), so time spent queued behind a stalled server counts — the
// coordinated-omission-free number production p99s are made of. Both modes
// matter: closed-loop gives peak sustainable throughput, open-loop gives
// honest latency at a given rate.
package load

import (
	"fmt"
	"math/rand"
)

// Dist names a key distribution.
type Dist string

// Supported key distributions.
const (
	// DistUniform draws keys uniformly over the keyspace.
	DistUniform Dist = "uniform"
	// DistHotKey sends HotFrac of the traffic to the first HotKeys keys and
	// spreads the rest uniformly over the remainder.
	DistHotKey Dist = "hotkey"
	// DistZipf draws keys from a zipfian distribution with exponent ZipfS
	// (rank 0 hottest).
	DistZipf Dist = "zipfian"
)

// Dists lists the supported distributions in stable order.
func Dists() []Dist { return []Dist{DistUniform, DistHotKey, DistZipf} }

// KeyGen produces a deterministic stream of key indices in [0, Keys). It is
// not safe for concurrent use: each worker owns one generator, derived from
// the run seed and the worker index, so the per-worker key sequence is
// reproducible regardless of scheduling.
type KeyGen interface {
	// Next returns the next key index.
	Next() int
}

// KeySpec describes a key distribution over a finite keyspace.
type KeySpec struct {
	// Dist selects the distribution.
	Dist Dist
	// Keys is the keyspace size; indices are 0..Keys-1.
	Keys int
	// HotFrac is the fraction of draws landing in the hot set (hotkey only).
	// Defaults to 0.9.
	HotFrac float64
	// HotKeys is the hot-set size (hotkey only). Defaults to 1.
	HotKeys int
	// ZipfS is the zipfian exponent s > 1 (zipfian only). Defaults to 1.1.
	ZipfS float64
}

// withDefaults returns the spec with zero fields replaced by defaults.
func (s KeySpec) withDefaults() KeySpec {
	if s.HotFrac == 0 {
		s.HotFrac = 0.9
	}
	if s.HotKeys == 0 {
		s.HotKeys = 1
	}
	if s.ZipfS == 0 {
		s.ZipfS = 1.1
	}
	return s
}

// Validate reports whether the spec is well-formed.
func (s KeySpec) Validate() error {
	s = s.withDefaults()
	if s.Keys <= 0 {
		return fmt.Errorf("load: keyspace must be positive, got %d", s.Keys)
	}
	switch s.Dist {
	case DistUniform:
	case DistHotKey:
		if s.HotFrac < 0 || s.HotFrac > 1 {
			return fmt.Errorf("load: hot fraction must be in [0,1], got %g", s.HotFrac)
		}
		if s.HotKeys < 1 || s.HotKeys > s.Keys {
			return fmt.Errorf("load: hot-set size must be in [1,%d], got %d", s.Keys, s.HotKeys)
		}
	case DistZipf:
		if s.ZipfS <= 1 {
			return fmt.Errorf("load: zipf exponent must be > 1, got %g", s.ZipfS)
		}
	default:
		return fmt.Errorf("load: unknown distribution %q (supported: %v)", s.Dist, Dists())
	}
	return nil
}

// New builds a generator for the spec, deterministic in seed.
func (s KeySpec) New(seed int64) (KeyGen, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s = s.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	switch s.Dist {
	case DistUniform:
		return &uniformGen{rng: rng, keys: s.Keys}, nil
	case DistHotKey:
		return &hotKeyGen{rng: rng, keys: s.Keys, hotFrac: s.HotFrac, hotKeys: s.HotKeys}, nil
	case DistZipf:
		return &zipfGen{z: rand.NewZipf(rng, s.ZipfS, 1, uint64(s.Keys-1))}, nil
	}
	panic("unreachable: Validate admitted unknown distribution")
}

// uniformGen draws uniformly over [0, keys).
type uniformGen struct {
	rng  *rand.Rand
	keys int
}

// Next implements KeyGen.
func (g *uniformGen) Next() int { return g.rng.Intn(g.keys) }

// hotKeyGen sends hotFrac of draws to keys [0, hotKeys) and the rest
// uniformly to [hotKeys, keys); with hotKeys == keys every draw is "hot" and
// the distribution degenerates to uniform.
type hotKeyGen struct {
	rng     *rand.Rand
	keys    int
	hotFrac float64
	hotKeys int
}

// Next implements KeyGen.
func (g *hotKeyGen) Next() int {
	if g.hotKeys == g.keys || g.rng.Float64() < g.hotFrac {
		return g.rng.Intn(g.hotKeys)
	}
	return g.hotKeys + g.rng.Intn(g.keys-g.hotKeys)
}

// zipfGen draws zipfian-ranked keys: key 0 is the hottest.
type zipfGen struct {
	z *rand.Zipf
}

// Next implements KeyGen.
func (g *zipfGen) Next() int { return int(g.z.Uint64()) }
