package ctlplane

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"opalperf/internal/harness"
	"opalperf/internal/molecule"
	"opalperf/internal/schema"
)

// JobSpec is the wire form of one run submission.  Everything except
// Tenant participates in the canonical identity of the run: determinism
// of the virtual-time kernel makes two canonically equal specs produce
// bit-identical results, which is what lets the store deduplicate them.
type JobSpec struct {
	// Tenant names the submitting tenant; it rides on the submission for
	// quota accounting but is excluded from the canonical hash, so the
	// same physical run submitted by two tenants coalesces onto one
	// execution.
	Tenant string `json:"tenant,omitempty"`

	// Zero values mean "unset": Canonicalize fills in the run schema's
	// defaults (harness.Config's tags).
	Platform    string  `json:"platform,omitempty"`
	Size        string  `json:"size,omitempty"` // small, medium, large
	Scale       float64 `json:"scale,omitempty"`
	Servers     int     `json:"servers"` // 0 = serial Opal 2.6
	Steps       int     `json:"steps"`   // required, > 0
	Cutoff      float64 `json:"cutoff,omitempty"`
	UpdateEvery int     `json:"update_every,omitempty"`
	Strategy    string  `json:"strategy,omitempty"`
	Seed        int64   `json:"seed,omitempty"`       // pair-distribution seed
	Dynamics    bool    `json:"dynamics,omitempty"`   // leapfrog instead of minimization
	SelfHeal    bool    `json:"self_heal,omitempty"`  // supervised self-healing fleet
	FaultRate   float64 `json:"fault_rate,omitempty"` // seeded chaos injection
	FaultSeed   uint64  `json:"fault_seed,omitempty"`
}

// Limits bound what a single submission may ask for; the zero value
// applies the service defaults.
type Limits struct {
	MaxSteps   int // default 10000
	MaxServers int // default 64
}

func (l Limits) withDefaults() Limits {
	if l.MaxSteps <= 0 {
		l.MaxSteps = 10000
	}
	if l.MaxServers <= 0 {
		l.MaxServers = 64
	}
	return l
}

// Canonicalize validates the spec against the limits and returns its
// canonical form: names trimmed and lower-cased, tenant cleared, and every
// unset field holding its default.  The defaults, ranges and cross-field
// rules are the run schema's (harness.Config): the spec projects onto a
// Config, takes the tag defaults, passes Config.Validate and the service
// limits, and the filled-in fields project back.  Two submissions that
// canonicalize equal are the same run.
func (s JobSpec) Canonicalize(lim Limits) (JobSpec, error) {
	lim = lim.withDefaults()
	c := s
	c.Tenant = ""
	c.Platform = strings.ToLower(strings.TrimSpace(c.Platform))
	c.Size = strings.ToLower(strings.TrimSpace(c.Size))
	c.Strategy = strings.ToLower(strings.TrimSpace(c.Strategy))
	cfg := c.config()
	schema.Fill(&cfg)
	if err := cfg.Validate(); err != nil {
		return JobSpec{}, fmt.Errorf("ctlplane: %w", err)
	}
	if c.Steps > lim.MaxSteps {
		return JobSpec{}, fmt.Errorf("ctlplane: steps %d outside [1, %d]", c.Steps, lim.MaxSteps)
	}
	if c.Servers > lim.MaxServers {
		return JobSpec{}, fmt.Errorf("ctlplane: servers %d outside [0, %d]", c.Servers, lim.MaxServers)
	}
	f, o := &cfg.Fleet, &cfg.Options
	c.Platform, c.Size, c.Scale = f.Platform, f.Size, f.Scale
	c.Cutoff, c.UpdateEvery, c.Strategy = o.Cutoff, o.UpdateEvery, o.Strategy
	return c, nil
}

// config projects the spec onto the run schema.  A job runs accounted
// unless it self-heals (heal-time calls bypass the phase barriers), and
// minimizes unless it asks for dynamics.
func (s JobSpec) config() harness.Config {
	cfg := harness.Config{
		Fleet: harness.Fleet{Platform: s.Platform, Size: s.Size, Scale: s.Scale, Servers: s.Servers, Steps: s.Steps},
		Options: harness.OptionsSpec{
			Cutoff: s.Cutoff, UpdateEvery: s.UpdateEvery, Strategy: s.Strategy, Seed: s.Seed,
			Accounting: !s.SelfHeal, Minimize: !s.Dynamics, SelfHeal: s.SelfHeal,
		},
	}
	if s.FaultRate != 0 {
		cfg.Faults = &harness.FaultSpec{Seed: s.FaultSeed, Rate: s.FaultRate}
	}
	return cfg
}

// Hash returns the canonical identity of an already-canonicalized spec:
// a truncated SHA-256 of its field-ordered JSON rendering (tenant
// excluded by canonicalization).  The JSON layer makes the rules
// auditable — GET /v1/runs/{id} echoes the canonical spec it hashed.
func (s JobSpec) Hash() string {
	s.Tenant = ""
	b, err := json.Marshal(s)
	if err != nil {
		// A JobSpec of plain scalars cannot fail to marshal.
		panic(fmt.Sprintf("ctlplane: hash marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// systemCache memoizes generated molecular systems, one entry per (size,
// scale), each filled once and outside the cache's lock: a never-seen key
// generates only the complex it names, its concurrent askers wait on that
// entry alone, and requests for warm keys pass straight through.  At most
// maxCacheKeys entries are kept; an evicted entry still being generated
// serves the askers already waiting on it.  Canonical specs share systems
// freely because runs never mutate their input system.
type systemCache struct {
	// gen generates one entry's system; harness.Size outside tests.
	gen func(size string, scale float64) (*molecule.System, error)

	mu      sync.Mutex
	entries fifoMap[systemKey, func() (*molecule.System, error)]
}

type systemKey struct {
	size  string
	scale float64
}

func newSystemCache() *systemCache { return &systemCache{gen: harness.Size} }

func (c *systemCache) get(size string, scale float64) (*molecule.System, error) {
	k := systemKey{size, scale}
	c.mu.Lock()
	entry, ok := c.entries.get(k)
	if !ok {
		entry = sync.OnceValues(func() (*molecule.System, error) { return c.gen(size, scale) })
		c.entries.put(k, entry)
	}
	c.mu.Unlock()
	return entry()
}

// maxCacheKeys bounds the system and machine caches.  Every distinct scale
// a client names is a key, so without a bound any tenant could grow the
// daemon's heap for its whole life (~145 KB a key).
const maxCacheKeys = 64

// fifoMap is a map of at most maxCacheKeys keys that drops the oldest
// inserted to make room.  Its owner holds the lock.
type fifoMap[K comparable, V any] struct {
	m     map[K]V
	order []K // insertion order, oldest first
}

func (f *fifoMap[K, V]) get(k K) (V, bool) {
	v, ok := f.m[k]
	return v, ok
}

// put inserts a key the map does not hold.
func (f *fifoMap[K, V]) put(k K, v V) {
	if f.m == nil {
		f.m = map[K]V{}
	}
	if len(f.order) == maxCacheKeys {
		delete(f.m, f.order[0])
		f.order = append(f.order[:0], f.order[1:]...)
	}
	f.order = append(f.order, k)
	f.m[k] = v
}

// runSpec compiles a canonical JobSpec onto the harness, sharing systems
// through the cache.  The caller owns the returned spec and may attach
// checkpoint sinks and cancellation hooks before running it.
func (s JobSpec) runSpec(systems *systemCache) (harness.RunSpec, error) {
	sys, err := systems.get(s.Size, s.Scale)
	if err != nil {
		return harness.RunSpec{}, fmt.Errorf("ctlplane: %w", err)
	}
	return s.config().RunSpec(sys)
}
