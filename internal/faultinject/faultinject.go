// Package faultinject provides deterministic, registry-addressable fault
// points for crash-consistency testing of the maintenance pipeline. Every
// phase boundary of a maintenance round (validate, delta propagation, deep
// union apply, state-cache commit, source refresh, snapshot build and swap)
// registers a named point at package init; tests arm a point to
// fire — as an error or a panic — on its n-th hit, run a round, and assert
// the transaction left every structure byte-identical to the pre-round
// state.
//
// Determinism: hits are counted only while a point is armed, and a point
// fires exactly once (one-shot) before disarming itself, so a retried round
// runs clean without resetting. Arming is keyed by site name; the full site
// list is enumerable via Sites(), and ArmFromSeed derives a reproducible
// (site, mode, hit) choice from an integer seed for randomized sweeps.
//
// Cost when disabled: Fire is a single atomic load returning nil — the
// production pipeline carries the points at no measurable cost, the
// compiled analogue of "no-ops when disabled".
package faultinject

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Mode selects how an armed point fires.
type Mode int

const (
	// ModeError makes Fire return a *Fault error.
	ModeError Mode = iota
	// ModePanic makes Fire panic with a *Fault value.
	ModePanic
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Fault is the injected failure: the error returned (ModeError) or the
// panic value thrown (ModePanic) by a fired point.
type Fault struct {
	Site string
	Mode Mode
	Hit  int
}

func (f *Fault) Error() string {
	return fmt.Sprintf("faultinject: %s fired (%s, hit %d)", f.Site, f.Mode, f.Hit)
}

func (f *Fault) String() string { return f.Error() }

// armedCount gates every Fire call: zero armed points means the whole
// package is inert and Fire is one atomic load.
var armedCount atomic.Int32

// Enabled reports whether any point is currently armed.
func Enabled() bool { return armedCount.Load() > 0 }

var (
	mu     sync.Mutex
	points = map[string]*Point{}
)

// Point is one registered fault site. Obtain it with Register at package
// init and call Fire at the site; all arming state lives in the package
// registry.
type Point struct {
	site string

	// guarded by mu while armed:
	armAt int // fire on the armAt-th hit (1-based); 0 = disarmed
	mode  Mode
	hits  int  // hits counted since arming
	fired bool // the point has fired since the last Reset/Arm
}

// Register returns the fault point for site, creating it on first use.
// Registration is idempotent: the same *Point is returned for a site.
func Register(site string) *Point {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[site]; ok {
		return p
	}
	p := &Point{site: site}
	points[site] = p
	return p
}

// Fire triggers the point if it is armed and this is its configured hit:
// ModeError returns a *Fault, ModePanic panics with one. Disabled or
// disarmed points return nil. A point fires exactly once per arming.
func (p *Point) Fire() error {
	if armedCount.Load() == 0 {
		return nil
	}
	return p.fire()
}

// fire is the armed slow path, split out so Fire stays inlineable.
func (p *Point) fire() error {
	mu.Lock()
	if p.armAt == 0 {
		mu.Unlock()
		return nil
	}
	p.hits++
	if p.hits != p.armAt {
		mu.Unlock()
		return nil
	}
	f := &Fault{Site: p.site, Mode: p.mode, Hit: p.hits}
	p.armAt = 0 // one-shot: the retry runs clean
	p.fired = true
	armedCount.Add(-1)
	mu.Unlock()
	if f.Mode == ModePanic {
		panic(f)
	}
	return f
}

// Arm configures the registered point site to fire on its hit-th Fire call
// (1-based) with the given mode. Arming restarts the point's hit counter.
func Arm(site string, mode Mode, hit int) error {
	if hit < 1 {
		return fmt.Errorf("faultinject: hit must be >= 1, got %d", hit)
	}
	mu.Lock()
	defer mu.Unlock()
	p, ok := points[site]
	if !ok {
		return fmt.Errorf("faultinject: unknown site %q (known: %v)", site, sitesLocked())
	}
	if p.armAt == 0 {
		armedCount.Add(1)
	}
	p.armAt = hit
	p.mode = mode
	p.hits = 0
	p.fired = false
	return nil
}

// Disarm disables site without firing; unknown sites are ignored.
func Disarm(site string) {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[site]; ok && p.armAt != 0 {
		p.armAt = 0
		armedCount.Add(-1)
	}
}

// Fired reports whether site has fired since it was last armed or Reset.
func Fired(site string) bool {
	mu.Lock()
	defer mu.Unlock()
	p, ok := points[site]
	return ok && p.fired
}

// Reset disarms every point and clears all hit counters and fired flags.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for _, p := range points {
		if p.armAt != 0 {
			armedCount.Add(-1)
		}
		p.armAt = 0
		p.hits = 0
		p.fired = false
	}
}

// Sites returns every registered site name, sorted.
func Sites() []string {
	mu.Lock()
	defer mu.Unlock()
	return sitesLocked()
}

func sitesLocked() []string {
	out := make([]string, 0, len(points))
	for s := range points {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// ArmFromSeed derives a reproducible (site, mode, hit) choice from seed over
// the registered sites (hit in 1..3) and arms it. It returns the choice so
// the caller can log and assert on it.
func ArmFromSeed(seed int64) (site string, mode Mode, hit int, err error) {
	sites := Sites()
	if len(sites) == 0 {
		return "", 0, 0, fmt.Errorf("faultinject: no registered sites")
	}
	// SplitMix64 finalizer: cheap, stateless, well-mixed for sequential seeds.
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	site = sites[z%uint64(len(sites))]
	mode = Mode((z >> 8) % 2)
	hit = int((z>>16)%3) + 1
	return site, mode, hit, Arm(site, mode, hit)
}
