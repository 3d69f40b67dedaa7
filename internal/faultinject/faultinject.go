// Package faultinject provides deterministic, seeded fault injection for
// the simulated machine — the in-process analogue of the chaos harnesses
// consensus-style systems use to prove their failure model. A Plan is a
// set of Rules, each naming an injection site, a rank, and the occurrence
// index (per site, per rank) at which it fires, plus the action to take:
// panic, delay, or a synthetic I/O error.
//
// Determinism is the whole point: given the same Plan and the same
// program, the same fault fires at the same place on every run, so a chaos
// schedule that exposes a containment bug is replayable from its seed
// alone. Occurrence counters are kept per (site, rank) in a per-job
// Injector; the fired flags live on the shared Plan, so a Rule fires at
// most once across a job AND its retries — which is what makes an injected
// fault "transient" from the caller's point of view.
//
// The package is a leaf: internal/comm triggers SiteCollective on every
// collective boundary, internal/graphio triggers SiteGraphRead on every
// bulk file read, and neither direction imports the other.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"
)

// Site names an injection point class.
type Site uint8

const (
	// SiteCollective fires at a collective boundary: just before the PE
	// deposits into superstep number Occurrence of its job.
	SiteCollective Site = iota
	// SiteGraphRead fires at a graph-file read: just before the PE's
	// Occurrence-th bulk read during distributed ingestion.
	SiteGraphRead

	numSites
)

// String names the site for diagnostics.
func (s Site) String() string {
	switch s {
	case SiteCollective:
		return "collective"
	case SiteGraphRead:
		return "graphRead"
	}
	return "(unknown site)"
}

// Action is what an armed Rule does when it fires.
type Action uint8

const (
	// ActNone is the zero action (rule disabled).
	ActNone Action = iota
	// ActPanic panics with an InjectedPanic value — the stand-in for an
	// algorithm bug or SPMD divergence on one PE.
	ActPanic
	// ActDelay sleeps for the rule's Delay — the stand-in for a straggler
	// or a divergent collective (pair it with a stall timeout).
	ActDelay
	// ActIOError returns ErrInjected from the site — meaningful only at
	// SiteGraphRead, where it models a failed file read; collective sites
	// ignore it.
	ActIOError
)

// String names the action for diagnostics.
func (a Action) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActPanic:
		return "panic"
	case ActDelay:
		return "delay"
	case ActIOError:
		return "ioError"
	}
	return "(unknown action)"
}

// ErrInjected is the synthetic error ActIOError surfaces; sites wrap it
// with position details, so test for it with errors.Is.
var ErrInjected = errors.New("faultinject: injected I/O error")

// InjectedPanic is the value an ActPanic rule panics with.
type InjectedPanic struct {
	Site       Site
	Rank       int
	Occurrence int
}

func (p InjectedPanic) String() string {
	return fmt.Sprintf("injected panic at %v site, rank %d, occurrence %d", p.Site, p.Rank, p.Occurrence)
}

// Rule arms one fault: at the Occurrence-th visit of Site on Rank, take
// Action. Each Rule fires at most once per Plan lifetime.
type Rule struct {
	Site       Site
	Rank       int
	Occurrence int
	Action     Action
	// Delay is the sleep duration for ActDelay.
	Delay time.Duration

	fired atomic.Bool
}

// Plan is a set of armed Rules shared across the jobs (and retries) of one
// chaos schedule. The zero Plan injects nothing.
type Plan struct {
	rules []*Rule
}

// NewPlan builds a plan from rules. The rules are shared, not copied:
// their fired flags carry across every Injector derived from the plan.
func NewPlan(rules ...*Rule) *Plan { return &Plan{rules: rules} }

// Exhausted reports whether every rule of the plan has fired — after which
// a retried job runs fault-free.
func (p *Plan) Exhausted() bool {
	for _, r := range p.rules {
		if r.Action != ActNone && !r.fired.Load() {
			return false
		}
	}
	return true
}

// Fired reports whether rule i has fired.
func (r *Rule) Fired() bool { return r.fired.Load() }

// Injector is the per-job stateful view of a Plan: it keeps the
// (site, rank) occurrence counters that make rule matching deterministic.
// Create one per job with Plan.Injector. Each rank's counters are touched
// only by that rank's goroutine.
type Injector struct {
	plan     *Plan
	counters [numSites][]int
}

// Injector derives a fresh per-job injector for a p-PE world. A nil plan
// returns a nil injector, which injects nothing.
func (p *Plan) Injector(pes int) *Injector {
	if p == nil || len(p.rules) == 0 {
		return nil
	}
	inj := &Injector{plan: p}
	for s := range inj.counters {
		inj.counters[s] = make([]int, pes)
	}
	return inj
}

// Check visits one injection point and returns the armed rule that fires
// there, or nil. The caller applies the action (panic, sleep, error): the
// injector itself never panics, so sites keep control over how a fault
// enters the program.
func (in *Injector) Check(site Site, rank int) *Rule {
	if in == nil {
		return nil
	}
	n := in.counters[site][rank]
	in.counters[site][rank] = n + 1
	for _, r := range in.plan.rules {
		if r.Site == site && r.Rank == rank && r.Occurrence == n &&
			r.Action != ActNone && r.fired.CompareAndSwap(false, true) {
			return r
		}
	}
	return nil
}

// RandomSpec bounds RandomPlan's schedule generation.
type RandomSpec struct {
	// PEs is the world width faults are drawn over.
	PEs int
	// MaxOccurrence bounds the occurrence index (exclusive) at collective
	// sites; rules may land past the job's last superstep and never fire —
	// that is a valid schedule (fault-free run).
	MaxOccurrence int
	// MaxReadOccurrence bounds the occurrence index at graph-read sites
	// (default 2: ingestion performs few bulk reads per PE).
	MaxReadOccurrence int
	// MaxRules bounds the number of armed rules (at least 1 is drawn).
	MaxRules int
	// MaxDelay bounds ActDelay sleeps (default 10ms).
	MaxDelay time.Duration
	// Reads enables SiteGraphRead rules (only useful for file-backed jobs).
	Reads bool
}

// RandomPlan derives a deterministic fault schedule from a seed: which
// ranks fault, at which supersteps, and how, are all pure functions of
// (seed, spec). The same seed always produces the same schedule.
func RandomPlan(seed uint64, spec RandomSpec) *Plan {
	rng := rand.New(rand.NewSource(int64(seed)))
	if spec.PEs < 1 {
		spec.PEs = 1
	}
	if spec.MaxOccurrence < 1 {
		spec.MaxOccurrence = 32
	}
	if spec.MaxReadOccurrence < 1 {
		spec.MaxReadOccurrence = 2
	}
	if spec.MaxRules < 1 {
		spec.MaxRules = 2
	}
	if spec.MaxDelay <= 0 {
		spec.MaxDelay = 10 * time.Millisecond
	}
	n := 1 + rng.Intn(spec.MaxRules)
	rules := make([]*Rule, 0, n)
	for i := 0; i < n; i++ {
		r := &Rule{Rank: rng.Intn(spec.PEs)}
		if spec.Reads && rng.Intn(3) == 0 {
			r.Site = SiteGraphRead
			r.Occurrence = rng.Intn(spec.MaxReadOccurrence)
			if rng.Intn(2) == 0 {
				r.Action = ActIOError
			} else {
				r.Action = ActPanic
			}
		} else {
			r.Site = SiteCollective
			r.Occurrence = rng.Intn(spec.MaxOccurrence)
			switch rng.Intn(3) {
			case 0:
				r.Action = ActDelay
				r.Delay = time.Duration(1 + rng.Int63n(int64(spec.MaxDelay)))
			default:
				r.Action = ActPanic
			}
		}
		rules = append(rules, r)
	}
	return NewPlan(rules...)
}
