package serve

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Flags is the server's command-line flag set: every Config field a command
// may offer, declared once with its name, default and help text.
type Flags struct {
	// Pool is the -pool value as given.
	Pool string

	tenants string
	fs      *flag.FlagSet
	cfg     Config
}

// RegisterFlags declares the server flags on fs — all of them (cmd/mstserve),
// or just the named ones for a command that embeds a server and offers a
// subset (cmd/mstload's in-process target). A flag that is not offered
// leaves its Config field zero, i.e. at New's own default. Call before
// fs.Parse; a name that is not a server flag is a programming error.
func RegisterFlags(fs *flag.FlagSet, only ...string) *Flags {
	f := &Flags{fs: fs}
	c := &f.cfg
	all := flag.NewFlagSet("serve", flag.ContinueOnError)
	all.StringVar(&f.Pool, "pool", "4x1:1", "machine pool: comma-separated PEs[xThreads][:Count]")
	all.StringVar(&f.tenants, "tenants", "", "tenants and weights, name[:weight] comma-separated (empty = open tenancy)")
	all.IntVar(&c.DefaultWeight, "default-weight", 0, "weight for unknown tenants (0 with -tenants set = reject them)")
	all.IntVar(&c.QueueBound, "queue", 1024, "global queue bound")
	all.IntVar(&c.TenantQueueBound, "tenant-queue", 0, "per-tenant queue bound (0 = global bound)")
	all.DurationVar(&c.DefaultDeadline, "default-deadline", 0, "deadline for jobs that set none (0 = unlimited)")
	all.DurationVar(&c.MaxDeadline, "max-deadline", 0, "clamp every job deadline (0 = unlimited)")
	all.IntVar(&c.Batch.MaxJobs, "batch-jobs", 8, "max small edge-list jobs coalesced per machine run (<=1 disables batching)")
	all.IntVar(&c.Batch.MaxEdges, "batch-edges", 65536, "max summed edges per batch")
	all.DurationVar(&c.StallTimeout, "stall", 0, "per-job stall timeout (0 = machine default)")
	all.DurationVar(&c.ResultTTL, "result-ttl", 10*time.Minute, "how long finished jobs stay pollable")
	all.BoolVar(&c.AllowFiles, "allow-files", false, "permit HTTP jobs that read server-local graph files")
	all.IntVar(&c.ShedMinSamples, "shed-min-samples", 16, "dispatches observed before deadline-aware shedding engages (<0 disables)")
	all.Float64Var(&c.ShedQuantile, "shed-quantile", 0.9, "service-time quantile the queue-wait estimate plans for")
	all.Float64Var(&c.BrownoutFraction, "brownout", 0.75, "queue depth fraction that flips brownout (>=1 = only on quarantine)")
	all.IntVar(&c.QuarantineAfter, "quarantine-after", 0, "consecutive contained faults that quarantine a healthy machine (0 disables; a dead machine always leaves service)")
	all.IntVar(&c.Retry.MaxAttempts, "retry-attempts", 1, "dispatch attempts per fault-killed job (<=1 disables server-side retries)")
	all.Float64Var(&c.Retry.BudgetRate, "retry-rate", 1, "per-tenant retry budget refill, tokens/second")
	all.Float64Var(&c.Retry.BudgetBurst, "retry-burst", 10, "per-tenant retry budget burst")
	all.Int64Var(&c.MaxRequestBytes, "max-body", 64<<20, "largest accepted job submission body, bytes")
	if len(only) == 0 {
		all.VisitAll(func(fl *flag.Flag) { only = append(only, fl.Name) })
	}
	// Declaring a flag stored its default; clear them all, then restore the
	// defaults of the flags on offer as they move onto fs.
	*f = Flags{fs: fs}
	for _, name := range only {
		fl := all.Lookup(name)
		if fl == nil {
			panic("serve: RegisterFlags: no server flag -" + name)
		}
		if err := fl.Value.Set(fl.DefValue); err != nil {
			panic(err)
		}
		fs.Var(fl.Value, fl.Name, fl.Usage)
	}
	return f
}

// Config resolves the parsed flags into a Config (Transport, Workers,
// Metrics and Trace are the caller's to add). Only flags on offer are
// range-checked: the zero a withheld flag leaves behind means "default".
func (f *Flags) Config() (Config, error) {
	offered := func(name string) bool { return f.fs.Lookup(name) != nil }
	c := f.cfg
	var err error
	if offered("pool") {
		if c.Pool, err = ParsePool(f.Pool); err != nil {
			return Config{}, err
		}
	}
	if c.Tenants, err = ParseTenants(f.tenants); err != nil {
		return Config{}, err
	}
	switch {
	case offered("queue") && c.QueueBound < 1:
		return Config{}, fmt.Errorf("-queue must be at least 1 (got %d)", c.QueueBound)
	case c.TenantQueueBound < 0:
		return Config{}, fmt.Errorf("-tenant-queue must be non-negative (got %d)", c.TenantQueueBound)
	case offered("shed-quantile") && (c.ShedQuantile <= 0 || c.ShedQuantile > 1):
		return Config{}, fmt.Errorf("-shed-quantile must be in (0, 1] (got %g)", c.ShedQuantile)
	}
	return c, nil
}

// ParsePool parses a pool flag like "4x1:2,8x2" — comma-separated shapes,
// each PEs["x"Threads][":"Count] (threads default 1, count default 1).
func ParsePool(s string) ([]PoolShape, error) {
	var out []PoolShape
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		shape := PoolShape{Threads: 1, Count: 1}
		spec := part
		if i := strings.IndexByte(spec, ':'); i >= 0 {
			n, err := strconv.Atoi(spec[i+1:])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("serve: bad machine count in pool shape %q", part)
			}
			shape.Count = n
			spec = spec[:i]
		}
		if i := strings.IndexByte(spec, 'x'); i >= 0 {
			t, err := strconv.Atoi(spec[i+1:])
			if err != nil || t < 1 {
				return nil, fmt.Errorf("serve: bad thread count in pool shape %q", part)
			}
			shape.Threads = t
			spec = spec[:i]
		}
		p, err := strconv.Atoi(spec)
		if err != nil || p < 1 {
			return nil, fmt.Errorf("serve: bad PE count in pool shape %q", part)
		}
		shape.PEs = p
		out = append(out, shape)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("serve: empty pool spec")
	}
	return out, nil
}

// ParseTenants parses a tenants flag like "alpha:4,beta:2" — comma-
// separated name[:weight] entries (weight default 1). Empty input is a
// valid empty list (an open server).
func ParseTenants(s string) ([]TenantConfig, error) {
	var out []TenantConfig
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		tc := TenantConfig{Weight: 1}
		if i := strings.IndexByte(part, ':'); i >= 0 {
			w, err := strconv.Atoi(part[i+1:])
			if err != nil || w < 1 {
				return nil, fmt.Errorf("serve: bad weight in tenant %q", part)
			}
			tc.Weight = w
			part = part[:i]
		}
		if part == "" {
			return nil, fmt.Errorf("serve: tenant with empty name")
		}
		tc.Name = part
		out = append(out, tc)
	}
	return out, nil
}
