package serve

import (
	"flag"
	"reflect"
	"testing"
	"time"
)

// TestServerFlagsPinned pins every server flag cmd/mstserve offers — name
// and default, as -h prints them — so the one shared declaration cannot
// silently drop or re-default a flag. Changing a row means changing the
// command line of a deployed server, on purpose.
func TestServerFlagsPinned(t *testing.T) {
	want := [][2]string{
		{"allow-files", "false"},
		{"batch-edges", "65536"},
		{"batch-jobs", "8"},
		{"brownout", "0.75"},
		{"default-deadline", "0s"},
		{"default-weight", "0"},
		{"max-body", "67108864"},
		{"max-deadline", "0s"},
		{"pool", "4x1:1"},
		{"quarantine-after", "0"},
		{"queue", "1024"},
		{"result-ttl", "10m0s"},
		{"retry-attempts", "1"},
		{"retry-burst", "10"},
		{"retry-rate", "1"},
		{"shed-min-samples", "16"},
		{"shed-quantile", "0.9"},
		{"stall", "0s"},
		{"tenant-queue", "0"},
		{"tenants", ""},
	}
	fs := flag.NewFlagSet("mstserve", flag.ContinueOnError)
	f := RegisterFlags(fs)
	var got [][2]string
	fs.VisitAll(func(fl *flag.Flag) { got = append(got, [2]string{fl.Name, fl.DefValue}) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("server flags (name, default):\n got %v\nwant %v", got, want)
	}

	// Unparsed, the set resolves to the configuration mstserve has always
	// started with.
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	if want := (Config{
		Pool:       []PoolShape{{PEs: 4, Threads: 1, Count: 1}},
		QueueBound: 1024, Batch: BatchConfig{MaxJobs: 8, MaxEdges: 65536},
		ResultTTL: 10 * time.Minute, ShedMinSamples: 16, ShedQuantile: 0.9, BrownoutFraction: 0.75,
		Retry:           RetryConfig{MaxAttempts: 1, BudgetRate: 1, BudgetBurst: 10},
		MaxRequestBytes: 64 << 20,
	}); !reflect.DeepEqual(cfg, want) {
		t.Fatalf("default config:\n got %+v\nwant %+v", cfg, want)
	}

	// Every flag lands in its field.
	if err := fs.Parse([]string{"-pool", "2x3:2,8", "-tenants", "a:4,b", "-default-weight", "2", "-queue", "9",
		"-tenant-queue", "3", "-default-deadline", "1s", "-max-deadline", "2s", "-batch-jobs", "4",
		"-batch-edges", "99", "-stall", "3s", "-result-ttl", "4s", "-allow-files", "-shed-min-samples", "-1",
		"-shed-quantile", "0.5", "-brownout", "1", "-quarantine-after", "5", "-retry-attempts", "3",
		"-retry-rate", "7", "-retry-burst", "8", "-max-body", "1024"}); err != nil {
		t.Fatal(err)
	}
	if cfg, err = f.Config(); err != nil {
		t.Fatal(err)
	}
	if want := (Config{
		Pool:          []PoolShape{{PEs: 2, Threads: 3, Count: 2}, {PEs: 8, Threads: 1, Count: 1}},
		Tenants:       []TenantConfig{{Name: "a", Weight: 4}, {Name: "b", Weight: 1}},
		DefaultWeight: 2, QueueBound: 9, TenantQueueBound: 3,
		DefaultDeadline: time.Second, MaxDeadline: 2 * time.Second,
		Batch:        BatchConfig{MaxJobs: 4, MaxEdges: 99},
		StallTimeout: 3 * time.Second, ResultTTL: 4 * time.Second, AllowFiles: true,
		ShedMinSamples: -1, ShedQuantile: 0.5, BrownoutFraction: 1, QuarantineAfter: 5,
		Retry:           RetryConfig{MaxAttempts: 3, BudgetRate: 7, BudgetBurst: 8},
		MaxRequestBytes: 1024,
	}); !reflect.DeepEqual(cfg, want) {
		t.Fatalf("parsed config:\n got %+v\nwant %+v", cfg, want)
	}
}

// TestServerFlagsSubset is cmd/mstload's in-process server: the seven flags
// it offers resolve to the Config it built by hand before the flag set was
// shared — every field it does not offer left zero for New to default —
// and range checks cover only what is on offer.
func TestServerFlagsSubset(t *testing.T) {
	offered := []string{"pool", "queue", "tenant-queue", "batch-jobs", "batch-edges", "retry-attempts", "quarantine-after"}
	fs := flag.NewFlagSet("mstload", flag.ContinueOnError)
	f := RegisterFlags(fs, offered...)
	var got []string
	fs.VisitAll(func(fl *flag.Flag) { got = append(got, fl.Name) })
	if len(got) != len(offered) {
		t.Fatalf("offered flags %v, want exactly %v", got, offered)
	}
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	if want := (Config{
		Pool:       []PoolShape{{PEs: 4, Threads: 1, Count: 1}},
		QueueBound: 1024, Batch: BatchConfig{MaxJobs: 8, MaxEdges: 65536},
		Retry: RetryConfig{MaxAttempts: 1},
	}); !reflect.DeepEqual(cfg, want) {
		t.Fatalf("mstload default config:\n got %+v\nwant %+v", cfg, want)
	}
	if err := fs.Parse([]string{"-pool", "2x1:2", "-queue", "5", "-tenant-queue", "2", "-batch-jobs", "1",
		"-batch-edges", "7", "-retry-attempts", "3", "-quarantine-after", "4"}); err != nil {
		t.Fatal(err)
	}
	if cfg, err = f.Config(); err != nil {
		t.Fatal(err)
	}
	if want := (Config{
		Pool:       []PoolShape{{PEs: 2, Threads: 1, Count: 2}},
		QueueBound: 5, TenantQueueBound: 2, Batch: BatchConfig{MaxJobs: 1, MaxEdges: 7},
		QuarantineAfter: 4, Retry: RetryConfig{MaxAttempts: 3},
	}); !reflect.DeepEqual(cfg, want) {
		t.Fatalf("mstload parsed config:\n got %+v\nwant %+v", cfg, want)
	}
}

func TestServerFlagsRangeChecks(t *testing.T) {
	for _, args := range [][]string{
		{"-queue", "0"}, {"-tenant-queue", "-1"}, {"-shed-quantile", "0"}, {"-shed-quantile", "1.5"},
		{"-pool", "0x1"}, {"-pool", ""}, {"-tenants", "a:0"},
	} {
		fs := flag.NewFlagSet("mstserve", flag.ContinueOnError)
		f := RegisterFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Config(); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
}
