package main

import (
	"bytes"
	"strconv"
	"strings"

	"kamsta"
)

// counters is a metric registry read from outside: every series of the
// Prometheus text export, keyed "name{labels}". Reading the export keeps
// the benchmark on the program's public surface.
type counters map[string]float64

// readCounters exports each registry and merges the series (nil registries
// are skipped).
func readCounters(regs ...*kamsta.Metrics) counters {
	out := counters{}
	for _, reg := range regs {
		if reg == nil {
			continue
		}
		var buf bytes.Buffer
		_ = reg.WritePrometheus(&buf) // a bytes.Buffer cannot fail
		for _, line := range strings.Split(buf.String(), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] += v
			}
		}
	}
	return out
}

// sum adds up the series of one metric family, optionally only those whose
// label set contains label (e.g. `dir="tx"`).
func (c counters) sum(name, label string) float64 {
	total := 0.0
	for key, v := range c {
		family, labels, _ := strings.Cut(key, "{")
		if family == name && strings.Contains(labels, label) {
			total += v
		}
	}
	return total
}

// delta is after minus before for one family.
func delta(before, after counters, name, label string) float64 {
	return after.sum(name, label) - before.sum(name, label)
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
