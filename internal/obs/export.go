package obs

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// WritePrometheus renders every series in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE headers, one sample per line,
// histograms expanded into _bucket/_sum/_count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.snapshot() {
		if f.help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(f.name)
			bw.WriteByte(' ')
			bw.WriteString(strings.ReplaceAll(f.help, "\n", " "))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.kind.promType())
		bw.WriteByte('\n')
		for _, s := range f.series {
			switch inst := s.inst.(type) {
			case *Counter:
				writeSample(bw, f.name, "", s.labels, "", float64(inst.Value()))
			case *FloatCounter:
				writeSample(bw, f.name, "", s.labels, "", inst.Value())
			case *Gauge:
				writeSample(bw, f.name, "", s.labels, "", float64(inst.Value()))
			case *FloatGauge:
				writeSample(bw, f.name, "", s.labels, "", inst.Value())
			case *gaugeFunc:
				writeSample(bw, f.name, "", s.labels, "", inst.value())
			case *Histogram:
				cum := int64(0)
				for i, bound := range inst.bounds {
					cum += inst.counts[i].Load()
					writeSample(bw, f.name, "_bucket", s.labels,
						`le="`+formatFloat(bound)+`"`, float64(cum))
				}
				writeSample(bw, f.name, "_bucket", s.labels, `le="+Inf"`, float64(inst.Count()))
				writeSample(bw, f.name, "_sum", s.labels, "", inst.Sum())
				writeSample(bw, f.name, "_count", s.labels, "", float64(inst.Count()))
			}
		}
	}
	return bw.Flush()
}

// writeSample emits one `name{labels} value` line. extraLabel (the
// histogram le pair) is merged into an existing label set if present.
func writeSample(bw *bufio.Writer, name, suffix, labels, extraLabel string, v float64) {
	bw.WriteString(name)
	bw.WriteString(suffix)
	switch {
	case labels == "" && extraLabel == "":
	case labels == "":
		bw.WriteByte('{')
		bw.WriteString(extraLabel)
		bw.WriteByte('}')
	case extraLabel == "":
		bw.WriteString(labels)
	default:
		bw.WriteString(labels[:len(labels)-1]) // drop closing brace
		bw.WriteByte(',')
		bw.WriteString(extraLabel)
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(formatFloat(v))
	bw.WriteByte('\n')
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry as Prometheus text,
// whatever the request asks for.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
