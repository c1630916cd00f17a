package telemetry

import (
	"bufio"
	"io"
	"net/http"
	"strconv"
)

// ContentType is the Prometheus text exposition content type the /metrics
// handler serves.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): families sorted by name with one
// HELP/TYPE header each, samples sorted by label set within the family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	lastFamily := ""
	for _, m := range r.snapshot() {
		d := m.desc()
		if d.name != lastFamily {
			lastFamily = d.name
			if d.help != "" {
				bw.WriteString("# HELP ")
				bw.WriteString(d.name)
				bw.WriteByte(' ')
				bw.WriteString(escapeHelp(d.help))
				bw.WriteByte('\n')
			}
			bw.WriteString("# TYPE ")
			bw.WriteString(d.name)
			bw.WriteByte(' ')
			bw.WriteString(d.kind)
			bw.WriteByte('\n')
		}
		switch m := m.(type) {
		case *counterFunc:
			writeSample(bw, d.name, "", d.labels, "", formatUint(m.fn()))
		case *gaugeFunc:
			writeSample(bw, d.name, "", d.labels, "", formatFloat(m.fn()))
		case *Histogram:
			writeHistogram(bw, m)
		}
	}
	return bw.Flush()
}

// writeHistogram emits the cumulative le buckets, _sum, and _count of one
// histogram, with bounds and sum converted to the export unit.
func writeHistogram(bw *bufio.Writer, h *Histogram) {
	d := h.desc()
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(float64(h.bounds[i]) / h.unit)
		}
		writeSample(bw, d.name, "_bucket", d.labels, le, formatUint(cum))
	}
	writeSample(bw, d.name, "_sum", d.labels, "", formatFloat(float64(h.sum.Load())/h.unit))
	writeSample(bw, d.name, "_count", d.labels, "", formatUint(cum))
}

// writeSample emits one sample line: name[suffix]{labels[,le="..."]} value.
func writeSample(bw *bufio.Writer, name, suffix, labels, le, value string) {
	bw.WriteString(name)
	bw.WriteString(suffix)
	if labels != "" || le != "" {
		bw.WriteByte('{')
		bw.WriteString(labels)
		if le != "" {
			if labels != "" {
				bw.WriteByte(',')
			}
			bw.WriteString(`le="`)
			bw.WriteString(le)
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(value)
	bw.WriteByte('\n')
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Handler serves the registry as a Prometheus scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_ = r.WritePrometheus(w)
	})
}
