package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Label is one metric dimension, e.g. {Key: "stage", Value: "session"}.
// Labels are fixed at metric construction — the registry holds one metric
// per (name, label set), so the hot path never renders or hashes labels.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Metric kinds, the TYPE vocabulary of the Prometheus exposition.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// metricDesc is the identity every metric carries: family name, help text,
// kind, and the pre-rendered label body (`k1="v1",k2="v2"`, no braces).
type metricDesc struct {
	name   string
	help   string
	kind   string
	labels string
}

func (d *metricDesc) desc() *metricDesc { return d }

// Metric is anything the registry can hold. The interface is sealed: the
// concrete types are Histogram and the adapters CounterFunc, GaugeFunc and
// RegisterFuncs register over values their producers already maintain.
type Metric interface {
	desc() *metricDesc
}

// newDesc validates and renders a metric identity. Label order is
// preserved as given; producers registering a family must use a consistent
// key order so identical label sets compare equal.
func newDesc(name, help, kind string, labels []Label) (metricDesc, error) {
	if name == "" {
		return metricDesc{}, fmt.Errorf("telemetry: metric needs a name")
	}
	var b strings.Builder
	for i, l := range labels {
		if l.Key == "" {
			return metricDesc{}, fmt.Errorf("telemetry: metric %s: empty label key", name)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return metricDesc{name: name, help: help, kind: kind, labels: b.String()}, nil
}

// escapeLabelValue applies the exposition-format escapes for label values:
// backslash, double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp applies the exposition-format escapes for HELP text:
// backslash and newline.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// counterFunc exports an existing producer-owned counter (typically an
// atomic the subsystem already maintains) without rewiring it.
type counterFunc struct {
	metricDesc
	fn func() uint64
}

// gaugeFunc exports a point-in-time value computed at scrape time.
type gaugeFunc struct {
	metricDesc
	fn func() float64
}

// Registry holds the process's metrics and renders them in the Prometheus
// text exposition format. Registration is rare and locked; the metrics
// themselves are lock-free, so holding a registry costs the hot path
// nothing.
type Registry struct {
	mu      sync.RWMutex
	metrics []Metric
	// byID guards uniqueness of (name, label set); byFamily pins each
	// family name to one kind and help text.
	byID     map[string]bool
	byFamily map[string]string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]bool), byFamily: make(map[string]string)}
}

// Register adds metrics to the registry. A duplicate (name, label set) or
// a family re-registered under a different kind is an error; nothing from
// a failing call is registered partially.
func (r *Registry) Register(ms ...Metric) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Validate the whole batch first — including against itself — so a
	// failing call registers nothing.
	batchIDs := make(map[string]bool, len(ms))
	batchKinds := make(map[string]string, len(ms))
	for _, m := range ms {
		d := m.desc()
		id := d.name + "{" + d.labels + "}"
		if r.byID[id] || batchIDs[id] {
			return fmt.Errorf("telemetry: metric %s already registered", id)
		}
		batchIDs[id] = true
		if kind, ok := r.byFamily[d.name]; ok && kind != d.kind {
			return fmt.Errorf("telemetry: family %s is a %s, cannot register a %s", d.name, kind, d.kind)
		}
		if kind, ok := batchKinds[d.name]; ok && kind != d.kind {
			return fmt.Errorf("telemetry: family %s is a %s, cannot register a %s", d.name, kind, d.kind)
		}
		batchKinds[d.name] = d.kind
	}
	for _, m := range ms {
		d := m.desc()
		r.byID[d.name+"{"+d.labels+"}"] = true
		r.byFamily[d.name] = d.kind
		r.metrics = append(r.metrics, m)
	}
	return nil
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the adapter for subsystems that already maintain atomic counters.
// fn must be safe for concurrent use and monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) error {
	d, err := newDesc(name, help, kindCounter, labels)
	if err != nil {
		return err
	}
	return r.Register(&counterFunc{metricDesc: d, fn: fn})
}

// GaugeFunc registers a gauge computed from fn at scrape time. fn must be
// safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) error {
	d, err := newDesc(name, help, kindGauge, labels)
	if err != nil {
		return err
	}
	return r.Register(&gaugeFunc{metricDesc: d, fn: fn})
}

// FuncMetric declares one scrape-time metric over a value its producer
// already maintains: a counter unless Gauge is set.
type FuncMetric struct {
	Name, Help string
	Gauge      bool
	Load       func() uint64
}

// RegisterFuncs registers the declared metrics under the given labels,
// stopping at the first error — the one loop every subsystem exporting a
// table of atomics shares.
func (r *Registry) RegisterFuncs(ms []FuncMetric, labels ...Label) error {
	for _, m := range ms {
		var err error
		if m.Gauge {
			err = r.GaugeFunc(m.Name, m.Help, func() float64 { return float64(m.Load()) }, labels...)
		} else {
			err = r.CounterFunc(m.Name, m.Help, m.Load, labels...)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// snapshot returns the registered metrics sorted by (family, labels) so
// the exposition groups families and renders deterministically.
func (r *Registry) snapshot() []Metric {
	r.mu.RLock()
	out := make([]Metric, len(r.metrics))
	copy(out, r.metrics)
	r.mu.RUnlock()
	sort.SliceStable(out, func(i, j int) bool {
		di, dj := out[i].desc(), out[j].desc()
		if di.name != dj.name {
			return di.name < dj.name
		}
		return di.labels < dj.labels
	})
	return out
}
