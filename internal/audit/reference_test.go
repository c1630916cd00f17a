package audit

import (
	"sort"
	"sync"
)

// refLog is the map-and-slice Log this package shipped until the arena
// layout replaced it, moved here verbatim (type name aside) as the
// reference the model test and FuzzLogRecord compare Log against.
type refLog struct {
	mu   sync.Mutex
	obs  []Observation
	seen map[Observation]bool
}

func newRefLog() *refLog {
	return &refLog{seen: make(map[Observation]bool)}
}

func (l *refLog) Record(observer string, class DataClass, item string) {
	if l == nil {
		return // substrates may run without accounting
	}
	o := Observation{Observer: observer, Class: class, Item: item}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen[o] {
		return
	}
	l.seen[o] = true
	l.obs = append(l.obs, o)
}

func (l *refLog) Saw(observer string, class DataClass, item string) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen[Observation{Observer: observer, Class: class, Item: item}]
}

func (l *refLog) SawAny(observer string, class DataClass) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for o := range l.seen {
		if o.Observer == observer && o.Class == class {
			return true
		}
	}
	return false
}

func (l *refLog) ItemsSeen(observer string, class DataClass) []string {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for o := range l.seen {
		if o.Observer == observer && o.Class == class {
			out = append(out, o.Item)
		}
	}
	sort.Strings(out)
	return out
}

func (l *refLog) Observers(class DataClass, item string) []string {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for o := range l.seen {
		if o.Class == class && o.Item == item {
			out = append(out, o.Observer)
		}
	}
	sort.Strings(out)
	return out
}

func (l *refLog) All() []Observation {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Observation, len(l.obs))
	copy(out, l.obs)
	return out
}

func (l *refLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.obs)
}

func (l *refLog) Violations(allowed Policy) []Observation {
	var out []Observation
	for _, o := range l.All() {
		if !allowed(o) {
			out = append(out, o)
		}
	}
	return out
}

func (l *refLog) Matrix(class DataClass) map[string][]string {
	out := make(map[string][]string)
	for _, o := range l.All() {
		if o.Class == class {
			out[o.Observer] = append(out[o.Observer], o.Item)
		}
	}
	for k := range out {
		sort.Strings(out[k])
	}
	return out
}
