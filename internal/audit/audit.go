// Package audit provides leakage accounting: every substrate reports which
// principal observed which datum, turning the paper's qualitative privacy
// claims ("identities of channel members are not revealed to the wider
// network", "the ordering service has full visibility") into assertions the
// experiment suite can check and the benchmark harness can tabulate.
//
// The paper's confidentiality argument is one table: which party observed
// which class of information. A Log keeps that table — per (observer, class)
// pair a presence bit, an exact count of records and the pair's first
// observation as evidence — and, only when built with NewHistory, every
// distinct observation as well. The gateway operator, each orderer and each
// replica record into a log on every transaction, so the table is what a
// long-running process keeps: its size is fixed by the pairs it has seen,
// not by the traffic. History is for those who ask item questions (tests,
// the paper's tables, the platform models), which build their own.
package audit

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// DataClass categorizes observed information along the paper's three axes
// (§1): the group of interacting parties, transaction data, and business
// logic — plus metadata classes needed to describe ordering-service and
// hash-anchor visibility precisely.
type DataClass string

// Data classes.
const (
	// ClassIdentity is a party's legal identity.
	ClassIdentity DataClass = "identity"
	// ClassRelationship is the fact that two or more parties transact.
	ClassRelationship DataClass = "relationship"
	// ClassTxData is transaction payload content.
	ClassTxData DataClass = "txdata"
	// ClassTxHash is a hash of transaction data (existence evidence
	// without content, §2.2).
	ClassTxHash DataClass = "txhash"
	// ClassBusinessLogic is smart-contract source or semantics.
	ClassBusinessLogic DataClass = "logic"
	// ClassTxMetadata is envelope-level metadata (channel id, sizes,
	// timing) visible to infrastructure such as the ordering service.
	ClassTxMetadata DataClass = "txmeta"
	// ClassPII is personally identifying information subject to deletion
	// requirements (§3, GDPR).
	ClassPII DataClass = "pii"
)

// Classes returns every data class above, in declaration order.
func Classes() []DataClass {
	return []DataClass{ClassIdentity, ClassRelationship, ClassTxData, ClassTxHash, ClassBusinessLogic, ClassTxMetadata, ClassPII}
}

// Observation records that Observer saw Item of class Class.
type Observation struct {
	Observer string
	Class    DataClass
	Item     string
}

// Log is a concurrency-safe leakage log.
//
// Every log keeps the presence table: for each (observer, class) pair it has
// seen, an exact count of the records of that pair and the pair's first
// observation, which stays as evidence. Record reads the table through an
// atomic pointer and adds to the pair's count: no lock, no hashing of the
// item and no allocation. A pair seen for the first time takes the lock and
// replaces the table with a copy that holds it; a process sees a handful of
// pairs (observers x classes), so that happens a handful of times. The
// table's size therefore depends on the pairs, not on the traffic, and
// SawAny, Count, Len, Violations and Footprint answer from it alone.
//
// A log built with NewHistory also keeps every distinct observation, in
// recording order, for the item queries: Saw, ItemsSeen, Observers, All and
// Matrix. On a log built with NewLog those panic, naming NewHistory; they
// never quietly answer from a history that is not there.
//
// A log holds at most 2^15 (observer, class) pairs. Record panics beyond
// that, before it changes anything a query can see.
type Log struct {
	table atomic.Pointer[table] // immutable once stored: a new pair stores a grown copy
	mu    sync.Mutex            // serialises growing the table, and guards hist
	hist  *history              // nil unless built by NewHistory
}

// table is the presence table: the cells by pair, and in the order their
// pairs were first recorded.
type table struct {
	byPair map[pair]*cell
	cells  []*cell
}

// pair is an (observer, class) combination.
type pair struct {
	observer string
	class    DataClass
}

// cell is one pair's row of the presence table.
type cell struct {
	n     atomic.Int64 // records of the pair
	first Observation  // the pair's first observation, its evidence; names and item are the cell's own copies
}

// history is every distinct observation, in recording order.
type history struct {
	obs  []Observation
	seen map[Observation]bool
}

// maxPairs is the number of (observer, class) pairs a log holds.
const maxPairs = 1 << 15

// cellBytes is what the table holds per pair besides the names and the
// evidence item: the cell, its map key and value, and its slot in cells.
const cellBytes = int(unsafe.Sizeof(cell{}) + unsafe.Sizeof(pair{}) + 2*unsafe.Sizeof(&cell{}))

// NewLog creates an empty presence log: it answers which observer saw which
// class, how often and with what first, and nothing about other items.
func NewLog() *Log {
	l := &Log{}
	l.table.Store(&table{byPair: make(map[pair]*cell)})
	return l
}

// NewHistory creates an empty log that also keeps every distinct
// observation, for the item queries.
func NewHistory() *Log {
	l := NewLog()
	l.hist = &history{seen: make(map[Observation]bool)}
	return l
}

// Record notes that observer saw item. All three arguments are copied when
// kept, never retained, so a caller may build the item in a stack buffer and
// pass string(buf[:]) without allocating.
func (l *Log) Record(observer string, class DataClass, item string) {
	if l == nil {
		return // substrates may run without accounting
	}
	c := l.table.Load().byPair[pair{observer, class}]
	if c == nil {
		c = l.add(observer, class, item)
	}
	if l.hist != nil {
		l.remember(observer, class, item)
	}
	c.n.Add(1)
}

// add returns the pair's cell, storing a table that holds it if the current
// one does not, with item as the pair's evidence.
func (l *Log) add(observer string, class DataClass, item string) *cell {
	l.mu.Lock()
	defer l.mu.Unlock()
	old := l.table.Load()
	if c := old.byPair[pair{observer, class}]; c != nil {
		return c // another Record added it first
	}
	if len(old.cells) == maxPairs {
		panic("audit: too many (observer, class) pairs (2^15)")
	}
	c := &cell{first: owned(observer, class, item)}
	grown := &table{byPair: maps.Clone(old.byPair), cells: append(slices.Clip(old.cells), c)}
	grown.byPair[pair{c.first.Observer, c.first.Class}] = c
	l.table.Store(grown)
	return c
}

// remember adds the observation to the history unless it is there.
func (l *Log) remember(observer string, class DataClass, item string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.hist.seen[Observation{observer, class, item}] {
		return
	}
	o := owned(observer, class, item)
	l.hist.seen[o] = true
	l.hist.obs = append(l.hist.obs, o)
}

// owned is the observation with copies of its strings, which the caller
// may have built in memory it reuses.
func owned(observer string, class DataClass, item string) Observation {
	return Observation{strings.Clone(observer), DataClass(strings.Clone(string(class))), strings.Clone(item)}
}

// needHistory panics unless l keeps a history. query names the caller.
func (l *Log) needHistory(query string) {
	if l.hist == nil {
		panic("audit: " + query + " asks about items, which a log from NewLog does not keep; build it with NewHistory")
	}
}

// SawAny reports whether observer saw anything of the given class.
func (l *Log) SawAny(observer string, class DataClass) bool {
	return l.Count(observer, class) > 0
}

// Count returns how many times observer's observations of class were
// recorded, duplicates included.
func (l *Log) Count(observer string, class DataClass) int {
	if l == nil {
		return 0
	}
	if c := l.table.Load().byPair[pair{observer, class}]; c != nil {
		return int(c.n.Load())
	}
	return 0
}

// Len returns the number of records, duplicates included: the sum of every
// pair's count. It counts records, not distinct observations; a history's
// distinct observations are len(All()).
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	n := 0
	for _, c := range l.table.Load().cells {
		n += int(c.n.Load())
	}
	return n
}

// Footprint returns the bytes the presence table holds: a fixed share per
// pair plus the pair's names and evidence item. It is constant once every
// pair has been seen, however much is recorded. A history is not counted.
func (l *Log) Footprint() int {
	if l == nil {
		return 0
	}
	bytes := 0
	for _, c := range l.table.Load().cells {
		bytes += cellBytes + len(c.first.Observer) + len(c.first.Class) + len(c.first.Item)
	}
	return bytes
}

// Saw reports whether observer recorded an observation of item. It needs a
// history (NewHistory).
func (l *Log) Saw(observer string, class DataClass, item string) bool {
	if l == nil {
		return false
	}
	l.needHistory("Saw")
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hist.seen[Observation{observer, class, item}]
}

// ItemsSeen returns the sorted items of a class seen by observer. It needs a
// history (NewHistory).
func (l *Log) ItemsSeen(observer string, class DataClass) []string {
	if l == nil {
		return nil
	}
	l.needHistory("ItemsSeen")
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, o := range l.hist.obs {
		if o.Observer == observer && o.Class == class {
			out = append(out, o.Item)
		}
	}
	sort.Strings(out)
	return out
}

// Observers returns the sorted principals that saw the item. It needs a
// history (NewHistory).
func (l *Log) Observers(class DataClass, item string) []string {
	if l == nil {
		return nil
	}
	l.needHistory("Observers")
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, o := range l.hist.obs {
		if o.Class == class && o.Item == item {
			out = append(out, o.Observer)
		}
	}
	sort.Strings(out)
	return out
}

// All returns a copy of every distinct observation in recording order. It
// needs a history (NewHistory).
func (l *Log) All() []Observation {
	if l == nil {
		return nil
	}
	l.needHistory("All")
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.hist.obs)
}

// Policy decides whether an observation is authorized. Experiments encode
// the paper's confidentiality requirements as policies and assert zero
// violations.
//
// A policy is pair-level when its verdict depends only on the observation's
// Observer and Class, never on its Item. Every policy in this repository is
// (TestPoliciesArePairLevel), because the paper's requirements are stated
// per party and per class of information. A log from NewLog can judge only
// pair-level policies exactly: it keeps one observation per pair.
type Policy func(o Observation) bool

// Violations returns the observations the policy rejects. A history judges
// every distinct observation and returns the rejected ones in recording
// order. A presence log judges each pair once, on its evidence, and returns
// the rejected evidence in the order the pairs were first recorded: for a
// pair-level policy that names exactly the pairs a history would, each by
// its first observation.
func (l *Log) Violations(allowed Policy) []Observation {
	if l == nil {
		return nil
	}
	var judged []Observation
	if l.hist != nil {
		judged = l.All()
	} else {
		for _, c := range l.table.Load().cells {
			judged = append(judged, c.first)
		}
	}
	var out []Observation
	for _, o := range judged {
		if !allowed(o) {
			out = append(out, o)
		}
	}
	return out
}

// Matrix summarizes, for one data class, which observer saw which items:
// observer -> sorted item list. The benchmark harness prints these as the
// leakage tables of experiments E3–E6. It needs a history (NewHistory).
func (l *Log) Matrix(class DataClass) map[string][]string {
	if l != nil {
		l.needHistory("Matrix")
	}
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

// String renders an observation for error messages.
func (o Observation) String() string {
	return fmt.Sprintf("%s saw %s %q", o.Observer, o.Class, o.Item)
}
