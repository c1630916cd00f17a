// Package audit provides leakage accounting: every substrate reports which
// principal observed which datum, turning the paper's qualitative privacy
// claims ("identities of channel members are not revealed to the wider
// network", "the ordering service has full visibility") into assertions the
// experiment suite can check and the benchmark harness can tabulate.
//
// The Log is the one structure every layer writes on every transaction (the
// gateway operator, each orderer and each replica record into it) and the
// one that never shrinks, so it is stored without a pointer per observation:
// a garbage collection costs the same whether the log holds a thousand
// observations or ten million. See Log for the layout.
package audit

import (
	"fmt"
	"hash/maphash"
	"math"
	"sort"
	"strings"
	"sync"
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

// Observation records that Observer saw Item of class Class.
type Observation struct {
	Observer string
	Class    DataClass
	Item     string
}

// Log is a concurrency-safe, deduplicating observation log.
//
// Layout. A distinct observation costs about 64 bytes and no pointer. Its
// item bytes are copied into a chunked byte arena; one fixed-size entry,
// kept in recording order, locates them and names the (observer, class)
// pair by its number in a small intern table; and an open-addressing table
// of entry numbers finds duplicates. Entry blocks, table and arena chunks
// hold no pointers, so the collector never walks the history; what it does
// walk is one slice header per block or chunk and the interned names.
// Blocks and chunks are never reallocated, so the only growth that copies
// (under the lock) is the table's doubling, 4 bytes a slot.
//
// Exactness. The log is the evidence behind claims such as "no operator
// saw ClassTxData", so a hash only ever proposes where to look: every hit
// is confirmed by comparing observer, class and item bytes, and a hash
// collision cannot drop, merge or reorder observations.
//
// Limits. Entry numbers are uint32, so a log holds at most 2^32-2
// observations (a quarter of a terabyte of them) and an item at most
// 2^32-1 bytes; Record panics beyond either. Pairs and chunks are each
// created by an observation, so neither can outnumber the entries.
type Log struct {
	seed maphash.Seed // per log, fixed at construction

	mu      sync.Mutex
	pairs   []pair          // interned (observer, class) pairs, by number
	pairNum map[pair]uint32 // pair -> its index in pairs
	n       int             // distinct observations
	entries [][]entry       // entry i, in recording order, is entries[i/entryBlock][i%entryBlock]
	table   []uint32        // entry number + 1, 0 = empty; len is a power of two, at most half full
	chunks  [][]byte        // item bytes; only the last chunk has room left
}

// pair is an (observer, class) combination. A run has a handful of them
// (observers x classes), so entries carry a pair's number, not its names.
type pair struct {
	observer string
	class    DataClass
}

// entry is one observation. It must stay free of pointers (strings, slices,
// maps and interfaces included): TestEntryIsPointerFree enforces it.
type entry struct {
	hash  uint64 // of (observer, class, item); re-inserted when the table doubles
	chunk uint32 // arena chunk holding the item
	off   uint32 // item's offset in that chunk
	len   uint32 // item's length
	pair  uint32 // index into Log.pairs
}

const (
	entryBytes = 24       // size of an entry, for Footprint
	entryBlock = 4096     // entries per block (96 KiB)
	chunkSize  = 64 << 10 // arena chunk capacity; a longer item gets a chunk of its own
	minTable   = 16       // initial index table slots
)

// NewLog creates an empty observation log.
func NewLog() *Log {
	return &Log{
		seed:    maphash.MakeSeed(),
		pairNum: make(map[pair]uint32),
		table:   make([]uint32, minTable),
	}
}

// Record notes that observer saw item. Duplicate observations collapse.
// All three arguments are copied, never retained, so a caller may build the
// item in a stack buffer and pass string(buf[:]) without allocating.
func (l *Log) Record(observer string, class DataClass, item string) {
	if l == nil {
		return // substrates may run without accounting
	}
	l.record(l.hash(observer, class, item), observer, class, item)
}

// hash proposes a table position for an observation. Nothing relies on it
// being collision-free, only on equal observations hashing equally.
func (l *Log) hash(observer string, class DataClass, item string) uint64 {
	const k = 0x9e3779b97f4a7c15 // 2^64 / golden ratio, odd
	h := maphash.String(l.seed, item)
	h = h*k + maphash.String(l.seed, observer)
	return h*k + maphash.String(l.seed, string(class))
}

// record is Record with the hash supplied, which lets tests force
// collisions by truncating it.
func (l *Log) record(h uint64, observer string, class DataClass, item string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.find(h, observer, class, item) {
		return
	}
	if uint64(l.n) >= math.MaxUint32-1 {
		panic("audit: log is full (2^32-2 observations)")
	}
	if uint64(len(item)) > math.MaxUint32 {
		panic("audit: item longer than 2^32-1 bytes")
	}
	if 2*(l.n+1) > len(l.table) {
		l.grow()
	}
	if l.n%entryBlock == 0 {
		l.entries = append(l.entries, make([]entry, entryBlock))
	}
	chunk, off := l.store(item)
	*l.entry(l.n) = entry{
		hash: h, chunk: chunk, off: off, len: uint32(len(item)),
		pair: l.intern(observer, class),
	}
	l.n++
	place(l.table, h, uint32(l.n))
}

// entry returns entry number i.
func (l *Log) entry(i int) *entry {
	return &l.entries[i/entryBlock][i%entryBlock]
}

// find reports whether (observer, class, item) is recorded. It probes from
// h's slot to the first empty one, comparing every candidate in full.
func (l *Log) find(h uint64, observer string, class DataClass, item string) bool {
	mask := uint64(len(l.table) - 1)
	for i := h & mask; l.table[i] != 0; i = (i + 1) & mask {
		e := l.entry(int(l.table[i] - 1))
		if e.hash != h {
			continue
		}
		if p := &l.pairs[e.pair]; p.observer == observer && p.class == class && string(l.item(e)) == item {
			return true
		}
	}
	return false
}

// place writes slot (an entry number + 1) into the first empty position of
// table at or after h's. The table always has one: it is at most half full.
func place(table []uint32, h uint64, slot uint32) {
	mask := uint64(len(table) - 1)
	i := h & mask
	for table[i] != 0 {
		i = (i + 1) & mask
	}
	table[i] = slot
}

// grow doubles the index table, re-inserting every entry by its stored hash.
func (l *Log) grow() {
	table := make([]uint32, 2*len(l.table))
	for i := 0; i < l.n; i++ {
		place(table, l.entry(i).hash, uint32(i+1))
	}
	l.table = table
}

// store copies item into the arena and returns where it went. An item that
// does not fit the last chunk's remaining room starts a new chunk, sized to
// the item when it is longer than chunkSize.
func (l *Log) store(item string) (chunk, off uint32) {
	last := len(l.chunks) - 1
	if last < 0 || len(item) > cap(l.chunks[last])-len(l.chunks[last]) {
		l.chunks = append(l.chunks, make([]byte, 0, max(chunkSize, len(item))))
		last++
	}
	c := l.chunks[last]
	l.chunks[last] = append(c, item...)
	return uint32(last), uint32(len(c))
}

// intern returns the number of the (observer, class) pair, adding it, with
// its own copies of the names, on first sight.
func (l *Log) intern(observer string, class DataClass) uint32 {
	n, ok := l.pairNum[pair{observer, class}]
	if !ok {
		p := pair{strings.Clone(observer), DataClass(strings.Clone(string(class)))}
		n = uint32(len(l.pairs))
		l.pairs = append(l.pairs, p)
		l.pairNum[p] = n
	}
	return n
}

// item returns e's item bytes, aliasing the arena.
func (l *Log) item(e *entry) []byte {
	return l.chunks[e.chunk][e.off:][:e.len]
}

// Saw reports whether observer recorded an observation of item.
func (l *Log) Saw(observer string, class DataClass, item string) bool {
	if l == nil {
		return false
	}
	h := l.hash(observer, class, item)
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.find(h, observer, class, item)
}

// SawAny reports whether observer saw anything of the given class.
func (l *Log) SawAny(observer string, class DataClass) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// A pair is interned only by the first observation that carries it.
	_, ok := l.pairNum[pair{observer, class}]
	return ok
}

// ItemsSeen returns the sorted items of a class seen by observer.
func (l *Log) ItemsSeen(observer string, class DataClass) []string {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	p, ok := l.pairNum[pair{observer, class}]
	if !ok {
		return nil
	}
	var out []string
	for i := 0; i < l.n; i++ {
		if e := l.entry(i); e.pair == p {
			out = append(out, string(l.item(e)))
		}
	}
	sort.Strings(out)
	return out
}

// Observers returns the sorted principals that saw the item.
func (l *Log) Observers(class DataClass, item string) []string {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for i := 0; i < l.n; i++ {
		e := l.entry(i)
		if p := &l.pairs[e.pair]; p.class == class && string(l.item(e)) == item {
			out = append(out, p.observer)
		}
	}
	sort.Strings(out)
	return out
}

// All returns a copy of every observation in recording order.
func (l *Log) All() []Observation {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Observation, l.n)
	// Entries follow arena order, so one string per chunk serves every item
	// in it instead of one allocation per observation.
	var text string
	cur := -1
	for i := range out {
		e := l.entry(i)
		if int(e.chunk) != cur {
			cur = int(e.chunk)
			text = string(l.chunks[cur])
		}
		p := &l.pairs[e.pair]
		out[i] = Observation{Observer: p.observer, Class: p.class, Item: text[e.off:][:e.len]}
	}
	return out
}

// Len returns the number of distinct observations.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Footprint returns the bytes of memory the log's arena, entries and index
// table hold (capacity, not use; the interned names aside). With Len it is
// what a scrape-time gauge needs to watch the one structure in the process
// that only ever grows; it walks the chunk list, so keep it off the submit
// path.
func (l *Log) Footprint() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	bytes := len(l.entries)*entryBlock*entryBytes + 4*len(l.table)
	for _, c := range l.chunks {
		bytes += cap(c)
	}
	return bytes
}

// Policy decides whether an observation is authorized. Experiments encode
// the paper's confidentiality requirements as policies and assert zero
// violations.
type Policy func(o Observation) bool

// Violations returns every observation the policy rejects.
func (l *Log) Violations(allowed Policy) []Observation {
	var out []Observation
	for _, o := range l.All() {
		if !allowed(o) {
			out = append(out, o)
		}
	}
	return out
}

// Matrix summarizes, for one data class, which observer saw which items:
// observer -> sorted item list. The benchmark harness prints these as the
// leakage tables of experiments E3–E6.
func (l *Log) Matrix(class DataClass) map[string][]string {
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
