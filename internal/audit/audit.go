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
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
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
// Layout. A distinct observation costs about 30 bytes and no pointer, and
// one whose item a recent entry already stores costs about 14. Its item is
// kept in a chunked byte arena in its stored form: an ID (lowercase hex of
// even length, 2-128 digits; every item the submit path records is one)
// packed two digits to a byte, any other item verbatim. When one of the last
// few entries stores the same bytes, the new observation points at them
// instead of copying them: a cluster's replicas record one transaction ID
// back to back, so their observations share one stored ID. One 8-byte entry,
// kept in recording order, locates the stored form (chunk and offset), gives
// its length, says whether it is packed and names the (observer, class) pair
// by its number in a small intern table. A form of 64 KiB-1 bytes or more is
// not in a chunk but in an allocation of its own, which the entry names by
// its number. An open-addressing index finds duplicates. Its slots come in
// groups of eight; a slot holds an entry number and a one-byte tag taken
// from the observation's hash, so a probe compares a group's eight tags at
// once and reads only the entries whose tag matches. Entry blocks, index and
// arena chunks hold no pointers, so the collector never walks the history;
// what it does walk is one slice header per block, chunk or large form and
// the interned names. Blocks and chunks are never reallocated, so the only
// growth that copies (under the lock) is the index's doubling, 5 bytes a
// slot. An observation hashes its stored form and its pair's names, so the
// doubling re-derives every position from the arena and the interned pairs.
//
// Exactness. The log is the evidence behind claims such as "no operator
// saw ClassTxData", so a hash and its tag only ever propose where to look:
// every hit is confirmed by comparing the packed flag, the stored bytes and
// the pair's names, and a hash collision cannot drop, merge or reorder
// observations. Packing is canonical (an item is packed exactly when
// spelling the packed bytes gives it back) and the flag is compared, so two
// stored forms are equal exactly when their items are: a verbatim item that
// equals another item's packed bytes is a different observation, even when
// the two share stored bytes. Sharing changes where bytes are, never what an
// entry says.
//
// Limits. Entry numbers are uint32, so a log holds at most 2^32-2
// observations. Offsets are 16 bits and chunk numbers the other 16, so the
// arena holds at most 2^16 chunks of 64 KiB: 4 GiB of stored forms shorter
// than 64 KiB-1, about 268 million distinct 32-digit IDs if none is shared.
// Pair numbers have 15 bits of an entry, so a log holds at most 2^15
// (observer, class) pairs. Record panics beyond each limit, before it
// changes anything a query can see. Large forms are bounded only by the
// entries.
type Log struct {
	seed maphash.Seed // per log, fixed at construction
	mask uint64       // bits of every hash kept: all of them, but tests force collisions

	mu      sync.Mutex
	pairs   []interned       // interned (observer, class) pairs, by number
	pairNum map[pair]uint32  // pair -> its index in pairs
	n       int              // distinct observations
	entries [][]entry        // entry i, in recording order, is entries[i/entryBlock][i%entryBlock]
	index   []group          // len is a power of two; at most 7/8 of the slots are taken
	chunks  [][]byte         // stored forms shorter than largeForm; only the last chunk has room left
	large   [][]byte         // stored forms of largeForm bytes or more, one each
	recent  [lookBack]uint64 // form sums of the last lookBack entries, by entry number mod lookBack
}

// pair is an (observer, class) combination. A run has a handful of them
// (observers x classes), so entries carry a pair's number, not its names.
type pair struct {
	observer string
	class    DataClass
}

// interned is a pair as the log holds it, with the sum of its names that
// every observation of it hashes with.
type interned struct {
	pair
	sum uint64
}

// entry is one observation. It and group must stay free of pointers
// (strings, slices, maps and interfaces included): TestEntryIsPointerFree
// enforces it.
type entry struct {
	loc  uint32 // chunk<<chunkBits | offset of the stored form, or a large form's index in Log.large
	meta uint32 // pair number<<pairShift | packed if stored packed | the stored length, or largeForm
}

// pairOf returns e's index into Log.pairs.
func (e *entry) pairOf() uint32 {
	return e.meta >> pairShift
}

// group is eight index slots. Slot i holds an entry number in nums[i] and
// that observation's tag (tagOf) in tags[i]; tag 0 marks it empty.
type group struct {
	tags [groupSlots]uint8
	nums [groupSlots]uint32
}

const (
	entryBytes = 8                     // size of an entry, for Footprint
	entryBlock = 4096                  // entries per block (32 KiB)
	chunkBits  = 16                    // bits of an arena offset, and of a stored length
	chunkSize  = 1 << chunkBits        // arena chunk capacity (64 KiB)
	maxChunks  = 1 << (32 - chunkBits) // arena chunks a location can name
	groupSlots = 8                     // index slots per group
	groupBytes = 40                    // size of a group, for Footprint
	minGroups  = 2                     // initial index groups
	lookBack   = 4                     // recent entries whose stored bytes a new observation may share

	largeForm = chunkSize - 1         // length field of a form this long or longer, kept in Log.large
	packed    = 1 << chunkBits        // meta bit: the stored form is packed hex digits
	formBits  = packed | largeForm    // the meta bits that describe the stored form
	pairShift = chunkBits + 1         // meta bits below the pair number
	maxPairs  = 1 << (32 - pairShift) // (observer, class) pairs a log can hold
	maxPacked = 64                    // longest packed form: 128 digits
	hexDigits = "0123456789abcdef"

	golden = 0x9e3779b97f4a7c15 // 2^64 / golden ratio, odd: a multiplier that mixes
	ones   = 0x0101010101010101 // one in every byte of a word
	highs  = ones * 0x80        // every byte's top bit
)

// NewLog creates an empty observation log.
func NewLog() *Log {
	return &Log{
		seed:    maphash.MakeSeed(),
		mask:    math.MaxUint64,
		pairNum: make(map[pair]uint32),
		index:   make([]group, minGroups),
	}
}

// key is how an item is stored: verbatim, or, if it is an ID, its digits
// packed into buf. form is an entry's form bits (formBits) for it. A key
// does not hold the item, so that the item does not escape: methods take it
// alongside.
type key struct {
	form uint32
	buf  [maxPacked]byte
}

// set makes k item's key. Only an item that starts with a lowercase hex
// digit is tried for packing, which turns most other items away cheaply.
func (k *key) set(item string) {
	k.form = uint32(min(len(item), largeForm))
	if len(item) > 0 && isHexDigit(item[0]) {
		if n, ok := pack(&k.buf, item); ok {
			k.form = uint32(n) | packed
		}
	}
}

// packedForm returns the packed digits, or nil if the item is stored
// verbatim.
func (k *key) packedForm() []byte {
	if k.form&packed == 0 {
		return nil
	}
	return k.buf[:k.form&largeForm]
}

// sum hashes the stored form of item, whose key k is.
func (k *key) sum(seed maphash.Seed, item string) uint64 {
	if p := k.packedForm(); p != nil {
		return maphash.Bytes(seed, p)
	}
	return maphash.String(seed, item)
}

// is reports whether stored holds the bytes of the stored form of item,
// whose key k is. Whether the form is packed is the caller's to compare.
func (k *key) is(item string, stored []byte) bool {
	if p := k.packedForm(); p != nil {
		return string(stored) == string(p)
	}
	return string(stored) == item
}

// Record notes that observer saw item. Duplicate observations collapse.
// All three arguments are copied, never retained, so a caller may build the
// item in a stack buffer and pass string(buf[:]) without allocating.
func (l *Log) Record(observer string, class DataClass, item string) {
	if l == nil {
		return // substrates may run without accounting
	}
	var k key
	k.set(item)
	ps := l.pairSum(observer, class)
	fs := k.sum(l.seed, item) & l.mask
	h := l.hash(fs, ps)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.find(h, observer, class, item, &k) {
		return
	}
	if uint64(l.n) >= math.MaxUint32-1 {
		panic("audit: log is full (2^32-2 observations)")
	}
	// store and intern panic at their limits before they change anything
	// but the arena, where bytes no entry locates are never read.
	e := entry{loc: l.store(item, &k, fs)}
	e.meta = l.intern(observer, class, ps)<<pairShift | k.form
	if 8*(l.n+1) > 7*groupSlots*len(l.index) {
		l.grow()
	}
	if l.n%entryBlock == 0 {
		l.entries = append(l.entries, make([]entry, entryBlock))
	}
	*l.entry(l.n) = e
	l.recent[l.n%lookBack] = fs
	place(l.index, h, uint32(l.n))
	l.n++
}

// pairSum hashes an (observer, class) pair's names.
func (l *Log) pairSum(observer string, class DataClass) uint64 {
	return maphash.String(l.seed, observer)*golden + maphash.String(l.seed, string(class))
}

// hash places an observation in the index: it mixes the sums of the stored
// form and of the pair's names. Nothing relies on it being collision-free,
// only on equal observations hashing equally.
func (l *Log) hash(formSum, pairSum uint64) uint64 {
	return (formSum*golden + pairSum) & l.mask
}

// tagOf is the tag an index slot holding an observation with hash h
// carries: h's top byte, lifted off 0, which marks an empty slot.
func tagOf(h uint64) uint8 {
	return max(uint8(h>>56), 1)
}

// zeros returns the top bit of every zero byte of w, and no other bit.
func zeros(w uint64) uint64 {
	const low7 = ^uint64(highs)
	return ^(w&low7 + low7 | w | low7)
}

// entry returns entry number i.
func (l *Log) entry(i int) *entry {
	return &l.entries[i/entryBlock][i%entryBlock]
}

// find reports whether observer's observation of item, whose key is k and
// which hashes to h, is recorded. It probes from h's group to the first
// group with an empty slot and compares in full every candidate whose tag
// matches. Nothing is ever removed, so an observation is never past such a
// group: place put it in the first group that had room.
func (l *Log) find(h uint64, observer string, class DataClass, item string, k *key) bool {
	tag, mask := tagOf(h), uint64(len(l.index)-1)
	for g := h & mask; ; g = (g + 1) & mask {
		grp := &l.index[g]
		tags := binary.LittleEndian.Uint64(grp.tags[:])
		for m := zeros(tags ^ ones*uint64(tag)); m != 0; m &= m - 1 {
			e := l.entry(int(grp.nums[bits.TrailingZeros64(m)/8]))
			if e.meta&formBits != k.form || !k.is(item, l.stored(e)) {
				continue
			}
			if p := &l.pairs[e.pairOf()]; p.observer == observer && p.class == class {
				return true
			}
		}
		if zeros(tags) != 0 {
			return false
		}
	}
}

// place writes entry number n, tagged, into the first empty slot of the
// first group at or after h's that has one. The index always has one: it
// is at most 7/8 full.
func place(index []group, h uint64, n uint32) {
	mask := uint64(len(index) - 1)
	for g := h & mask; ; g = (g + 1) & mask {
		grp := &index[g]
		if empty := zeros(binary.LittleEndian.Uint64(grp.tags[:])); empty != 0 {
			i := bits.TrailingZeros64(empty) / 8
			grp.tags[i], grp.nums[i] = tagOf(h), n
			return
		}
	}
}

// grow doubles the index, re-hashing every observation from its stored form
// and its pair's sum. It hashes a batch of entries before placing them, so
// that the placements' cache misses overlap instead of queueing behind the
// hashing.
func (l *Log) grow() {
	index := make([]group, 2*len(l.index))
	var sums [256]uint64
	for first := 0; first < l.n; first += len(sums) {
		batch := sums[:min(len(sums), l.n-first)]
		for i := range batch {
			e := l.entry(first + i)
			batch[i] = l.hash(maphash.Bytes(l.seed, l.stored(e)), l.pairs[e.pairOf()].sum)
		}
		for i, h := range batch {
			place(index, h, uint32(first+i))
		}
	}
	l.index = index
}

// store returns the location (entry.loc) of the stored form of item, whose
// key k is and whose bytes sum to sum. If one of the last lookBack entries
// stores the same bytes, it is theirs; their sums are compared first, so
// that a miss compares no bytes. Otherwise store copies the form: a large
// one into an allocation of its own, any other into the last arena chunk,
// or into a new chunk if it would fill that one. A chunk keeps its last
// byte free so that every offset, even an empty form's at a chunk's end,
// fits chunkBits bits.
func (l *Log) store(item string, k *key, sum uint64) uint32 {
	n := k.form & largeForm
	if n == largeForm {
		l.large = append(l.large, []byte(item))
		return uint32(len(l.large) - 1)
	}
	for i := l.n - 1; i >= max(l.n-lookBack, 0); i-- {
		if l.recent[i%lookBack] != sum {
			continue
		}
		if e := l.entry(i); k.is(item, l.stored(e)) {
			return e.loc
		}
	}
	last := len(l.chunks) - 1
	if last < 0 || len(l.chunks[last])+int(n) >= chunkSize {
		if len(l.chunks) == maxChunks {
			panic("audit: arena is full (2^16 chunks of 64 KiB)")
		}
		l.chunks = append(l.chunks, make([]byte, 0, chunkSize))
		last++
	}
	c := l.chunks[last]
	if p := k.packedForm(); p != nil {
		l.chunks[last] = append(c, p...)
	} else {
		l.chunks[last] = append(c, item...)
	}
	return uint32(last)<<chunkBits | uint32(len(c))
}

// intern returns the number of the (observer, class) pair, whose names sum
// to sum, adding it, with its own copies of the names, on first sight.
func (l *Log) intern(observer string, class DataClass, sum uint64) uint32 {
	n, ok := l.pairNum[pair{observer, class}]
	if !ok {
		if len(l.pairs) == maxPairs {
			panic("audit: too many (observer, class) pairs (2^15)")
		}
		p := pair{strings.Clone(observer), DataClass(strings.Clone(string(class)))}
		n = uint32(len(l.pairs))
		l.pairs = append(l.pairs, interned{p, sum})
		l.pairNum[p] = n
	}
	return n
}

// stored returns e's stored form, aliasing the arena.
func (l *Log) stored(e *entry) []byte {
	n := e.meta & largeForm
	if n == largeForm {
		return l.large[e.loc]
	}
	return l.chunks[e.loc>>chunkBits][e.loc&(chunkSize-1):][:n]
}

// item returns e's item: its stored form or, if that is packed, its digits
// spelled out into buf.
func (l *Log) item(buf *[2 * maxPacked]byte, e *entry) []byte {
	if e.meta&packed == 0 {
		return l.stored(e)
	}
	return spell(buf, l.stored(e))
}

// textLen is the length of e's item.
func (l *Log) textLen(e *entry) int {
	if e.meta&packed != 0 {
		return 2 * int(e.meta&largeForm)
	}
	return len(l.stored(e))
}

// pack writes item's digits into buf, two to a byte, and reports whether
// item is an ID: lowercase hex of even length, 2 to 2*maxPacked digits.
// Packing is canonical: uppercase digits and odd lengths are not IDs, since
// spelling the packed bytes could not give them back.
func pack(buf *[maxPacked]byte, item string) (n int, ok bool) {
	n = len(item) / 2
	if n == 0 || n > maxPacked || len(item)%2 != 0 {
		return 0, false
	}
	if n < 4 {
		x := uint64(ones * '0') // a short ID's digits, padded with '0'
		for i := range len(item) {
			x = x&^(0xff<<(8*i)) | uint64(item[i])<<(8*i)
		}
		binary.LittleEndian.PutUint32(buf[:], pack8(x))
		return n, notHex(x) == 0
	}
	// Thirty-two digits at a time while they last, as four independent
	// words, then eight; the last eight may overlap the eight before.
	var bad uint64
	var i uint
	for ; i+32 <= uint(len(item)); i += 32 {
		a, b, c, d := load64(item[i:]), load64(item[i+8:]), load64(item[i+16:]), load64(item[i+24:])
		bad |= notHex(a) | notHex(b) | notHex(c) | notHex(d)
		binary.LittleEndian.PutUint64(buf[i/2:], uint64(pack8(a))|uint64(pack8(b))<<32)
		binary.LittleEndian.PutUint64(buf[i/2+8:], uint64(pack8(c))|uint64(pack8(d))<<32)
	}
	for ; i < uint(len(item)); i += 8 {
		i = min(i, uint(len(item))-8)
		x := load64(item[i:])
		bad |= notHex(x)
		binary.LittleEndian.PutUint32(buf[i/2:], pack8(x))
	}
	return n, bad == 0
}

// isHexDigit reports whether c is a lowercase hex digit.
func isHexDigit(c byte) bool {
	return c-'0' < 10 || c-'a' < 6
}

// load64 returns s's first eight bytes, the first in the low byte.
func load64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// notHex is 0 if every byte of x is a lowercase hex digit. With every byte
// below 0x80, adding 0x80-c to each never carries into the next and leaves
// a byte's top bit set exactly if it was >= c.
func notHex(x uint64) uint64 {
	digit := (x + ones*(0x80-'0')) &^ (x + ones*(0x80-'9'-1))
	letter := (x + ones*(0x80-'a')) &^ (x + ones*(0x80-'f'-1))
	return (x | ^(digit | letter)) & highs
}

// pack8 packs eight lowercase hex digits, the first in x's low byte, into
// the four bytes they spell, the first in the result's low byte.
func pack8(x uint64) uint32 {
	const lanes = 0x00ff00ff00ff00ff
	v := x&(ones*0x0f) + (x>>6&ones)*9 // each digit's value: 'a' is 0x61, bit 6 set
	v = (v<<4 | v>>8) & lanes          // each 16-bit lane: its two digits' byte
	v = (v | v>>8) & 0x0000ffff0000ffff
	return uint32(v | v>>16)
}

// spell writes the bytes of src, at most maxPacked of them, into buf as
// lowercase hex digits, the high digit of each byte first, and returns them.
func spell(buf *[2 * maxPacked]byte, src []byte) []byte {
	if len(src) < 4 {
		for i, c := range src {
			buf[2*i], buf[2*i+1] = hexDigits[c>>4], hexDigits[c&15]
		}
		return buf[:2*len(src)]
	}
	for i := 0; i < len(src); i += 4 {
		i = min(i, len(src)-4) // the last four bytes may overlap the four before
		binary.LittleEndian.PutUint64(buf[2*i:], hex8(binary.LittleEndian.Uint32(src[i:])))
	}
	return buf[:2*len(src)]
}

// hex8 spells the four bytes of b, the first in its low byte, as eight
// lowercase hex digits, the first in the result's low byte.
func hex8(b uint32) uint64 {
	const nibbles = 0x000f000f000f000f
	v := uint64(b)
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff // each 16-bit lane: one byte of b
	v = v>>4&nibbles | (v&nibbles)<<8   // each byte: one digit's value
	return v + ones*'0' + (v+ones*6)>>4&ones*('a'-'0'-10)
}

// expand calls visit, in recording order, with the number and the item of
// every entry of pair p, or of every entry if p is negative, packed IDs
// spelled out. The items of one entry block share one string, so a query
// allocates once per block it reads from, not once per observation.
func (l *Log) expand(p int, visit func(i int, item string)) {
	keep := func(e *entry) bool { return p < 0 || int(e.pairOf()) == p }
	var buf [2 * maxPacked]byte
	for first := 0; first < l.n; first += entryBlock {
		block := l.entries[first/entryBlock][:min(entryBlock, l.n-first)]
		size := 0
		for i := range block {
			if e := &block[i]; keep(e) {
				size += l.textLen(e)
			}
		}
		var b strings.Builder
		b.Grow(size)
		for i := range block {
			if e := &block[i]; keep(e) {
				b.Write(l.item(&buf, e))
			}
		}
		text := b.String()
		for i := range block {
			if e := &block[i]; keep(e) {
				n := l.textLen(e)
				visit(first+i, text[:n])
				text = text[n:]
			}
		}
	}
}

// Saw reports whether observer recorded an observation of item.
func (l *Log) Saw(observer string, class DataClass, item string) bool {
	if l == nil {
		return false
	}
	var k key
	k.set(item)
	h := l.hash(k.sum(l.seed, item), l.pairSum(observer, class))
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.find(h, observer, class, item, &k)
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
	l.expand(int(p), func(_ int, item string) { out = append(out, item) })
	sort.Strings(out)
	return out
}

// Observers returns the sorted principals that saw the item.
func (l *Log) Observers(class DataClass, item string) []string {
	if l == nil {
		return nil
	}
	var k key
	k.set(item)
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for i := 0; i < l.n; i++ {
		e := l.entry(i)
		if p := &l.pairs[e.pairOf()]; e.meta&formBits == k.form && p.class == class && k.is(item, l.stored(e)) {
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
	l.expand(-1, func(i int, item string) {
		p := &l.pairs[l.entry(i).pairOf()]
		out[i] = Observation{Observer: p.observer, Class: p.class, Item: item}
	})
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
// hold (capacity, not use; the interned names aside). With Len it is what a
// scrape-time gauge needs to watch the one structure in the process that
// only ever grows; it walks the chunk list, so keep it off the submit path.
func (l *Log) Footprint() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	bytes := len(l.entries)*entryBlock*entryBytes + len(l.index)*groupBytes
	for _, c := range l.chunks {
		bytes += cap(c)
	}
	for _, f := range l.large {
		bytes += cap(f)
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
