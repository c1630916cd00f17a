package audit

import (
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// observationLog is the query surface Log and refLog share.
type observationLog interface {
	Record(observer string, class DataClass, item string)
	Saw(observer string, class DataClass, item string) bool
	SawAny(observer string, class DataClass) bool
	ItemsSeen(observer string, class DataClass) []string
	Observers(class DataClass, item string) []string
	All() []Observation
	Len() int
	Violations(allowed Policy) []Observation
	Matrix(class DataClass) map[string][]string
}

// collidingLog is a Log whose hashes keep only the bits in mask, so every
// probe walks past unequal candidates with the same tag and position.
func collidingLog(mask uint64) *Log {
	l := NewLog()
	l.mask = mask
	return l
}

// subjects are the implementations held to the reference: the Log as
// shipped, and two with most or nearly all of their hashes colliding.
func subjects() map[string]observationLog {
	return map[string]observationLog{
		"log":         NewLog(),
		"collide-256": collidingLog(0xff),
		"collide-4":   collidingLog(3),
	}
}

// diverges returns how got's answers differ from the reference's, or nil.
// ops is what was recorded; it supplies the names to probe with, alongside
// a few that were never recorded.
func diverges(got, want observationLog, ops []Observation) error {
	if g, w := got.Len(), want.Len(); g != w {
		return fmt.Errorf("Len = %d, reference %d", g, w)
	}
	if g, w := got.All(), want.All(); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("All diverges from the reference (%d vs %d observations)", len(g), len(w))
	}
	observers := map[string]bool{"": true, "never-recorded": true}
	classes := map[DataClass]bool{"": true, "never-recorded": true}
	items := map[string]bool{"": true, "never-recorded": true}
	for _, o := range ops {
		// The reference answers each query below by walking its whole map,
		// so probe a few hundred names; All and Matrix cover the rest.
		if len(observers) < 300 {
			observers[o.Observer] = true
		}
		if len(items) < 300 {
			items[o.Item] = true
		}
		classes[o.Class] = true
	}
	for c := range classes {
		if g, w := got.Matrix(c), want.Matrix(c); !reflect.DeepEqual(g, w) {
			return fmt.Errorf("Matrix(%q) = %v, reference %v", c, g, w)
		}
		for o := range observers {
			if g, w := got.SawAny(o, c), want.SawAny(o, c); g != w {
				return fmt.Errorf("SawAny(%q, %q) = %v, reference %v", o, c, g, w)
			}
			if g, w := got.ItemsSeen(o, c), want.ItemsSeen(o, c); !reflect.DeepEqual(g, w) {
				return fmt.Errorf("ItemsSeen(%q, %q): %d items, reference %d", o, c, len(g), len(w))
			}
		}
		for it := range items {
			if g, w := got.Observers(c, it), want.Observers(c, it); !reflect.DeepEqual(g, w) {
				return fmt.Errorf("Observers(%q, %d-byte item) = %v, reference %v", c, len(it), g, w)
			}
		}
	}
	// Saw: every recorded triple, and each with one coordinate swapped for
	// a neighbour's, which is mostly unrecorded.
	for i, o := range ops {
		n := ops[(i+1)%len(ops)]
		for _, p := range []Observation{o, {n.Observer, o.Class, o.Item}, {o.Observer, n.Class, o.Item}, {o.Observer, o.Class, n.Item}} {
			if g, w := got.Saw(p.Observer, p.Class, p.Item), want.Saw(p.Observer, p.Class, p.Item); g != w {
				return fmt.Errorf("Saw(%q, %q, %d-byte item) = %v, reference %v", p.Observer, p.Class, len(p.Item), g, w)
			}
		}
	}
	for _, allowed := range []Policy{
		func(o Observation) bool { return o.Class != ClassTxData },
		func(o Observation) bool { return len(o.Item)%2 == 0 },
	} {
		if g, w := got.Violations(allowed), want.Violations(allowed); !reflect.DeepEqual(g, w) {
			return fmt.Errorf("Violations: %d, reference %d", len(g), len(w))
		}
	}
	return nil
}

// TestModel replays seeded random Record sequences into the Log and the
// reference and requires every query to agree, mid-sequence and at the end.
func TestModel(t *testing.T) {
	names := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s-%d", prefix, i)
		}
		return out
	}
	classes := []DataClass{ClassIdentity, ClassRelationship, ClassTxData, ClassTxHash, ClassTxMetadata, "", "tx\x00data"}
	awkward := []string{"", "\x00", "\x00\x00", "a", "a\x00", "\x00a", "a\x00b", "ab", "b"}
	long := []string{
		strings.Repeat("k", largeForm-1), // the longest form a chunk holds
		strings.Repeat("k", chunkSize-1), strings.Repeat("k", chunkSize), strings.Repeat("k", chunkSize+1),
		strings.Repeat("m", 2*chunkSize+7), strings.Repeat("k", chunkSize+1) + "\x00",
	}
	var ragged []string // lengths that leave every remainder at a chunk's end
	for i := 0; i < 400; i++ {
		ragged = append(ragged, strings.Repeat(string(rune('a'+i%26)), i*13))
	}
	ids := []string{"", "0", "00", "0f", "ab", "\xab", "\x0f", "abc", "0123", "01234567", "0123456789"}
	for i := 0; i < 40; i++ {
		var id [32]byte
		fillID(&id, i*0x9e3779b1)
		s := string(id[:])
		raw, _ := hex.DecodeString(s)
		ids = append(ids,
			s,                          // an ID, stored packed
			strings.ToUpper(s),         // its uppercase twin, stored verbatim
			s[:31],                     // 31 digits: odd, stored verbatim
			s+"a",                      // 33 digits, likewise
			string(raw),                // raw bytes equal to its packed form
			strings.Repeat(s, 4),       // 128 digits, the longest ID
			strings.Repeat(s, 4)+s[:2], // 130 digits, too long to pack
			s[:30]+"g"+s[31:],          // one digit off the alphabet
		)
	}
	scenarios := []struct {
		name      string
		observers []string
		classes   []DataClass
		items     []string
		ops       int
		// replicas, if not 0, makes the first replicas observers record each
		// drawn (class, item) back to back, as a cluster's replicas do, with
		// the next observer now and then writing a drawn observation of its
		// own between them.
		replicas int
	}{
		{"repeats", append(names("op", 6), "", "op\x00"), classes, append(names("tx", 300), awkward...), 3000, 0},
		{"thousands of observers", names("peer", 2500), classes[:2], names("tx", 20), 3000, 0},
		{"items longer than a chunk", names("op", 3), classes[:3], append(long, awkward...), 150, 0},
		{"chunk boundaries", names("op", 2), classes[:2], ragged, 1500, 0},
		{"packed IDs", names("op", 3), classes[:3], ids, 3000, 0},
		{"replicas", append(names("replica", 3), "writer"), classes[:3], append(ids, long[:2]...), 3000, 3},
	}
	for _, sc := range scenarios {
		for name, got := range subjects() {
			t.Run(sc.name+"/"+name, func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(18))
				var ops []Observation
				for len(ops) < sc.ops {
					o := Observation{
						Observer: sc.observers[rng.Intn(len(sc.observers))],
						Class:    sc.classes[rng.Intn(len(sc.classes))],
						Item:     sc.items[rng.Intn(len(sc.items))],
					}
					if len(ops) > 0 && rng.Intn(4) == 0 {
						o = ops[rng.Intn(len(ops))] // an exact repeat
					}
					if sc.replicas == 0 {
						ops = append(ops, o)
						continue
					}
					for _, replica := range sc.observers[:sc.replicas] {
						if rng.Intn(3) == 0 {
							ops = append(ops, Observation{sc.observers[sc.replicas], sc.classes[rng.Intn(len(sc.classes))], sc.items[rng.Intn(len(sc.items))]})
						}
						ops = append(ops, Observation{replica, o.Class, o.Item})
					}
				}
				want := newRefLog()
				for i, o := range ops {
					got.Record(o.Observer, o.Class, o.Item)
					want.Record(o.Observer, o.Class, o.Item)
					if g, w := got.Len(), want.Len(); g != w {
						t.Fatalf("after op %d: Len = %d, reference %d", i, g, w)
					}
					if i == len(ops)/3 || i == len(ops)-1 {
						if err := diverges(got, want, ops[:i+1]); err != nil {
							t.Fatalf("after op %d: %v", i, err)
						}
					}
				}
			})
		}
	}
}

// TestQueriesCrossEntryBlocks holds a log of three entry blocks to the
// reference: queries build one string per block, and three replicas share
// stored IDs across block ends. TestModel's logs stay inside one block, so
// that its colliding subjects, which probe every entry, stay quick.
func TestQueriesCrossEntryBlocks(t *testing.T) {
	got, want := NewLog(), newRefLog()
	var ops []Observation
	for i := 0; len(ops) < 2*entryBlock+entryBlock/2; i++ {
		var id [32]byte
		fillID(&id, i)
		for _, op := range []string{"replica-0", "replica-1", "replica-2"} {
			ops = append(ops, Observation{op, ClassTxMetadata, string(id[:])})
		}
		ops = append(ops, Observation{"writer", ClassTxData, fmt.Sprint("tx-", i)})
	}
	for _, o := range ops {
		got.Record(o.Observer, o.Class, o.Item)
		want.Record(o.Observer, o.Class, o.Item)
	}
	if err := diverges(got, want, ops); err != nil {
		t.Fatal(err)
	}
}

// fuzzOps decodes fuzz input into Record calls: three length bytes, then
// the observer, class and item they measure. Names are at most three and
// two bytes long so that repeats are common; an item length byte of 250 or
// more prefixes the item with more than a chunk of filler, eight times at
// most to keep an input cheap. The first length byte's top bit makes the
// item hex: the item length byte, modulo 140, counts digits, each input
// byte supplies two of them, and the next bit picks uppercase, so that IDs
// of every length a packed form can have, and a few it cannot, are common.
func fuzzOps(data []byte) []Observation {
	var ops []Observation
	long := 0
	take := func(n int) string {
		n = min(n, len(data))
		s := string(data[:n])
		data = data[n:]
		return s
	}
	for len(data) >= 3 {
		no, nc, ni := int(data[0]%4), int(data[1]%3), int(data[2])
		hexItem, upper := data[0]&0x80 != 0, data[0]&0x40 != 0
		data = data[3:]
		o := Observation{Observer: take(no), Class: DataClass(take(nc))}
		if hexItem {
			digits := ni % 140
			o.Item = hex.EncodeToString([]byte(take((digits + 1) / 2)))
			o.Item = o.Item[:min(digits, len(o.Item))]
			if upper {
				o.Item = strings.ToUpper(o.Item)
			}
			ops = append(ops, o)
			continue
		}
		o.Item = take(ni % 50)
		if ni >= 250 && long < 8 {
			long++
			o.Item = strings.Repeat("L", chunkSize+ni-250) + o.Item
		}
		ops = append(ops, o)
	}
	return ops
}

// FuzzLogRecord holds the Log, with and without forced hash collisions, to
// the reference on fuzzed Record sequences.
func FuzzLogRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x01\x02ocit\x01\x01\x02ocit\x01\x01\x02ocix"))
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x01\x00\x00o\x00\x01\x00c\x00\x00\x01i"))
	f.Add([]byte("\x02\x01\xfaopcitem\x02\x01\xfaopcitem\x02\x01\xfbopcitem\x01\x00\x03\x00\x00\x00\x00"))
	// A 32-digit ID twice, its uppercase twin, its packed bytes as a raw
	// item, then 128, 130, 31 and 0 digits.
	id := "\xab\xcd\xef\x01\x23\x45\x67\x89\xab\xcd\xef\x01\x23\x45\x67\x89"
	long := strings.Repeat(id, 5)
	f.Add([]byte("\x81\x01\x20oc" + id + "\x81\x01\x20oc" + id + "\xc1\x01\x20oc" + id + "\x01\x01\x10oc" + id +
		"\x81\x01\x80oc" + long[:64] + "\x81\x01\x82oc" + long[:65] + "\x81\x01\x1foc" + id + "\x81\x01\x00oc"))
	// Three replicas record one ID back to back, a fourth writer's items
	// between them; then the same ID under another class.
	f.Add([]byte("\x81\x01\x20ac" + id + "\x01\x01\x02wczz" + "\x81\x01\x20bc" + id + "\x81\x01\x20wc" + long[16:32] +
		"\x81\x01\x20cc" + id + "\x81\x01\x20ad" + id))
	// An ID then its raw packed bytes, and the other way round: they share
	// stored bytes and stay two observations each time.
	f.Add([]byte("\x81\x01\x20oc" + id + "\x01\x01\x10oc" + id + "\x01\x01\x10pc" + id + "\x81\x01\x20pc" + id))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := fuzzOps(data)
		if len(ops) == 0 {
			return
		}
		want := newRefLog()
		for _, o := range ops {
			want.Record(o.Observer, o.Class, o.Item)
		}
		for name, got := range subjects() {
			for _, o := range ops {
				got.Record(o.Observer, o.Class, o.Item)
			}
			if err := diverges(got, want, ops); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	})
}

// TestEntryIsPointerFree keeps the collector out of the log's history: the
// entry, the index's element and the arena's element must contain nothing
// the collector would have to follow, and Footprint's sizes must be theirs.
func TestEntryIsPointerFree(t *testing.T) {
	var pointerFree func(ty reflect.Type) error
	pointerFree = func(ty reflect.Type) error {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return nil
		case reflect.Array:
			return pointerFree(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if err := pointerFree(ty.Field(i).Type); err != nil {
					return fmt.Errorf("field %s: %w", ty.Field(i).Name, err)
				}
			}
			return nil
		}
		return fmt.Errorf("%s is a %s", ty, ty.Kind())
	}
	log := reflect.TypeOf(Log{})
	elem := func(field string, depth int) reflect.Type {
		f, ok := log.FieldByName(field)
		if !ok {
			t.Fatalf("Log has no field %s", field)
		}
		ty := f.Type
		for ; depth > 0; depth-- {
			ty = ty.Elem()
		}
		return ty
	}
	for _, c := range []struct {
		what string
		ty   reflect.Type
	}{
		{"entries element", elem("entries", 2)},
		{"index element", elem("index", 1)},
		{"arena element", elem("chunks", 2)},
		{"large form element", elem("large", 2)},
	} {
		if err := pointerFree(c.ty); err != nil {
			t.Errorf("%s holds a pointer: %v", c.what, err)
		}
	}
	if got := elem("entries", 2).Size(); got != entryBytes {
		t.Errorf("entry is %d bytes, entryBytes says %d", got, entryBytes)
	}
	if got := elem("index", 1).Size(); got != groupBytes {
		t.Errorf("index group is %d bytes, groupBytes says %d", got, groupBytes)
	}
}

// TestRecordLimits pins the arena's edge cases and the log's limits: the
// empty item is an item like any other, a form of largeForm bytes or more is
// stored whole outside the chunks, an entry's fields do not overlap, and
// Record panics at 2^15 pairs and at a full arena without changing any
// answer.
func TestRecordLimits(t *testing.T) {
	if maxPairs != 1<<15 || maxChunks*chunkSize != 4<<30 || largeForm != 1<<16-1 {
		t.Fatalf("limits moved: %d pairs, %d-byte arena, large forms from %d bytes", maxPairs, maxChunks*chunkSize, largeForm)
	}
	if formBits&((maxPairs-1)<<pairShift) != 0 || uint64(maxPairs-1)<<pairShift > math.MaxUint32 || maxPacked >= largeForm {
		t.Fatal("an entry's pair, packed flag and length overlap")
	}
	l := NewLog()
	huge := strings.Repeat("h", 3*chunkSize+1)
	l.Record("o", ClassTxData, "")
	l.Record("o", ClassTxData, huge)
	l.Record("o", ClassTxData, "after")
	l.Record("", "", "")
	l.Record("o", ClassTxData, huge[:largeForm])   // the shortest large form
	l.Record("o", ClassTxData, huge[:largeForm-1]) // the longest form in a chunk
	want := []Observation{{"o", ClassTxData, ""}, {"o", ClassTxData, huge}, {"o", ClassTxData, "after"}, {"", "", ""},
		{"o", ClassTxData, huge[:largeForm]}, {"o", ClassTxData, huge[:largeForm-1]}}
	if got := l.All(); !reflect.DeepEqual(got, want) {
		t.Fatalf("All = %d observations, want the %d recorded", len(got), len(want))
	}
	if !l.Saw("o", ClassTxData, "") || !l.Saw("o", ClassTxData, huge) || l.Saw("o", ClassTxData, huge[1:]) {
		t.Fatal("Saw disagrees with what was recorded")
	}
	if got := l.Footprint(); got < len(huge) {
		t.Fatalf("Footprint = %d, want at least the %d-byte item", got, len(huge))
	}
	var none *Log
	if got := none.Footprint(); got != 0 {
		t.Fatalf("nil log Footprint = %d", got)
	}

	mustPanic := func(what string, record func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		record()
	}
	l = NewLog()
	for i := range maxPairs {
		l.Record(fmt.Sprint(i), ClassTxData, "x")
	}
	mustPanic("pair 2^15+1", func() { l.Record("one too many", ClassTxData, "x") })
	if l.Len() != maxPairs || l.SawAny("one too many", ClassTxData) || !l.Saw(fmt.Sprint(maxPairs-1), ClassTxData, "x") {
		t.Fatal("the refused pair changed what the log answers")
	}

	// A full arena: every chunk number taken, the last chunk full.
	l = NewLog()
	l.chunks = make([][]byte, maxChunks)
	l.chunks[maxChunks-1] = make([]byte, chunkSize-1, chunkSize)
	// Even one byte: a chunk keeps its last byte free.
	mustPanic("a form past a full arena", func() { l.Record("o", ClassTxData, "x") })
	if l.Len() != 0 || l.SawAny("o", ClassTxData) {
		t.Fatal("the refused form changed what the log answers")
	}
	l.Record("o", ClassTxData, "") // fits the last byte's offset
	l.Record("p", ClassTxData, "") // shares it
	l.Record("o", ClassTxData, huge)
	if got := l.All(); !reflect.DeepEqual(got, []Observation{{"o", ClassTxData, ""}, {"p", ClassTxData, ""}, {"o", ClassTxData, huge}}) {
		t.Fatalf("a full arena refused an empty or a large form: %d observations", len(got))
	}
}

// TestPackIsCanonical holds pack and spell to a digit-at-a-time reading:
// with every byte value at every position of IDs of each length class
// (padded, one word, overlapping words, four words and more), pack accepts
// exactly the lowercase hex digits, and spell gives back what it packed.
func TestPackIsCanonical(t *testing.T) {
	bases := []string{"0f", "0123", "01234a", "0123456789abcdef", "0123456789abcdef01",
		strings.Repeat("9a", 16), strings.Repeat("5e", 20), strings.Repeat("c7", 64)}
	for _, base := range bases {
		for pos := range len(base) {
			for c := range 256 {
				b := []byte(base)
				b[pos] = byte(c)
				var buf [maxPacked]byte
				n, ok := pack(&buf, string(b))
				if want := strings.IndexByte(hexDigits, byte(c)) >= 0; ok != want {
					t.Fatalf("pack(%q) ok = %v, want %v", b, ok, want)
				}
				if !ok {
					continue
				}
				var text [2 * maxPacked]byte
				if got := spell(&text, buf[:n]); string(got) != string(b) {
					t.Fatalf("spell(pack(%q)) = %q", b, got)
				}
			}
		}
	}
	for _, item := range []string{"", "0", "abc", strings.Repeat("0", 130)} {
		var buf [maxPacked]byte
		if _, ok := pack(&buf, item); ok {
			t.Errorf("pack(%d digits) packed an item with no packed form", len(item))
		}
	}
}

// TestPackedBytesAreNotTheID: an ID and a raw item equal to its packed
// bytes share stored bytes, not a stored form, so they stay two
// observations.
func TestPackedBytesAreNotTheID(t *testing.T) {
	l := NewLog()
	id := "00112233445566778899aabbccddeeff"
	raw, _ := hex.DecodeString(id)
	l.Record("o", ClassTxData, id)
	l.Record("o", ClassTxData, string(raw))
	want := []Observation{{"o", ClassTxData, id}, {"o", ClassTxData, string(raw)}}
	if got := l.All(); !reflect.DeepEqual(got, want) {
		t.Fatalf("All = %q, want %q", got, want)
	}
	if !l.Saw("o", ClassTxData, id) || !l.Saw("o", ClassTxData, string(raw)) || l.Saw("o", ClassTxData, strings.ToUpper(id)) {
		t.Fatal("Saw confuses an ID with its packed bytes or its uppercase twin")
	}
}

// TestConcurrentRecordAndQuery runs writers against every kind of reader;
// its value is under -race.
func TestConcurrentRecordAndQuery(t *testing.T) {
	l := NewLog()
	const writers, each = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			observer := fmt.Sprintf("op-%d", w%2) // two writers share each observer
			for i := 0; i < each; i++ {
				l.Record(observer, ClassTxMetadata, fmt.Sprintf("tx-%d", i))
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, read := range []func(){
		func() { l.Saw("op-0", ClassTxMetadata, "tx-7") },
		func() { l.SawAny("op-1", ClassTxMetadata) },
		func() { l.ItemsSeen("op-1", ClassTxMetadata) },
		func() { l.Observers(ClassTxMetadata, "tx-7") },
		func() {
			if all := l.All(); len(all) > 0 && all[0].Item != "tx-0" {
				t.Errorf("first observation is %v", all[0])
			}
		},
		func() { l.Len(); l.Footprint(); l.Matrix(ClassTxMetadata) },
	} {
		readers.Add(1)
		go func(read func()) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					read()
				}
			}
		}(read)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := l.Len(); got != 2*each {
		t.Fatalf("Len = %d, want %d", got, 2*each)
	}
}

// BenchmarkRecord prices Record in isolation, on the Log and on the
// reference it replaced: a duplicate, a new item, and a new item seen by
// three replicas in turn (observation i is item i/3 seen by replica i%3),
// each item 32 bytes built on the caller's stack, either an ID (lowercase
// hex, stored packed) or the same shape in letters that are not hex digits
// (stored verbatim). The calls are on concrete types so that escape analysis
// sees through them, as it does at the real call sites.
func BenchmarkRecord(b *testing.B) {
	replicas := []string{"orderer-op-0", "orderer-op-1", "orderer-op-2"}
	for _, item := range []struct {
		name   string
		digits string
	}{
		{"id", "0123456789abcdef"},
		{"verbatim", "ghijklmnopqrstuv"},
	} {
		for _, c := range []struct {
			name string
			new  func() func(observer string, n int)
		}{
			{"log", func() func(string, int) {
				l := NewLog()
				return func(observer string, n int) {
					var id [32]byte
					fillDigits(&id, n, item.digits)
					l.Record(observer, ClassTxMetadata, string(id[:]))
				}
			}},
			{"reference", func() func(string, int) {
				l := newRefLog()
				return func(observer string, n int) {
					var id [32]byte
					fillDigits(&id, n, item.digits)
					l.Record(observer, ClassTxMetadata, string(id[:]))
				}
			}},
		} {
			for _, row := range []struct {
				name string
				obs  func(i int) (observer string, n int)
			}{
				{"duplicate", func(int) (string, int) { return replicas[0], 0 }},
				{"new", func(i int) (string, int) { return replicas[0], i }},
				{"replicas", func(i int) (string, int) { return replicas[i%3], i / 3 }},
			} {
				b.Run(c.name+"/"+item.name+"/"+row.name, func(b *testing.B) {
					record := c.new()
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						record(row.obs(i))
					}
				})
			}
		}
	}
}

// fillID writes n as 32 lowercase hex digits, the shape of a submission ID.
func fillID(id *[32]byte, n int) {
	fillDigits(id, n, "0123456789abcdef")
}

// fillDigits writes n as 32 digits drawn from the 16 in digits.
func fillDigits(id *[32]byte, n int, digits string) {
	for i := range id {
		id[i] = digits[(n>>(4*(i%8)))&15]
	}
}
