package audit

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// pairPolicies are pair-level policies, the only kind a presence log judges
// exactly: one rejects a class, one an observer, one everything (so that its
// violations are every pair's evidence).
var pairPolicies = []Policy{
	func(o Observation) bool { return o.Class != ClassTxData },
	func(o Observation) bool { return o.Observer != "op-1" && o.Observer != "replica-2" },
	func(Observation) bool { return false },
}

// firstPerPair keeps the first observation of each (observer, class) pair,
// in order.
func firstPerPair(obs []Observation) []Observation {
	seen := make(map[pair]bool)
	var out []Observation
	for _, o := range obs {
		if p := (pair{o.Observer, o.Class}); !seen[p] {
			seen[p] = true
			out = append(out, o)
		}
	}
	return out
}

// diverges returns how the logs differ from what ops recorded, or nil. The
// history must answer every item query as the reference does, the presence
// log every pair query as the history does, and both must count every
// record. ops supplies the names to probe with, alongside a few that were
// never recorded.
func diverges(presence, history *Log, want *refLog, ops []Observation) error {
	if p, h := presence.Len(), history.Len(); p != len(ops) || h != len(ops) {
		return fmt.Errorf("Len = %d (presence), %d (history), want %d records", p, h, len(ops))
	}
	if p, h := presence.Footprint(), history.Footprint(); p != h {
		return fmt.Errorf("Footprint = %d (presence), %d (history)", p, h)
	}
	all := history.All()
	if w := want.All(); !reflect.DeepEqual(all, w) {
		return fmt.Errorf("All diverges from the reference (%d vs %d observations)", len(all), len(w))
	}
	counts := make(map[pair]int)
	for _, o := range ops {
		counts[pair{o.Observer, o.Class}]++
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
		if g, w := history.Matrix(c), want.Matrix(c); !reflect.DeepEqual(g, w) {
			return fmt.Errorf("Matrix(%q) = %v, reference %v", c, g, w)
		}
		for o := range observers {
			w := want.SawAny(o, c)
			if p, h := presence.SawAny(o, c), history.SawAny(o, c); p != w || h != w {
				return fmt.Errorf("SawAny(%q, %q) = %v (presence), %v (history), reference %v", o, c, p, h, w)
			}
			w2 := counts[pair{o, c}]
			if p, h := presence.Count(o, c), history.Count(o, c); p != w2 || h != w2 {
				return fmt.Errorf("Count(%q, %q) = %d (presence), %d (history), want %d", o, c, p, h, w2)
			}
			if g, w := history.ItemsSeen(o, c), want.ItemsSeen(o, c); !reflect.DeepEqual(g, w) {
				return fmt.Errorf("ItemsSeen(%q, %q): %d items, reference %d", o, c, len(g), len(w))
			}
		}
		for it := range items {
			if g, w := history.Observers(c, it), want.Observers(c, it); !reflect.DeepEqual(g, w) {
				return fmt.Errorf("Observers(%q, %d-byte item) = %v, reference %v", c, len(it), g, w)
			}
		}
	}
	// Saw: every recorded triple, and each with one coordinate swapped for
	// a neighbour's, which is mostly unrecorded.
	for i, o := range ops {
		n := ops[(i+1)%len(ops)]
		for _, p := range []Observation{o, {n.Observer, o.Class, o.Item}, {o.Observer, n.Class, o.Item}, {o.Observer, o.Class, n.Item}} {
			if g, w := history.Saw(p.Observer, p.Class, p.Item), want.Saw(p.Observer, p.Class, p.Item); g != w {
				return fmt.Errorf("Saw(%q, %q, %d-byte item) = %v, reference %v", p.Observer, p.Class, len(p.Item), g, w)
			}
		}
	}
	for i, allowed := range pairPolicies {
		h := history.Violations(allowed)
		if w := want.Violations(allowed); !reflect.DeepEqual(h, w) {
			return fmt.Errorf("policy %d: Violations: %d, reference %d", i, len(h), len(w))
		}
		if p, w := presence.Violations(allowed), firstPerPair(h); !reflect.DeepEqual(p, w) {
			return fmt.Errorf("policy %d: presence Violations = %v, want the history's first per pair %v", i, p, w)
		}
	}
	return nil
}

// TestModel replays seeded random Record sequences into a presence log, a
// history log and the reference, and requires every query to agree,
// mid-sequence and at the end.
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
		strings.Repeat("k", longItem-1), strings.Repeat("k", longItem), strings.Repeat("k", longItem+1),
		strings.Repeat("m", 2*longItem+7), strings.Repeat("k", longItem+1) + "\x00",
	}
	var ragged []string // every length up to several KiB
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
			s,                          // a submission ID
			strings.ToUpper(s),         // its uppercase twin
			s[:31],                     // 31 digits
			s+"a",                      // 33 digits
			string(raw),                // the bytes it spells
			strings.Repeat(s, 4),       // 128 digits
			strings.Repeat(s, 4)+s[:2], // 130 digits
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
		{"many records", append(names("replica", 3), "writer"), []DataClass{ClassTxMetadata, ClassTxData}, names("tx", 4000), 12000, 3},
	}
	for _, sc := range scenarios {
		t.Run(sc.name+"/log", func(t *testing.T) {
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
			presence, history, want := NewLog(), NewHistory(), newRefLog()
			for i, o := range ops {
				presence.Record(o.Observer, o.Class, o.Item)
				history.Record(o.Observer, o.Class, o.Item)
				want.Record(o.Observer, o.Class, o.Item)
				if p, h := presence.Len(), history.Len(); p != i+1 || h != i+1 {
					t.Fatalf("after op %d: Len = %d (presence), %d (history), want %d", i, p, h, i+1)
				}
				if i == len(ops)/3 || i == len(ops)-1 {
					if err := diverges(presence, history, want, ops[:i+1]); err != nil {
						t.Fatalf("after op %d: %v", i, err)
					}
				}
			}
		})
	}
}

// longItem is the length around which the model's long items are drawn.
const longItem = 1 << 16

// fuzzOps decodes fuzz input into Record calls: three length bytes, then
// the observer, class and item they measure. Names are at most three and
// two bytes long so that repeats are common; an item length byte of 250 or
// more prefixes the item with more than 64 KiB of filler, eight times at
// most to keep an input cheap. The first length byte's top bit makes the
// item hex: the item length byte, modulo 140, counts digits, each input
// byte supplies two of them, and the next bit picks uppercase, so that
// submission-shaped IDs of every length are common.
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
			o.Item = strings.Repeat("L", longItem+ni-250) + o.Item
		}
		ops = append(ops, o)
	}
	return ops
}

// FuzzLogRecord records fuzzed sequences into a presence log, a history log
// and the reference: the two logs must agree on SawAny, every pair's count,
// Len and Violations under pair-level policies, and the history must answer
// every item query as the reference does.
func FuzzLogRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x01\x02ocit\x01\x01\x02ocit\x01\x01\x02ocix"))
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x01\x00\x00o\x00\x01\x00c\x00\x00\x01i"))
	f.Add([]byte("\x02\x01\xfaopcitem\x02\x01\xfaopcitem\x02\x01\xfbopcitem\x01\x00\x03\x00\x00\x00\x00"))
	// A 32-digit ID twice, its uppercase twin, the bytes it spells as a raw
	// item, then 128, 130, 31 and 0 digits.
	id := "\xab\xcd\xef\x01\x23\x45\x67\x89\xab\xcd\xef\x01\x23\x45\x67\x89"
	long := strings.Repeat(id, 5)
	f.Add([]byte("\x81\x01\x20oc" + id + "\x81\x01\x20oc" + id + "\xc1\x01\x20oc" + id + "\x01\x01\x10oc" + id +
		"\x81\x01\x80oc" + long[:64] + "\x81\x01\x82oc" + long[:65] + "\x81\x01\x1foc" + id + "\x81\x01\x00oc"))
	// Three replicas record one ID back to back, a fourth writer's items
	// between them; then the same ID under another class.
	f.Add([]byte("\x81\x01\x20ac" + id + "\x01\x01\x02wczz" + "\x81\x01\x20bc" + id + "\x81\x01\x20wc" + long[16:32] +
		"\x81\x01\x20cc" + id + "\x81\x01\x20ad" + id))
	// An ID then the bytes it spells, and the other way round: two
	// observations each time.
	f.Add([]byte("\x81\x01\x20oc" + id + "\x01\x01\x10oc" + id + "\x01\x01\x10pc" + id + "\x81\x01\x20pc" + id))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := fuzzOps(data)
		if len(ops) == 0 {
			return
		}
		presence, history, want := NewLog(), NewHistory(), newRefLog()
		for _, o := range ops {
			presence.Record(o.Observer, o.Class, o.Item)
			history.Record(o.Observer, o.Class, o.Item)
			want.Record(o.Observer, o.Class, o.Item)
		}
		if err := diverges(presence, history, want, ops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPoliciesArePairLevel holds the policies this package's tests judge
// with, and the shape of the repository benchmark's (no operator may see
// transaction data), to what makes a presence log's Violations exact: for
// every (observer, class), one verdict whatever the item.
func TestPoliciesArePairLevel(t *testing.T) {
	operators := map[string]bool{"gateway-op": true, "orderer-op-0": true}
	benchmark := func(o Observation) bool { return !(o.Class == ClassTxData && operators[o.Observer]) }
	member := func(o Observation) bool { return o.Observer == "member" } // TestViolations'
	observers := []string{"", "member", "outsider", "op-1", "replica-2", "gateway-op", "orderer-op-0"}
	items := []string{"", "tx-1", "0123456789abcdef0123456789abcdef", strings.Repeat("k", longItem)}
	for i, policy := range append([]Policy{benchmark, member}, pairPolicies...) {
		if err := pairLevel(policy, observers, items); err != nil {
			t.Errorf("policy %d: %v", i, err)
		}
	}
}

// pairLevel returns an error if the policy gives two verdicts for one
// (observer, class) pair over the items.
func pairLevel(policy Policy, observers, items []string) error {
	for _, observer := range observers {
		for _, class := range append(Classes(), "") {
			first := policy(Observation{observer, class, items[0]})
			for _, item := range items[1:] {
				if policy(Observation{observer, class, item}) != first {
					return fmt.Errorf("(%q, %q): the verdict depends on the item", observer, class)
				}
			}
		}
	}
	return nil
}

// TestRecordLimits pins the presence table's edges: the empty item and an
// item of hundreds of KiB are evidence like any other, and Record panics at
// the 2^15th pair plus one without changing any answer.
func TestRecordLimits(t *testing.T) {
	huge := strings.Repeat("h", 3*longItem+1)
	for _, l := range []*Log{NewLog(), NewHistory()} {
		l.Record("o", ClassTxData, "")
		l.Record("o", ClassTxData, huge)
		l.Record("", "", "")
		l.Record("p", ClassTxData, huge)
		want := []Observation{{"o", ClassTxData, ""}, {"", "", ""}, {"p", ClassTxData, huge}}
		if got := firstPerPair(l.Violations(func(Observation) bool { return false })); !reflect.DeepEqual(got, want) {
			t.Fatalf("evidence = %d observations, want the %d pairs' first", len(got), len(want))
		}
		if got := l.Footprint(); got < len(huge) || got != 3*cellBytes+len(huge)+2*len("o")+2*len(ClassTxData) {
			t.Fatalf("Footprint = %d, want the table's share of 3 pairs and their evidence", got)
		}
	}

	// A full table, built directly: growing it pair by pair copies it each
	// time.
	l := NewLog()
	full := &table{byPair: make(map[pair]*cell, maxPairs)}
	for i := range maxPairs {
		c := &cell{first: Observation{fmt.Sprint(i), ClassTxData, "x"}}
		c.n.Store(1)
		full.byPair[pair{c.first.Observer, ClassTxData}] = c
		full.cells = append(full.cells, c)
	}
	l.table.Store(full)
	defer func() {
		if recover() == nil {
			t.Fatal("pair 2^15+1 did not panic")
		}
		if l.Len() != maxPairs || l.SawAny("one too many", ClassTxData) || l.Count(fmt.Sprint(maxPairs-1), ClassTxData) != 1 {
			t.Fatal("the refused pair changed what the log answers")
		}
		l.Record("0", ClassTxData, "y") // a known pair still records
		if l.Count("0", ClassTxData) != 2 {
			t.Fatal("a full table refused a known pair")
		}
	}()
	l.Record("one too many", ClassTxData, "x")
}

// TestPackedBytesAreNotTheID: items are compared as given, so an ID and the
// bytes its digits spell are two observations of one pair, and its
// uppercase twin is neither.
func TestPackedBytesAreNotTheID(t *testing.T) {
	l := NewHistory()
	id := "00112233445566778899aabbccddeeff"
	raw, _ := hex.DecodeString(id)
	l.Record("o", ClassTxData, id)
	l.Record("o", ClassTxData, string(raw))
	want := []Observation{{"o", ClassTxData, id}, {"o", ClassTxData, string(raw)}}
	if got := l.All(); !reflect.DeepEqual(got, want) {
		t.Fatalf("All = %q, want %q", got, want)
	}
	if !l.Saw("o", ClassTxData, id) || !l.Saw("o", ClassTxData, string(raw)) || l.Saw("o", ClassTxData, strings.ToUpper(id)) {
		t.Fatal("Saw confuses an ID with its bytes or its uppercase twin")
	}
}

// TestConcurrentRecordAndQuery runs writers against every kind of reader;
// its value is under -race.
func TestConcurrentRecordAndQuery(t *testing.T) {
	l := NewHistory()
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
		func() { l.Len(); l.Footprint(); l.Matrix(ClassTxMetadata); l.Violations(pairPolicies[0]) },
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
	if got := l.Len(); got != writers*each {
		t.Fatalf("Len = %d, want %d", got, writers*each)
	}
	if got := len(l.All()); got != 2*each {
		t.Fatalf("%d distinct observations, want %d", got, 2*each)
	}
}

// TestNewPairsRaceHits has writers add pairs while others hit the pairs
// already there, readers asking the pair queries throughout, and then
// requires every record counted: a pair's cell is added once, and the
// table each writer reads holds every count. Its value is under -race.
func TestNewPairsRaceHits(t *testing.T) {
	const writers, pairs, each = 8, 64, 512 // each writer records every pair each/pairs times
	l := NewLog()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				// Each writer walks the pairs from its own offset, so new
				// pairs appear in every writer while others hit old ones.
				p := (w*pairs/writers + i) % pairs
				l.Record(fmt.Sprintf("op-%d", p%16), Classes()[p/16], "tx")
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				l.SawAny("op-3", ClassTxData)
				l.Violations(pairPolicies[0])
				l.Len()
				l.Footprint()
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := l.Len(); got != writers*each {
		t.Fatalf("Len = %d, want %d", got, writers*each)
	}
	for p := 0; p < pairs; p++ {
		if got, want := l.Count(fmt.Sprintf("op-%d", p%16), Classes()[p/16]), writers*each/pairs; got != want {
			t.Fatalf("pair %d counted %d records, want %d", p, got, want)
		}
	}
	if got := len(l.Violations(func(Observation) bool { return false })); got != pairs {
		t.Fatalf("%d pairs hold evidence, want %d", got, pairs)
	}
}

// BenchmarkRecord prices Record in isolation, on a presence log, a history
// and the reference: a duplicate, a new item, and a new item seen by three
// replicas in turn (observation i is item i/3 seen by replica i%3), each a
// 32-digit ID built on the caller's stack. The calls are on concrete types
// so that escape analysis sees through them, as it does at the real call
// sites.
func BenchmarkRecord(b *testing.B) {
	replicas := []string{"orderer-op-0", "orderer-op-1", "orderer-op-2"}
	for _, c := range []struct {
		name string
		new  func() func(observer string, n int)
	}{
		{"log", func() func(string, int) {
			l := NewLog()
			return func(observer string, n int) {
				var id [32]byte
				fillID(&id, n)
				l.Record(observer, ClassTxMetadata, string(id[:]))
			}
		}},
		{"history", func() func(string, int) {
			l := NewHistory()
			return func(observer string, n int) {
				var id [32]byte
				fillID(&id, n)
				l.Record(observer, ClassTxMetadata, string(id[:]))
			}
		}},
		{"reference", func() func(string, int) {
			l := newRefLog()
			return func(observer string, n int) {
				var id [32]byte
				fillID(&id, n)
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
			b.Run(c.name+"/"+row.name, func(b *testing.B) {
				record := c.new()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					record(row.obs(i))
				}
			})
		}
	}
}

// fillID writes n as 32 lowercase hex digits, the shape of a submission ID.
func fillID(id *[32]byte, n int) {
	const digits = "0123456789abcdef"
	for i := range id {
		id[i] = digits[(n>>(4*(i%8)))&15]
	}
}
