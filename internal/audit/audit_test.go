package audit

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestRecordAndSaw(t *testing.T) {
	l := NewHistory()
	l.Record("orderer", ClassTxMetadata, "tx-1")
	if !l.Saw("orderer", ClassTxMetadata, "tx-1") {
		t.Fatal("observation not recorded")
	}
	if l.Saw("orderer", ClassTxData, "tx-1") {
		t.Fatal("wrong class must not match")
	}
	if l.Saw("peer", ClassTxMetadata, "tx-1") {
		t.Fatal("wrong observer must not match")
	}
}

// TestDuplicatesCollapse: a history keeps a repeated observation once, while
// Len and Count count every record.
func TestDuplicatesCollapse(t *testing.T) {
	l := NewHistory()
	l.Record("o", ClassTxData, "x")
	l.Record("o", ClassTxData, "x")
	if got := l.All(); len(got) != 1 {
		t.Fatalf("All = %v, want one observation", got)
	}
	if l.Len() != 2 || l.Count("o", ClassTxData) != 2 {
		t.Fatalf("Len = %d, Count = %d, want 2 records", l.Len(), l.Count("o", ClassTxData))
	}
}

func TestItemsSeenSorted(t *testing.T) {
	l := NewHistory()
	l.Record("o", ClassIdentity, "b")
	l.Record("o", ClassIdentity, "a")
	l.Record("o", ClassTxData, "z")
	got := l.ItemsSeen("o", ClassIdentity)
	if !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("ItemsSeen = %v, want [a b]", got)
	}
}

func TestObservers(t *testing.T) {
	l := NewHistory()
	l.Record("p2", ClassTxData, "tx")
	l.Record("p1", ClassTxData, "tx")
	got := l.Observers(ClassTxData, "tx")
	if !reflect.DeepEqual(got, []string{"p1", "p2"}) {
		t.Fatalf("Observers = %v, want [p1 p2]", got)
	}
}

func TestSawAny(t *testing.T) {
	l := NewLog()
	l.Record("eve", ClassPII, "ssn")
	if !l.SawAny("eve", ClassPII) {
		t.Fatal("SawAny must be true")
	}
	if l.SawAny("eve", ClassTxData) {
		t.Fatal("SawAny wrong class must be false")
	}
}

// TestViolations: a history judges every observation, a presence log each
// pair once, on the pair's first observation.
func TestViolations(t *testing.T) {
	policy := func(o Observation) bool { return o.Observer == "member" }
	history, presence := NewHistory(), NewLog()
	for _, l := range []*Log{history, presence} {
		l.Record("member", ClassTxData, "tx-1")
		l.Record("outsider", ClassTxData, "tx-1")
		l.Record("outsider", ClassTxData, "tx-2")
	}
	if v := history.Violations(policy); len(v) != 2 || v[0].Item != "tx-1" || v[1].Item != "tx-2" {
		t.Fatalf("history Violations = %v, want both outsider observations", v)
	}
	if v := presence.Violations(policy); !reflect.DeepEqual(v, []Observation{{"outsider", ClassTxData, "tx-1"}}) {
		t.Fatalf("presence Violations = %v, want the outsider's first observation", v)
	}
}

// TestPresenceLogRefusesItemQueries: a log from NewLog keeps no items, so
// every item query panics, and the message names NewHistory.
func TestPresenceLogRefusesItemQueries(t *testing.T) {
	l := NewLog()
	l.Record("o", ClassTxData, "x")
	for name, query := range map[string]func(){
		"Saw":       func() { l.Saw("o", ClassTxData, "x") },
		"ItemsSeen": func() { l.ItemsSeen("o", ClassTxData) },
		"Observers": func() { l.Observers(ClassTxData, "x") },
		"All":       func() { l.All() },
		"Matrix":    func() { l.Matrix(ClassTxData) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, name) || !strings.Contains(msg, "NewHistory") {
					t.Errorf("%s on a presence log: panic %q, want one naming the query and NewHistory", name, msg)
				}
			}()
			query()
		}()
	}
	if !l.SawAny("o", ClassTxData) || l.Count("o", ClassTxData) != 1 || l.Len() != 1 {
		t.Fatal("a presence log must answer the pair queries")
	}
}

func TestMatrix(t *testing.T) {
	l := NewHistory()
	l.Record("a", ClassTxData, "t2")
	l.Record("a", ClassTxData, "t1")
	l.Record("b", ClassTxData, "t1")
	l.Record("b", ClassTxHash, "t9")
	m := l.Matrix(ClassTxData)
	want := map[string][]string{"a": {"t1", "t2"}, "b": {"t1"}}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("Matrix = %v, want %v", m, want)
	}
}

func TestNilLogSafe(t *testing.T) {
	var l *Log
	l.Record("x", ClassTxData, "y") // must not panic
	if l.Saw("x", ClassTxData, "y") || l.Len() != 0 || l.All() != nil {
		t.Fatal("nil log must behave as empty")
	}
	if l.SawAny("x", ClassTxData) || l.ItemsSeen("x", ClassTxData) != nil || l.Observers(ClassTxData, "y") != nil {
		t.Fatal("nil log queries must be empty")
	}
	if l.Count("x", ClassTxData) != 0 || l.Footprint() != 0 || l.Violations(func(Observation) bool { return false }) != nil || len(l.Matrix(ClassTxData)) != 0 {
		t.Fatal("nil log pair queries must be empty")
	}
}

func TestConcurrentRecord(t *testing.T) {
	l := NewLog()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Record("obs", ClassTxData, string(rune('a'+n)))
			}
		}(i)
	}
	wg.Wait()
	if l.Len() != 800 || l.Count("obs", ClassTxData) != 800 {
		t.Fatalf("Len = %d, Count = %d, want 800 records", l.Len(), l.Count("obs", ClassTxData))
	}
}

func TestObservationString(t *testing.T) {
	o := Observation{Observer: "orderer", Class: ClassTxMetadata, Item: "tx-1"}
	if o.String() != `orderer saw txmeta "tx-1"` {
		t.Fatalf("String = %q", o.String())
	}
}
