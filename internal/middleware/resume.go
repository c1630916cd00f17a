package middleware

import (
	"errors"
	"time"
)

// errResumeUnknown is what a resume hello gets when the manager holds no
// live entry under its id — evicted, expired, dropped by a revocation, or
// issued by a gateway that has since restarted. It never reaches a client as
// an error: AppendWire answers it with the resume-miss frame, and the client
// runs the full handshake inside the same call.
var errResumeUnknown = errors.New("middleware: unknown resumption id")

const (
	// resumeIDBytes names an entry; random, so an id is neither guessable
	// nor a handle on the principal behind it.
	resumeIDBytes = 16
	// masterBytes is the secret a full handshake over the wire establishes.
	masterBytes = 32
	// resumeGeneration is the size of one generation of the resumption
	// table. A client process keeps one secret per certificate for a
	// gateway, whichever connections it opens on, and runs one full
	// handshake to get it however many sessions it opens at once
	// (Handshaker), so the table holds certificates × client processes
	// entries: 50 on the benchmark's workloads (50 certificates over 2
	// connections; 100 while a secret was kept per connection) and 32 under
	// the loadgen smoke. One generation is sized like pki.Verifier's, which
	// remembers 4,096 certificates, so that a population the verifier holds
	// resumes; more pairs than two generations only pay what every
	// handshake paid before the table existed. Two full generations measure under 1.2 MB, and the
	// scan that drops a revoked serial's entries (under the control mutex,
	// once per revocation) 110 µs then, 0.9 µs at 100 entries.
	resumeGeneration = 4096
)

// resumeEntry is what a full handshake proved, kept so that the same
// principal need not prove it again: whose certificate it was, and the master
// secret only the holder of the certified key's private half could unseal
// from the grant. An entry is honoured until expires — the session ttl after
// the handshake, or the certificate's NotAfter if that comes first — and no
// resume extends it.
type resumeEntry struct {
	identity string
	serial   uint64
	master   [masterBytes]byte
	expires  time.Time
}

// resumeTable is the manager's bounded memory of entries, in the shape of
// pki.Verifier's set: inserts go to the current generation, a full one
// becomes the old one and the previous old one is dropped, a hit in the old
// one is promoted. A principal that keeps returning is therefore never
// forgotten before its entry expires, and a flood of distinct valid
// certificates cannot hold more than two generations. Guarded by the
// manager's control mutex.
type resumeTable struct {
	cur, old map[[resumeIDBytes]byte]*resumeEntry
}

func (t *resumeTable) len() int { return len(t.cur) + len(t.old) }

// get returns the live entry under id, or nil; an expired one is deleted.
func (t *resumeTable) get(id [resumeIDBytes]byte, now time.Time) *resumeEntry {
	e, ok := t.cur[id]
	if !ok {
		if e, ok = t.old[id]; !ok {
			return nil
		}
		delete(t.old, id)
		if !now.After(e.expires) {
			t.put(id, e)
		}
	}
	if now.After(e.expires) {
		delete(t.cur, id)
		return nil
	}
	return e
}

// put adds an entry to the current generation, rotating first when it is
// full.
func (t *resumeTable) put(id [resumeIDBytes]byte, e *resumeEntry) {
	if t.cur == nil || len(t.cur) >= resumeGeneration {
		t.old, t.cur = t.cur, make(map[[resumeIDBytes]byte]*resumeEntry)
	}
	t.cur[id] = e
}

// drop deletes every entry the predicate names: a revoked serial's, or the
// expired ones.
func (t *resumeTable) drop(gone func(*resumeEntry) bool) {
	for _, gen := range [2]map[[resumeIDBytes]byte]*resumeEntry{t.cur, t.old} {
		for id, e := range gen {
			if gone(e) {
				delete(gen, id)
			}
		}
	}
}
