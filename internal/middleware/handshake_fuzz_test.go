package middleware

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/pki"
)

// FuzzHandshakeFrames throws arbitrary bytes at the two decoders of the
// session handshake — decodeHelloFrame, which a gateway runs on whatever
// arrives on session.open, and decodeGrant, which a client runs on the
// reply. Hostile bytes are ErrBadFrame, never a panic. No frame has a count
// field, so nothing a decoder allocates exceeds the field bytes it was given
// (the nested certificate is its pki binary encoding, of that length). And
// encode ∘ decode is the identity: whatever decodes is re-encoded — the
// hello encoder may refuse a signature no verifier could accept — and must
// decode to the same message.
func FuzzHandshakeFrames(f *testing.F) {
	ca, err := pki.NewCA("fuzz-ca")
	if err != nil {
		f.Fatal(err)
	}
	key, err := dcrypto.GenerateKey()
	if err != nil {
		f.Fatal(err)
	}
	cert, err := ca.Enroll("alice", key.Public())
	if err != nil {
		f.Fatal(err)
	}
	mgr, err := NewSessionManager(ca.PublicKey(), time.Hour, time.Hour, nil)
	if err != nil {
		f.Fatal(err)
	}
	// Seeds: the four frames of a full and a resumed handshake, as a real
	// client and manager exchanged them, and cuts of each.
	wire := &wireTo{mgr: mgr}
	client := &Handshaker{}
	for i := 0; i < 2; i++ {
		if _, err := client.Open(context.Background(), "alice", cert, key, wire.roundTrip); err != nil {
			f.Fatal(err)
		}
	}
	for _, frame := range append(wire.hellos, wire.replies...) {
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		f.Add(frame[:len(frame)-1])
		f.Add(append(append([]byte(nil), frame...), 0x00))
	}
	traced := mustHello(f, "alice", cert, key)
	traced.TraceID = 0xfeedface
	tracedFrame, err := encodeHelloFrame(&traced)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tracedFrame)
	f.Add([]byte{binaryMagic, binaryKindResumeMiss})
	f.Add([]byte{binaryMagic, binaryKindResumeMiss, 0x00})
	f.Add([]byte{binaryMagic, binaryKindHello})
	f.Add([]byte{binaryMagic, binaryKindResume, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{binaryMagic, binaryKindGrant, 0xff})
	// A grant carrying its token as 64 hex characters, as it once did.
	oldForm := appendLenPrefixed([]byte{binaryMagic, binaryKindGrant, 0}, []byte(fmt.Sprintf("%064x", 1)))
	oldForm = appendTime(appendLenPrefixed(oldForm, []byte("alice")), time.Now())
	f.Add(append(oldForm, 0, 0, 0))
	f.Add([]byte{binaryMagic, binaryKindRequest, 0x00})
	f.Add([]byte(`{"principal":"alice"}`))

	render := func(t *testing.T, v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("render %T: %v", v, err)
		}
		return b
	}
	// Nonces of every length but the one a gateway takes, in both hellos.
	for _, n := range []int{0, helloNonceBytes - 1, helloNonceBytes + 1, 4096} {
		odd := traced
		odd.Nonce = make([]byte, n)
		frame, err := encodeHelloFrame(&odd)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(rawResumeFrame([resumeIDBytes]byte{}, make([]byte, n), time.Now(), make([]byte, dcrypto.MACSize)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		hello, resume, helloErr := decodeHelloFrame(data)
		switch {
		case helloErr != nil:
			if !errors.Is(helloErr, ErrBadFrame) {
				t.Fatalf("decodeHelloFrame rejected with %v, want ErrBadFrame", helloErr)
			}
		case hello != nil:
			if len(hello.Nonce) != helloNonceBytes {
				t.Fatalf("decodeHelloFrame accepted a hello with a %d-byte nonce", len(hello.Nonce))
			}
			if frame, err := encodeHelloFrame(hello); err == nil {
				back, _, err := decodeHelloFrame(frame)
				if err != nil || !bytes.Equal(render(t, hello), render(t, back)) {
					t.Fatalf("hello round trip: %v\n first  %s\n second %s", err, render(t, hello), render(t, back))
				}
			}
		default:
			back, again, err := decodeHelloFrame(encodeResumeFrame(&resume))
			if err != nil || back != nil || !bytes.Equal(render(t, resume), render(t, again)) {
				t.Fatalf("resume hello round trip: %v\n first  %s\n second %s", err, render(t, resume), render(t, again))
			}
		}

		grant, miss, err := decodeGrantFrame(data, "alice")
		// The grant's token field as a reader of the format finds it: a
		// grant decodes only with a key there, and its Token is the key's
		// lowercase hex.
		var field []byte
		if len(data) > 2 && data[0] == binaryMagic && data[1] == binaryKindGrant {
			r := frameReader{b: data[3:]} // past the flags byte
			field = r.bytes()
		}
		switch {
		case err != nil:
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decodeGrantFrame rejected with %v, want ErrBadFrame", err)
			}
		case !miss && (len(field) != sessionTokenBytes || grant.Token != hex.EncodeToString(field)):
			t.Fatalf("grant with token field %x decoded with token %q", field, grant.Token)
		case miss:
			if !bytes.Equal(data, []byte{binaryMagic, binaryKindResumeMiss}) {
				t.Fatalf("%x decoded as a resume miss", data)
			}
		default:
			if grant.MacKey != nil {
				t.Fatalf("a grant frame produced a MAC key: %x", grant.MacKey)
			}
			back, miss, err := decodeGrantFrame(appendGrantFrame(nil, &grant), "")
			if err != nil || miss || !bytes.Equal(render(t, grant), render(t, back)) {
				t.Fatalf("grant round trip: %v (miss %v)\n first  %s\n second %s", err, miss, render(t, grant), render(t, back))
			}
		}
		if (len(data) < 2 || data[0] != binaryMagic) && (helloErr == nil || err == nil) {
			t.Fatal("a payload without the frame magic decoded as a handshake frame")
		}
	})
}

// appendGrantFrame appends a grant's frame to dst, the token crossing as the
// key it spells, as the gateway appends the grant of a session it opened.
func appendGrantFrame(dst []byte, g *SessionGrant) []byte {
	key, ok := parseSessionKey(g.Token)
	if !ok {
		panic(fmt.Sprintf("appendGrantFrame: token %q is no key's spelling", g.Token))
	}
	return appendGrant(dst, g, &key)
}

// decodeGrantFrame is decodeGrant without the MAC key's room: the grant and
// whether the frame was the resume miss. Its grants are carved from a fresh
// Handshaker's chunk.
func decodeGrantFrame(b []byte, principal string) (SessionGrant, bool, error) {
	g, _, miss, err := decodeGrant(b, principal, new(Handshaker))
	return g, miss, err
}

// rawResumeFrame spells out a resume hello frame whose nonce may have any
// length, which encodeResumeFrame's fixed-size field cannot: the frames a
// gateway must refuse before it remembers anything.
func rawResumeFrame(id [resumeIDBytes]byte, nonce []byte, at time.Time, tag []byte) []byte {
	out := []byte{binaryMagic, binaryKindResume}
	out = appendLenPrefixed(out, id[:])
	out = appendLenPrefixed(out, nonce)
	out = appendTime(out, at)
	out = appendLenPrefixed(out, tag)
	return binary.AppendUvarint(out, 0)
}

// resumeSide is one of FuzzResumeAgrees' two worlds: a manager, the wire to
// it, and the tokens its clients were granted.
type resumeSide struct {
	mgr    *SessionManager
	wires  [2]*wireTo
	client func(conn int) *Handshaker
	tokens []string
	conns  []int
}

// FuzzResumeAgrees reads its input as a tape of operations — open a session
// on one of two connections, close one, tear a connection down, revoke a
// certificate, re-enrol a principal, step the clock — and plays it against
// two managers on one CA and one clock: one whose clients resume whenever
// they hold a secret, one whose clients have never heard of resumption and
// sign a full hello every time. Resumption is an optimisation, so after
// every step both must have answered with the same class of outcome and the
// same principal, hold the same number of live sessions, and each must
// verify a MAC under the key its own client derived.
func FuzzResumeAgrees(f *testing.F) {
	names := []string{"org-a", "org-b", "org-c"}
	keys := make([]*dcrypto.PrivateKey, len(names))
	for i := range keys {
		var err error
		if keys[i], err = dcrypto.GenerateKey(); err != nil {
			f.Fatal(err)
		}
	}
	const (
		opOpen = iota
		opClose
		opEvictConn
		opRevoke
		opReenrol
		opStep
		ops
	)
	steps := []time.Duration{time.Second, time.Minute, 3 * time.Minute, 6 * time.Minute, 11 * time.Minute, 200 * 24 * time.Hour}
	op := func(kind, arg int) byte { return byte(kind + ops*arg) }
	// Opens that resume, on both connections; a secret outliving its
	// sessions; revocation and re-enrolment between opens; the ttl, the idle
	// window and the certificate's validity each crossed.
	f.Add([]byte{op(opOpen, 0), op(opOpen, 0), op(opOpen, 1), op(opOpen, 3), op(opOpen, 0), op(opOpen, 0)})
	f.Add([]byte{op(opOpen, 0), op(opClose, 0), op(opOpen, 0), op(opEvictConn, 0), op(opOpen, 0)})
	f.Add([]byte{op(opOpen, 0), op(opOpen, 0), op(opRevoke, 0), op(opOpen, 0), op(opReenrol, 0), op(opOpen, 0), op(opOpen, 0)})
	f.Add([]byte{op(opOpen, 1), op(opReenrol, 1), op(opOpen, 1), op(opRevoke, 1), op(opOpen, 1)})
	f.Add([]byte{op(opOpen, 0), op(opStep, 2), op(opOpen, 0), op(opStep, 3), op(opOpen, 0), op(opStep, 4), op(opOpen, 0)})
	// The cap evicting across connections, then one connection torn down.
	f.Add([]byte{op(opOpen, 0), op(opOpen, 3), op(opOpen, 0), op(opEvictConn, 1), op(opOpen, 0)})
	f.Add([]byte{op(opOpen, 2), op(opStep, 5), op(opOpen, 2), op(opStep, 5), op(opOpen, 2), op(opReenrol, 2), op(opOpen, 2)})

	class := func(err error) string {
		for _, known := range []error{ErrStaleHello, ErrReplayedHello, ErrSessionRevoked, ErrIdentityMismatch,
			ErrBadSignature, ErrBadMAC, ErrBadFrame, pki.ErrExpired, pki.ErrBadCertificate} {
			if errors.Is(err, known) {
				return known.Error()
			}
		}
		if err != nil {
			return "other: " + err.Error()
		}
		return "ok"
	}
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 48 {
			tape = tape[:48]
		}
		clock := newFakeClock()
		ca, err := pki.NewCA("fuzz-ca", pki.WithClock(clock.now))
		if err != nil {
			t.Fatal(err)
		}
		certs := make([]pki.Certificate, len(names))
		for i, name := range names {
			if certs[i], err = ca.Enroll(name, keys[i].Public()); err != nil {
				t.Fatal(err)
			}
		}
		var sides [2]*resumeSide
		for i := range sides {
			mgr, err := NewSessionManager(ca.PublicKey(), 10*time.Minute, 5*time.Minute, clock.now,
				withMaxPerPrincipal(2),
				withRevoker(pullRevoker{ca}))
			if err != nil {
				t.Fatal(err)
			}
			s := &resumeSide{mgr: mgr}
			for c := range s.wires {
				s.wires[c] = &wireTo{mgr: mgr, transportID: fmt.Sprintf("tcp:%d:peer", c)}
			}
			sides[i] = s
		}
		resuming := [2]*Handshaker{{Now: clock.now}, {Now: clock.now}}
		sides[0].client = func(conn int) *Handshaker { return resuming[conn] }
		sides[1].client = func(int) *Handshaker { return &Handshaker{Now: clock.now} }

		resumed := 0
		for step, b := range tape {
			kind, arg := int(b)%ops, int(b)/ops
			switch kind {
			case opOpen:
				p, conn := arg%len(names), arg/len(names)%2
				var grants [2]SessionGrant
				var errs [2]error
				for i, s := range sides {
					grants[i], errs[i] = s.client(conn).Open(context.Background(), names[p], certs[p], keys[p], s.wires[conn].roundTrip)
					if errs[i] != nil {
						continue
					}
					s.tokens, s.conns = append(s.tokens, grants[i].Token), append(s.conns, conn)
					_, mac, err := admitToken(s.mgr, grants[i].Token, s.wires[conn].transportID)
					if err != nil || mac == nil {
						t.Fatalf("step %d side %d: the session just granted does not resolve: %v", step, i, err)
					}
					tag := dcrypto.MAC(grants[i].MacKey, []byte("digest"))
					if err := mac.Verify([]byte("digest"), tag[:]); err != nil {
						t.Fatalf("step %d side %d (resumed %v): the derived MAC key does not verify", step, i, grants[i].Resumed)
					}
				}
				if class(errs[0]) != class(errs[1]) {
					t.Fatalf("step %d: open by %s: resuming client %q, full client %q", step, names[p], class(errs[0]), class(errs[1]))
				}
				if grants[0].Principal != grants[1].Principal {
					t.Fatalf("step %d: principals %q and %q", step, grants[0].Principal, grants[1].Principal)
				}
				if grants[1].Resumed {
					t.Fatalf("step %d: the always-full client resumed", step)
				}
				if grants[0].Resumed {
					resumed++
				}
			case opClose:
				for _, s := range sides {
					if len(s.tokens) > 0 {
						k := arg % len(s.tokens)
						_ = s.mgr.CloseFrom(s.tokens[k], s.wires[s.conns[k]].transportID)
					}
				}
			case opEvictConn:
				for _, s := range sides {
					s.mgr.EvictTransport(s.wires[arg%2].transportID)
				}
			case opRevoke:
				ca.Revoke(certs[arg%len(names)].Serial)
				for _, s := range sides {
					s.mgr.sweepRevoked()
				}
			case opReenrol:
				p := arg % len(names)
				if certs[p], err = ca.Enroll(names[p], keys[p].Public()); err != nil {
					t.Fatal(err)
				}
			case opStep:
				clock.advance(steps[arg%len(steps)])
			}
			// Distinct open times: the per-principal cap evicts the oldest
			// session, and a tie would be broken by map order.
			clock.advance(time.Millisecond)
			if a, b := sides[0].mgr.Len(), sides[1].mgr.Len(); a != b {
				t.Fatalf("step %d (op %d/%d): %d live sessions with resumption, %d without", step, kind, arg, a, b)
			}
		}
		a, b := sides[0].mgr.stats(), sides[1].mgr.stats()
		if a.Opened != b.Opened || a.Evicted != b.Evicted || a.Revoked != b.Revoked {
			t.Fatalf("lifecycle counters differ:\n resuming %+v\n full     %+v", a, b)
		}
		if a.Resumed != uint64(resumed) || b.Resumed != 0 || b.ResumeMisses != 0 {
			t.Fatalf("resumed: manager says %d, clients saw %d; the full side resumed %d, missed %d", a.Resumed, resumed, b.Resumed, b.ResumeMisses)
		}
	})
}
