package netedge

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"dltprivacy/internal/dcrypto"
)

// recordingConn keeps every byte that crossed the socket, each way.
type recordingConn struct {
	net.Conn
	mu      sync.Mutex
	in, out bytes.Buffer
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.in.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// bodies splits one direction of a recorded stream into its frames' bodies.
func bodies(stream []byte) [][]byte {
	var out [][]byte
	br := bufio.NewReader(bytes.NewReader(stream))
	for {
		f, _, err := readFrame(br, nil, DefaultMaxFrame)
		if err != nil {
			return out
		}
		out = append(out, append([]byte(nil), f.body...))
	}
}

// eavesdropper reads the handshake frames the way somebody with the format
// description and a packet capture would: 0xDC, a kind byte, then uvarint
// lengths and fields. It shares no code with the middleware's codec.
type eavesdropper struct {
	t *testing.T
	b []byte
}

func (e *eavesdropper) uvarint() uint64 {
	v, n := binary.Uvarint(e.b)
	if n <= 0 {
		e.t.Fatal("eavesdropper: truncated varint")
	}
	e.b = e.b[n:]
	return v
}

func (e *eavesdropper) field() []byte {
	n := e.uvarint()
	if n > uint64(len(e.b)) {
		e.t.Fatal("eavesdropper: truncated field")
	}
	f := e.b[:n]
	e.b = e.b[n:]
	return f
}

// TestHandshakeSecretsNeverCrossTheSocket records a connection through a
// full open, a resumed open and four MAC-authenticated submissions, and
// reads the capture back as an eavesdropper: the holder of the private key
// can recover the master secret from the recorded grant, nobody else can,
// the session MAC keys are what the documented derivation makes of it, and
// neither the master nor either MAC key is anywhere in the bytes that
// crossed, in either direction.
func TestHandshakeSecretsNeverCrossTheSocket(t *testing.T) {
	e := newEdgeEnv(t)
	raw, err := net.Dial("tcp", e.addr())
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingConn{Conn: raw}
	c := newClient(rec, dialOptions{inFlight: 16, maxFrame: DefaultMaxFrame})
	defer c.Close()
	ctx := context.Background()

	p := bootstrap(t, c, "alice") // enrol + the full handshake
	if p.grant.Resumed || len(p.grant.MacKey) != dcrypto.MACKeySize {
		t.Fatalf("first grant = %+v, want a full handshake and a derived MAC key", p.grant)
	}
	full := p.grant
	resumed, err := c.OpenSession(ctx, p.name, p.cert, p.key, "")
	if err != nil || !resumed.Resumed || len(resumed.MacKey) != dcrypto.MACKeySize {
		t.Fatalf("second grant = %+v, %v; want resumed with a derived MAC key", resumed, err)
	}
	if bytes.Equal(full.MacKey, resumed.MacKey) {
		t.Fatal("two sessions share a MAC key")
	}
	p.grant = resumed
	for i := 0; i < 4; i++ {
		if _, err := c.SubmitRaw(ctx, p.submission(t, []byte{byte(i), 't', 'r', 'a', 'd', 'e'}, nil)); err != nil {
			t.Fatalf("submission %d under the derived key: %v", i, err)
		}
	}
	if st := e.gw.Stats(); st.Submitted != 4 || st.Sessions.Resumed != 1 {
		t.Fatalf("submitted %d, resumed %d; want 4 and 1", st.Submitted, st.Sessions.Resumed)
	}

	rec.mu.Lock()
	sent, received := rec.out.Bytes(), rec.in.Bytes()
	rec.mu.Unlock()
	// Requests: enrol, full hello, resume hello, 4 submissions. Replies in
	// the same order (one connection, served in order).
	requests, replies := bodies(sent), bodies(received)
	if len(requests) != 7 || len(replies) != 7 {
		t.Fatalf("captured %d requests and %d replies, want 7 and 7", len(requests), len(replies))
	}

	// The eavesdropper's reading of the full hello and its grant.
	hello := &eavesdropper{t: t, b: requests[1]}
	if hello.b[0] != 0xDC || hello.b[1] != 0x04 {
		t.Fatalf("full hello starts %x, want the 0xDC 0x04 frame", hello.b[:2])
	}
	hello.b = hello.b[2:]
	principal, nonce := hello.field(), hello.field()
	issuedAt := time.Unix(0, int64(hello.uvarint()))
	digest := dcrypto.HashConcat([]byte("middleware/session/hello/v1"), principal, nonce,
		[]byte(issuedAt.UTC().Format(time.RFC3339Nano)))
	grant := &eavesdropper{t: t, b: replies[1]}
	if grant.b[0] != 0xDC || grant.b[1] != 0x06 {
		t.Fatalf("grant starts %x, want the 0xDC 0x06 frame", grant.b[:2])
	}
	grant.b = grant.b[3:] // magic, kind, flags
	token := grant.field()
	grant.field()   // principal
	grant.uvarint() // expiry
	grant.field()   // resume id
	sealed := dcrypto.HybridCiphertext{EphemeralPub: grant.field(), Ciphertext: grant.field()}
	if len(grant.b) != 0 {
		t.Fatalf("grant frame has %d bytes after the sealed secret: a field the format does not name", len(grant.b))
	}
	if string(token) != full.Token {
		t.Fatal("eavesdropper misread the grant: token differs")
	}

	// Without the private key the capture yields nothing...
	stranger, err := dcrypto.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dcrypto.DecryptHybrid(stranger, sealed, digest[:]); err == nil {
		t.Fatal("a stranger's key opened the sealed master secret")
	}
	// ...with it, the master, and from the master both sessions' keys.
	master, err := dcrypto.DecryptHybrid(p.key, sealed, digest[:])
	if err != nil || len(master) != 32 {
		t.Fatalf("the certified key does not open the recorded grant: %v", err)
	}
	derived := make([]byte, dcrypto.MACKeySize)
	err = dcrypto.HKDF(derived, master, digest[:], []byte("middleware/session/mac/v1/"+full.Token))
	if err != nil || !bytes.Equal(derived, full.MacKey) {
		t.Fatalf("HKDF(master, hello digest, info‖token) is not the full session's MAC key (%v)", err)
	}

	for name, secret := range map[string][]byte{"master secret": master, "full session's MAC key": full.MacKey, "resumed session's MAC key": resumed.MacKey} {
		if bytes.Contains(sent, secret) {
			t.Errorf("the %s crossed the socket client -> gateway", name)
		}
		if bytes.Contains(received, secret) {
			t.Errorf("the %s crossed the socket gateway -> client", name)
		}
	}
	// What the resume hello does carry: no certificate, no principal name.
	if bytes.Contains(requests[2], principal) || bytes.Contains(requests[2], p.cert.PublicKey) {
		t.Error("the resume hello carries the principal or its certified key")
	}
}
