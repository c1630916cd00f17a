//go:build unix

package netedge

import (
	"io"
	"net"
	"testing"
	"time"
)

// TestArrivedReadsWithoutWaiting holds the read a connection's reader makes
// before it writes its replies out: it returns at once with nothing when
// nothing has arrived, takes what has, reads nothing once the peer has
// closed (the ordinary read reports that), and reads nothing on a
// connection without a descriptor.
func TestArrivedReadsWithoutWaiting(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := newConnReader(&Server{}, c)
	p := make([]byte, 64)
	if n := r.arrived(p); n != 0 {
		t.Fatalf("read %d bytes before the peer sent any", n)
	}
	if _, err := peer.Write([]byte("arrived")); err != nil {
		t.Fatal(err)
	}
	n := 0
	for deadline := time.Now().Add(5 * time.Second); n == 0 && time.Now().Before(deadline); {
		if n = r.arrived(p); n == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	if string(p[:n]) != "arrived" {
		t.Fatalf("read %q, want what the peer sent", p[:n])
	}
	peer.Close()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, p[:1]); err != io.EOF {
		t.Fatalf("after the peer closed: %v, want io.EOF", err)
	}
	if n := r.arrived(p); n != 0 {
		t.Fatalf("read %d bytes after the peer closed", n)
	}

	pc, pp := net.Pipe()
	defer pc.Close()
	defer pp.Close()
	go pp.Write([]byte("piped"))
	if n := newConnReader(&Server{}, pc).arrived(p); n != 0 {
		t.Fatalf("read %d bytes from a connection without a descriptor", n)
	}
}
