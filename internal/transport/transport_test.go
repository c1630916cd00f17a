package transport

import (
	"errors"
	"testing"
)

func TestSendAndReply(t *testing.T) {
	n := New()
	err := n.Register("peer1", func(m Message) ([]byte, error) {
		return append([]byte("ack:"), m.Payload...), nil
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	reply, err := n.Send(Message{From: "client", To: "peer1", Topic: "t", Payload: []byte("hi")})
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if string(reply) != "ack:hi" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestSendUnknownEndpoint(t *testing.T) {
	n := New()
	if _, err := n.Send(Message{To: "ghost"}); !errors.Is(err, ErrUnknownEndpoint) {
		t.Fatalf("Send to ghost = %v, want ErrUnknownEndpoint", err)
	}
}

func TestDuplicateRegistration(t *testing.T) {
	n := New()
	h := func(Message) ([]byte, error) { return nil, nil }
	if err := n.Register("a", h); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := n.Register("a", h); !errors.Is(err, ErrDuplicateEndpoint) {
		t.Fatalf("duplicate Register = %v, want ErrDuplicateEndpoint", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	n := New()
	if err := n.Register("", func(Message) ([]byte, error) { return nil, nil }); err == nil {
		t.Fatal("empty name must be rejected")
	}
	if err := n.Register("x", nil); err == nil {
		t.Fatal("nil handler must be rejected")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := New()
	if err := n.Register("b", func(Message) ([]byte, error) { return []byte("ok"), nil }); err != nil {
		t.Fatalf("Register: %v", err)
	}
	n.Partition("a", "b")
	if _, err := n.Send(Message{From: "a", To: "b"}); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned Send = %v, want ErrPartitioned", err)
	}
	// Symmetric.
	n2 := New()
	if err := n2.Register("a", func(Message) ([]byte, error) { return nil, nil }); err != nil {
		t.Fatalf("Register: %v", err)
	}
	n2.Partition("a", "b")
	if _, err := n2.Send(Message{From: "b", To: "a"}); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("reverse partitioned Send = %v, want ErrPartitioned", err)
	}
	n.Heal("b", "a")
	if _, err := n.Send(Message{From: "a", To: "b"}); err != nil {
		t.Fatalf("Send after heal: %v", err)
	}
}

func TestStats(t *testing.T) {
	n := New()
	if err := n.Register("a", func(Message) ([]byte, error) { return nil, nil }); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := n.Send(Message{From: "x", To: "a", Payload: []byte("12345")}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	msgs, bytes := n.Stats()
	if msgs != 1 || bytes != 5 {
		t.Fatalf("Stats = (%d, %d), want (1, 5)", msgs, bytes)
	}
}

func TestHandlerErrorWrapped(t *testing.T) {
	n := New()
	sentinel := errors.New("boom")
	if err := n.Register("a", func(Message) ([]byte, error) { return nil, sentinel }); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := n.Send(Message{From: "x", To: "a"}); !errors.Is(err, sentinel) {
		t.Fatalf("Send = %v, want wrapped sentinel", err)
	}
}
