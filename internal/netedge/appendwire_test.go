package netedge

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/pki"
)

// junkThenRefuse echoes every payload, except on the topic "refuse", where it
// appends junk to the frame and then fails: the edge must drop the junk.
type junkThenRefuse struct{}

var errAfterJunk = errors.New("refused after appending")

func (h junkThenRefuse) ServeWire(ctx context.Context, topic string, payload []byte, transportID string) ([]byte, error) {
	return h.AppendWire(ctx, nil, topic, payload, transportID)
}

func (junkThenRefuse) AppendWire(_ context.Context, dst []byte, topic string, payload []byte, _ string) ([]byte, error) {
	if topic == "refuse" {
		return append(dst, "junk the error frame must not carry"...), errAfterJunk
	}
	return append(dst, payload...), nil
}

// TestEdgeDropsWhatARefusingHandlerAppended: a handler that appends to the
// outbound frame and then fails reaches the client as exactly its error, and
// the connection goes on serving. An edge that kept the appended bytes sends
// them as the reply or a frame the client cannot read.
func TestEdgeDropsWhatARefusingHandlerAppended(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", junkThenRefuse{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		reply, err := c.Call(ctx, "refuse", []byte("x"))
		var we *WireError
		if !errors.As(err, &we) || *we != (WireError{Msg: errAfterJunk.Error()}) || reply != nil {
			t.Fatalf("refusal %d: reply %q, error %#v; want exactly the WireError %q", i, reply, err, errAfterJunk)
		}
		if reply, err := c.Call(ctx, "echo", []byte("still serving")); err != nil || string(reply) != "still serving" {
			t.Fatalf("after refusal %d: %q, %v", i, reply, err)
		}
	}
}

// TestEnrollmentHandlerAppendsAsItServes: through EnrollmentHandler, AppendWire
// into a buffer holding a prefix returns the prefix, untouched, and what
// ServeWire replies with, for the enroll topic and for the gateway's topics
// it forwards; a refusal returns the prefix alone and ServeWire's error. A
// certificate is signed and stamped afresh on every enrollment, so the two
// are compared with the serial, validity and signature of the ServeWire one.
func TestEnrollmentHandlerAppendsAsItServes(t *testing.T) {
	e := newEdgeEnv(t)
	h := EnrollmentHandler(e.ca, nil, e.gw)
	key, err := dcrypto.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	enroll, err := json.Marshal(enrollRequest{Identity: "carol", PublicKey: key.Public().Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, topic string
		payload     []byte
		refused     bool
		cert        bool
	}{
		{"enroll", TopicEnroll, enroll, false, true},
		{"enroll refused", TopicEnroll, []byte("{"), true, false},
		{"forwarded session.close", middleware.TopicSessionClose, []byte("no such token"), false, false},
		{"forwarded submit refused", middleware.TopicSubmit, []byte{0xDC}, true, false},
	}
	const prefix = "frame head|"
	ctx := context.Background()
	for _, tc := range cases {
		served, serveErr := h.ServeWire(ctx, tc.topic, tc.payload, "")
		dst := append(make([]byte, 0, 4096), prefix...)
		out, err := h.AppendWire(ctx, dst, tc.topic, tc.payload, "")
		if (serveErr != nil) != tc.refused || (err != nil) != tc.refused {
			t.Fatalf("%s: ServeWire err %v, AppendWire err %v; want refused %v", tc.name, serveErr, err, tc.refused)
		}
		if string(dst[:len(prefix)]) != prefix || !bytes.HasPrefix(out, []byte(prefix)) {
			t.Fatalf("%s: the prefix became %q, the reply is %q", tc.name, dst[:len(prefix)], out)
		}
		if tc.refused {
			if len(out) != len(prefix) || err.Error() != serveErr.Error() || middleware.RejectLabel(err) != middleware.RejectLabel(serveErr) {
				t.Fatalf("%s: AppendWire refused with %q, %d bytes; ServeWire with %q", tc.name, err, len(out), serveErr)
			}
			continue
		}
		appended := out[len(prefix):]
		if tc.cert {
			appended = sameIssue(t, appended, served)
		}
		if !bytes.Equal(appended, served) {
			t.Fatalf("%s: AppendWire appended %q, ServeWire replied %q", tc.name, appended, served)
		}
	}
}

// sameIssue returns the certificate JSON got with the serial, validity and
// signature of want.
func sameIssue(t *testing.T, got, want []byte) []byte {
	t.Helper()
	var g, w pki.Certificate
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatalf("appended certificate %q: %v", got, err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatalf("served certificate %q: %v", want, err)
	}
	g.Serial, g.NotBefore, g.NotAfter, g.Sig = w.Serial, w.NotBefore, w.NotAfter, w.Sig
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
