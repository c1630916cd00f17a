package netedge

import (
	"context"
	"encoding/json"
	"fmt"

	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/pki"
)

// TopicEnroll is the trust-bootstrap topic a remote-process client uses to
// get its public key certified by the gateway's CA before it can open
// sessions: separate processes share nothing but the socket, not a CA
// object.
const TopicEnroll = "pki.enroll"

// enrollRequest is the wire form of an enrollment: an identity claiming a
// public key (SEC1 bytes). Deployments with a real registration authority
// would authenticate this; the edge demo and loadgen trust first-come.
type enrollRequest struct {
	Identity  string `json:"identity"`
	PublicKey []byte `json:"publicKey"`
}

// EnrollmentHandler wraps next with TopicEnroll service from ca: every
// other topic passes through untouched, appended by next. onEnroll, if
// non-nil, runs after a successful enrollment — the hook cmd/gateway uses
// to add the new principal to the channel directory so its envelopes can be
// sealed. cmd/gateway composes this around the Gateway so remote loadgen
// principals can bootstrap trust over the same connection they will open
// sessions on.
func EnrollmentHandler(ca *pki.CA, onEnroll func(identity string, pub dcrypto.PublicKey), next Handler) Handler {
	return &enrollmentHandler{ca: ca, onEnroll: onEnroll, next: next}
}

type enrollmentHandler struct {
	ca       *pki.CA
	onEnroll func(identity string, pub dcrypto.PublicKey)
	next     Handler
}

// ServeWire implements Handler.
func (h *enrollmentHandler) ServeWire(ctx context.Context, topic string, payload []byte, transportID string) ([]byte, error) {
	return h.AppendWire(ctx, nil, topic, payload, transportID)
}

// AppendWire implements Handler.
func (h *enrollmentHandler) AppendWire(ctx context.Context, dst []byte, topic string, payload []byte, transportID string) ([]byte, error) {
	if topic != TopicEnroll {
		return h.next.AppendWire(ctx, dst, topic, payload, transportID)
	}
	cert, err := h.enroll(payload)
	if err != nil {
		return dst, err
	}
	return append(dst, cert...), nil
}

// enroll certifies the key an enroll request claims and returns the
// certificate's JSON.
func (h *enrollmentHandler) enroll(payload []byte) ([]byte, error) {
	var req enrollRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, fmt.Errorf("netedge: decode enroll request: %w", err)
	}
	pub, err := dcrypto.ParsePublicKey(req.PublicKey)
	if err != nil {
		return nil, fmt.Errorf("netedge: enroll %s: %w", req.Identity, err)
	}
	cert, err := h.ca.Enroll(req.Identity, pub)
	if err != nil {
		return nil, fmt.Errorf("netedge: enroll %s: %w", req.Identity, err)
	}
	if h.onEnroll != nil {
		h.onEnroll(req.Identity, pub)
	}
	b, err := json.Marshal(cert)
	if err != nil {
		return nil, fmt.Errorf("netedge: encode certificate: %w", err)
	}
	return b, nil
}

// Enroll asks the server's CA to certify pub for identity and returns the
// certificate — the first call a fresh remote principal makes, before
// OpenSession.
func (c *Client) Enroll(ctx context.Context, identity string, pub dcrypto.PublicKey) (pki.Certificate, error) {
	b, err := json.Marshal(enrollRequest{Identity: identity, PublicKey: pub.Bytes()})
	if err != nil {
		return pki.Certificate{}, fmt.Errorf("netedge: encode enroll request: %w", err)
	}
	reply, err := c.Call(ctx, TopicEnroll, b)
	if err != nil {
		return pki.Certificate{}, err
	}
	var cert pki.Certificate
	if err := json.Unmarshal(reply, &cert); err != nil {
		return pki.Certificate{}, fmt.Errorf("netedge: decode certificate: %w", err)
	}
	return cert, nil
}

// compile-time check: the middleware gateway satisfies Handler.
var _ Handler = (*middleware.Gateway)(nil)
