package middleware

import (
	"context"
	"fmt"
	"time"

	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/pki"
)

// authnStage verifies the submitter: the attached certificate must chain to the
// pinned consortium CA key, name the request principal, and the request
// signature must verify against the certified key (§2.1 PKI onboarding).
// The certificate check goes through a pki.Verifier, so a certificate
// presented again costs a fingerprint, not the CA's ECDSA verification; the
// request signature is checked every time. With a revocation plane
// (Env.Revoker) a revoked certificate is refused too.
type authnStage struct {
	certs   *pki.Verifier
	now     func() time.Time
	revoker Revoker // nil: no revocation check
}

// newAuthn creates the authn stage pinned to the consortium CA key.
func newAuthn(caKey dcrypto.PublicKey, now func() time.Time) *authnStage {
	if now == nil {
		now = time.Now
	}
	return &authnStage{certs: pki.NewVerifier(caKey), now: now}
}

// Name implements Stage.
func (a *authnStage) Name() string { return StageAuthn }

// verifier implements verifierHolder.
func (a *authnStage) verifier() *pki.Verifier { return a.certs }

// statRows declares the certificate verifier's two counters.
func (a *authnStage) statRows() []statRow {
	return []statRow{
		{"confmw_authn_cert_verifications_total", "CA signature checks the authn stage ran (certificates not in its verified set).", counter, a.certs.Verifications, func(s *GatewayStats, v uint64) { s.AuthnCertVerifications = v }, nil},
		{"confmw_authn_cert_cache_hits_total", "Certificates the authn stage found in its verified set.", counter, a.certs.Hits, func(s *GatewayStats, v uint64) { s.AuthnCertCacheHits = v }, nil},
	}
}

// Handle implements Stage.
func (a *authnStage) Handle(ctx context.Context, req *Request, next Handler) error {
	if req.authenticated {
		// An upstream session stage already bound the request to a
		// verified principal; the full PKI check would be pure overhead.
		return next(ctx, req)
	}
	if req.Cert == nil {
		return fmt.Errorf("authn %s: %w: no certificate", req.Principal, pki.ErrBadCertificate)
	}
	if err := a.certs.Verify(*req.Cert, a.now()); err != nil {
		return fmt.Errorf("authn %s: %w", req.Principal, err)
	}
	if a.revoker != nil && a.revoker.IsRevoked(req.Cert.Serial) {
		return fmt.Errorf("authn %s: %w (serial %d)", req.Principal, pki.ErrRevoked, req.Cert.Serial)
	}
	if req.Cert.Identity != req.Principal {
		return fmt.Errorf("%w: cert for %q, request by %q",
			ErrIdentityMismatch, req.Cert.Identity, req.Principal)
	}
	key, err := req.Cert.Key()
	if err != nil {
		return fmt.Errorf("authn %s: %w", req.Principal, err)
	}
	d := req.digest()
	if err := key.Verify(d[:], req.Sig); err != nil {
		return fmt.Errorf("%w: principal %s", ErrBadSignature, req.Principal)
	}
	req.authenticated = true
	return next(ctx, req)
}
