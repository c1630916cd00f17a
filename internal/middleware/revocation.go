package middleware

import "dltprivacy/internal/pki"

// Revoker is the revocation plane the pipeline consumes: a monotonic
// version for cheap hot-path freshness probes, an exact delta read, and a
// point query. pki.CA implements it; deployments fronting an external CA
// adapt their CRL/OCSP source to this interface.
type Revoker interface {
	// RevocationVersion returns the current revocation epoch. It is called
	// on the session hot path, once per token-bearing request, so
	// implementations must make it cheap — an atomic load, not a lock or a
	// network call.
	RevocationVersion() uint64
	// RevokedSince returns the revocations after the given epoch, in epoch
	// order, plus the current version. Applying the delta and remembering
	// the version yields exactly-once processing.
	RevokedSince(epoch uint64) ([]pki.Revocation, uint64)
	// IsRevoked reports whether a certificate serial has been revoked.
	IsRevoked(serial uint64) bool
}

// RevocationSource is a Revoker that can push: the gateway subscribes at
// construction so a Revoke propagates into session eviction and key-epoch
// rotation immediately, without waiting for the next request or an admin
// notification. OnRevoke returns a cancel func detaching the subscription;
// Gateway.Close calls it, so a gateway that does not outlive its revocation
// source must be closed. pki.CA implements this interface.
type RevocationSource interface {
	Revoker
	OnRevoke(func(pki.Revocation)) (cancel func())
}

// RevokeCheckMode and RevokeCheckResolve are kept under the names the
// repository benchmark passes to WithRevocationChecks. There is nothing to
// choose: a session manager checks revocation whenever it holds a revoker.
type RevokeCheckMode int

// RevokeCheckResolve is the one mode: every token-bearing request probes the
// revoker's version and applies the delta when it moved.
const RevokeCheckResolve RevokeCheckMode = 1
