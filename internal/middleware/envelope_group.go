package middleware

import (
	"errors"

	"dltprivacy/internal/dcrypto"
)

// BatchPrincipal is the creator recorded on released group transactions.
// Like AggregatePrincipal it marks a synthetic release vehicle: the member
// submissions were authenticated individually at admission, and their
// payloads travel inside the sealed group frame.
const BatchPrincipal = "batched"

// MetaBatch records the scheme and member count on a released group
// transaction: EnvelopeScheme + " n=N". A group is an envelope of N payloads
// (channelKey.seal), whose frame states the count only inside the seal.
const MetaBatch = "batch"

// ParseGroupEnvelope is ParseEnvelope under the name the repository
// benchmark calls: a group travels in the one envelope frame. A shim, kept
// until the benchmark calls ParseEnvelope.
func ParseGroupEnvelope(b []byte) (Envelope, error) { return ParseEnvelope(b) }

// OpenGroupEnvelope recovers every payload of an envelope — N for a released
// group, 1 for a single submission — for the holder of key, in sealing order
// and byte-identical to what was submitted. A shim under the name the
// repository benchmark calls; OpenEnvelope is the one-payload form.
func OpenGroupEnvelope(env Envelope, member string, key *dcrypto.PrivateKey) ([][]byte, error) {
	return openSegments(env, member, key)
}

// deferGroupSeal switches the encrypt stage into deferred group-seal mode:
// Handle resolves and tags the request with the channel's epoch key but
// leaves the payload plaintext, and the batch stage seals whole groups
// under the tagged key with one AEAD invocation. Wired by Config.build when
// the batch stage runs groupseal=on; requires the epoch key cache
// (keyttl > 0), which build validates.
func (e *encryptStage) deferGroupSeal() { e.deferSeal = true }

// errNoGroupKey is returned when the batch stage runs groupseal=on but a
// request arrives without a deferred epoch key — only possible when the
// chain was assembled by hand around Config.build's wiring.
var errNoGroupKey = errors.New("middleware: batch groupseal: request carries no deferred group key (encrypt stage not in deferred mode?)")
