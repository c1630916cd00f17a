package middleware

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dltprivacy/internal/dcrypto"
)

// GroupEnvelopeScheme identifies the group envelope the batch stage's
// group-seal mode produces: N same-(channel, epoch) payloads concatenated
// into one length-prefixed frame and sealed with a single AEAD invocation
// under the epoch's cached data key, sharing that epoch's wrapped-key
// table. One nonce, one GCM pass, one tag, and one key section for the
// whole group — the per-transaction seal cost amortizes to 1/N.
const GroupEnvelopeScheme = "hybrid-aes256gcm/group/v4"

// BatchPrincipal is the creator recorded on released group transactions.
// Like AggregatePrincipal it marks a synthetic release vehicle: the member
// submissions were authenticated individually at admission, and their
// payloads travel inside the sealed group frame.
const BatchPrincipal = "batched"

// MetaBatch records the scheme and member count on a released group
// transaction.
const MetaBatch = "batch"

// GroupEnvelope is N encrypted payloads plus the data key wrapped to every
// channel member. The ciphertext is one AEAD seal over a length-prefixed
// concatenation of the member payloads (see dcrypto.AppendEncryptSegmentsWithAEAD);
// the key table is the same per-epoch table single envelopes of that epoch
// carry, so a recipient unwraps once and opens every member payload.
type GroupEnvelope struct {
	Scheme       string `json:"scheme"`
	Channel      string `json:"channel"`
	Epoch        uint64 `json:"epoch,omitempty"`
	Count        uint64 `json:"count"`
	Ciphertext   []byte `json:"ciphertext"`
	EphemeralPub []byte `json:"ephemeralPub"`
	Commit       []byte `json:"commit"`
	Wraps        []byte `json:"wraps"`
}

// groupEnvelopeAD binds group ciphertexts to their channel under a domain
// separate from single envelopes: a group frame re-framed as a single
// envelope (or vice versa) under the same epoch key fails authentication
// instead of decrypting to confusing bytes. The wrapped-key table keeps the
// single-envelope domain — it is the same table, wrapped once per epoch.
func groupEnvelopeAD(channel string) []byte {
	return []byte("middleware/group-envelope/v1/" + channel)
}

// OpenGroupEnvelope recovers every member payload for a recipient holding
// its private key. The returned slices are the original submission
// payloads, byte-identical to what each member would have carried in its
// own single envelope.
func OpenGroupEnvelope(genv GroupEnvelope, member string, key *dcrypto.PrivateKey) ([][]byte, error) {
	if genv.Scheme != GroupEnvelopeScheme {
		return nil, fmt.Errorf("middleware: unsupported group envelope scheme %q", genv.Scheme)
	}
	// The key table is shared with the epoch's single envelopes, so the
	// unwrap uses the single-envelope domain; only the group ciphertext
	// lives in the group domain.
	dataKey, err := unwrapDataKey(genv.Channel, genv.EphemeralPub, genv.Commit, genv.Wraps, member, key)
	if err != nil {
		return nil, err
	}
	segments, err := dcrypto.DecryptSegments(dataKey, genv.Ciphertext, groupEnvelopeAD(genv.Channel))
	if err != nil {
		return nil, fmt.Errorf("middleware: open group: %w", err)
	}
	if uint64(len(segments)) != genv.Count {
		return nil, fmt.Errorf("middleware: group envelope declares %d members, frame holds %d", genv.Count, len(segments))
	}
	return segments, nil
}

// EncodeGroupEnvelope marshals a group envelope into its ledger frame (kind
// 0x03), one exactly-sized allocation — the counterpart of
// ParseGroupEnvelope for clients and tests that handle group envelopes
// outside the batch stage:
//
//	0xDC 0x03 ‖ scheme ‖ channel ‖ epoch ‖ count ‖ ciphertext ‖ key table
//
// with the key table exactly as EncodeEnvelope lays it out.
func EncodeGroupEnvelope(genv GroupEnvelope) []byte {
	size := 2 +
		lenPrefixedSize(len(genv.Scheme)) +
		lenPrefixedSize(len(genv.Channel)) +
		uvarintSize(genv.Epoch) +
		uvarintSize(genv.Count) +
		lenPrefixedSize(len(genv.Ciphertext)) +
		envelopeKeysSize(genv.EphemeralPub, genv.Commit, genv.Wraps)
	out := make([]byte, 0, size)
	out = append(out, binaryMagic, binaryKindGroupEnvelope)
	out = appendLenPrefixed(out, []byte(genv.Scheme))
	out = appendLenPrefixed(out, []byte(genv.Channel))
	out = binary.AppendUvarint(out, genv.Epoch)
	out = binary.AppendUvarint(out, genv.Count)
	out = appendLenPrefixed(out, genv.Ciphertext)
	return appendEnvelopeKeys(out, genv.EphemeralPub, genv.Commit, genv.Wraps)
}

// ParseGroupEnvelope decodes a group envelope frame (the payload of a
// released group transaction). Anything else, a frame of a retired scheme
// included, is rejected with ErrBadFrame.
func ParseGroupEnvelope(b []byte) (GroupEnvelope, error) {
	if len(b) < 2 || b[0] != binaryMagic || b[1] != binaryKindGroupEnvelope {
		return GroupEnvelope{}, fmt.Errorf("middleware: parse group envelope: %w: not a group envelope frame", ErrBadFrame)
	}
	r := &frameReader{b: b[2:]}
	var genv GroupEnvelope
	genv.Scheme = r.scheme(GroupEnvelopeScheme)
	genv.Channel = r.str()
	genv.Epoch = r.uvarint()
	genv.Count = r.uvarint()
	genv.Ciphertext = r.bytes()
	genv.EphemeralPub, genv.Commit, genv.Wraps = r.keyTable()
	if err := r.done(); err != nil {
		return GroupEnvelope{}, fmt.Errorf("middleware: parse group envelope: %w", err)
	}
	return genv, nil
}

// deferGroupSeal switches the encrypt stage into deferred group-seal mode:
// Handle resolves and tags the request with the channel's epoch key but
// leaves the payload plaintext, and the batch stage seals whole groups
// under the tagged key with one AEAD invocation. Wired by Config.Build when
// the batch stage runs groupseal=on; requires the epoch key cache
// (keyttl > 0), which Build validates.
func (e *Encrypt) deferGroupSeal() { e.deferSeal = true }

// sealGroup seals the member payloads of one (channel, epoch) group with a
// single AEAD invocation under the epoch key, straight into the group
// envelope frame: header, ciphertext and the epoch's spliced key section
// share one exactly-sized allocation, so the per-group cost beyond the one
// GCM pass is a header and a copy. The frame bytes are identical to sealing
// first and EncodeGroupEnvelope after (modulo the random nonce).
func (e *Encrypt) sealGroup(ck *channelKey, channel string, payloads [][]byte) ([]byte, error) {
	ctSize := dcrypto.SealedSegmentsSize(ck.aead, payloads)
	size := 2 +
		lenPrefixedSize(len(GroupEnvelopeScheme)) +
		lenPrefixedSize(len(channel)) +
		uvarintSize(ck.epoch) +
		uvarintSize(uint64(len(payloads))) +
		uvarintSize(uint64(ctSize)) + ctSize +
		len(ck.keySection)
	out := make([]byte, 0, size)
	out = append(out, binaryMagic, binaryKindGroupEnvelope)
	out = appendLenPrefixed(out, []byte(GroupEnvelopeScheme))
	out = appendLenPrefixed(out, []byte(channel))
	out = binary.AppendUvarint(out, ck.epoch)
	out = binary.AppendUvarint(out, uint64(len(payloads)))
	out = binary.AppendUvarint(out, uint64(ctSize))
	out, err := dcrypto.AppendEncryptSegmentsWithAEAD(out, ck.aead, payloads, e.groupADFor(channel))
	if err != nil {
		return nil, fmt.Errorf("middleware: seal group: %w", err)
	}
	return append(out, ck.keySection...), nil
}

// groupADFor returns the channel's group associated data, computed once per
// channel like adFor.
func (e *Encrypt) groupADFor(channel string) []byte {
	if v, ok := e.groupADCache.Load(channel); ok {
		return v.([]byte)
	}
	ad := groupEnvelopeAD(channel)
	e.groupADCache.Store(channel, ad)
	return ad
}

// errNoGroupKey is returned when the batch stage runs groupseal=on but a
// request arrives without a deferred epoch key — only possible when the
// chain was assembled by hand around Config.Build's wiring.
var errNoGroupKey = errors.New("middleware: batch groupseal: request carries no deferred group key (encrypt stage not in deferred mode?)")
