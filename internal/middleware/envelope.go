package middleware

import (
	"bytes"
	"context"
	"crypto/cipher"
	"crypto/ecdh"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dltprivacy/internal/dcrypto"
)

// EnvelopeScheme identifies the one envelope format, sealed by the encrypt
// stage for a submission and by the batch stage for a group: an AES-256-GCM
// data key sealing N length-prefixed payloads in one AEAD invocation, wrapped
// to every channel member under one ephemeral key (§2.2, "Symmetric key
// encryption" with keys "shared over the network using PKI") in a table that
// names no member.
const EnvelopeScheme = "hybrid-aes256gcm/v5"

// ErrNotRecipient is returned when no wrap of an envelope's key table opens
// for the key presented: the holder is not a recipient, or the table was
// tampered with — with no names in the table the two look the same.
var ErrNotRecipient = errors.New("middleware: identity is not an envelope recipient")

// Envelope is N encrypted payloads plus the data key wrapped to every member
// (dcrypto.WrapToRecipients: EphemeralPub and the key Commit once, then Wraps,
// one 32-byte wrap per distinct member key in ascending byte order).
// Observers (orderer, backends) see ciphertext and the number of distinct
// recipient keys — not who they are. Epoch identifies the channel data-key
// generation when the encrypt stage runs with a key cache; envelopes sealed
// with a fresh per-request key carry epoch zero.
type Envelope struct {
	Scheme       string `json:"scheme"`
	Channel      string `json:"channel"`
	Epoch        uint64 `json:"epoch,omitempty"`
	Ciphertext   []byte `json:"ciphertext"`
	EphemeralPub []byte `json:"ephemeralPub"`
	Commit       []byte `json:"commit"`
	Wraps        []byte `json:"wraps"`
}

// envelopeAD binds an envelope's ciphertext and key table to their channel.
func envelopeAD(channel string) []byte {
	return []byte("middleware/envelope/v2/" + channel)
}

// SealEnvelope encrypts payload for the given member keys under a throwaway
// data key: the frame the encrypt stage would emit, decoded.
func SealEnvelope(channel string, payload []byte, members map[string]dcrypto.PublicKey) (Envelope, error) {
	ck, err := newChannelKey(channel, 0, members, envelopeAD(channel))
	if err != nil {
		return Envelope{}, err
	}
	frame, _, err := ck.seal([][]byte{payload})
	if err != nil {
		return Envelope{}, err
	}
	return ParseEnvelope(frame)
}

// OpenEnvelope recovers the one payload of a submission's envelope for the
// holder of key. member names the opener in errors only: the table carries no
// names, so the key alone finds its wrap. A frame of more than one payload —
// a group release — is ErrBadFrame here; OpenGroupEnvelope opens it.
func OpenEnvelope(env Envelope, member string, key *dcrypto.PrivateKey) ([]byte, error) {
	payloads, err := openSegments(env, member, key)
	if err != nil {
		return nil, err
	}
	if len(payloads) != 1 {
		return nil, fmt.Errorf("middleware: open envelope: %w: %d payloads, want 1", ErrBadFrame, len(payloads))
	}
	return payloads[0], nil
}

// openSegments is the one envelope reader: it unwraps the data key from the
// table and opens the sealed segments.
func openSegments(env Envelope, member string, key *dcrypto.PrivateKey) ([][]byte, error) {
	if env.Scheme != EnvelopeScheme {
		return nil, fmt.Errorf("middleware: unsupported envelope scheme %q", env.Scheme)
	}
	ad := envelopeAD(env.Channel)
	dataKey, err := dcrypto.Unwrap(key, env.EphemeralPub, env.Commit, env.Wraps, ad)
	if errors.Is(err, dcrypto.ErrDecrypt) {
		return nil, fmt.Errorf("%w: %s", ErrNotRecipient, member)
	}
	if err != nil {
		return nil, fmt.Errorf("middleware: unwrap key: %w", err)
	}
	payloads, err := dcrypto.DecryptSegments(dataKey, env.Ciphertext, ad)
	if err != nil {
		return nil, fmt.Errorf("middleware: open envelope: %w", err)
	}
	return payloads, nil
}

// EncodeEnvelope marshals an envelope into its ledger frame, one
// exactly-sized allocation:
//
//	0xDC 0x02 ‖ scheme ‖ channel ‖ epoch ‖ key table ‖ ciphertext
//	key table  = ephPub ‖ commit ‖ n ‖ n × 32-byte wrap
//	ciphertext = Seal(count ‖ count × (length ‖ payload))
//
// Every field but the epoch and n (uvarints) and the wraps is
// length-prefixed. The key table comes BEFORE the ciphertext so that
// everything constant for a key epoch is one contiguous head and only the
// tail differs between the epoch's envelopes (see encodeEnvelopeHead). The
// wraps are strictly ascending and keyTable accepts no other order, so an
// envelope has exactly one encoding: EncodeEnvelope(ParseEnvelope(b)) is b. It
// is the counterpart of ParseEnvelope for clients and tests that handle
// envelopes outside the encrypt stage; json.Marshal of a parsed Envelope is
// the diffable debug view, not a format any decoder accepts.
func EncodeEnvelope(env Envelope) []byte {
	out := encodeEnvelopeHead(env.Scheme, env.Channel, env.Epoch, env.EphemeralPub, env.Commit, env.Wraps, lenPrefixedSize(len(env.Ciphertext)))
	return appendLenPrefixed(out, env.Ciphertext)
}

// encodeEnvelopeHead encodes everything of an envelope frame that precedes
// its ciphertext field — magic, kind, scheme, channel, epoch and the
// wrapped-key table — leaving tail bytes of spare capacity for the caller to
// append that field into. The head is immutable for a data key's lifetime,
// so newChannelKey computes it once (tail 0) and every seal copies it —
// O(members) encoding becomes one copy.
func encodeEnvelopeHead(scheme, channel string, epoch uint64, ephPub, commit, wraps []byte, tail int) []byte {
	size := 2 + lenPrefixedSize(len(scheme)) + lenPrefixedSize(len(channel)) + uvarintSize(epoch) +
		lenPrefixedSize(len(ephPub)) + lenPrefixedSize(len(commit)) +
		uvarintSize(uint64(len(wraps)/dcrypto.WrappedKeySize)) + len(wraps) + tail
	out := make([]byte, 0, size)
	out = append(out, binaryMagic, binaryKindEnvelope)
	out = appendLenPrefixed(out, []byte(scheme))
	out = appendLenPrefixed(out, []byte(channel))
	out = binary.AppendUvarint(out, epoch)
	return appendEnvelopeKeys(out, ephPub, commit, wraps)
}

// appendEnvelopeKeys appends the wrapped-key table: the shared ephemeral key,
// the key commitment, the wrap count, the wraps.
func appendEnvelopeKeys(out, ephPub, commit, wraps []byte) []byte {
	out = appendLenPrefixed(out, ephPub)
	out = appendLenPrefixed(out, commit)
	out = binary.AppendUvarint(out, uint64(len(wraps)/dcrypto.WrappedKeySize))
	return append(out, wraps...)
}

// keyTable decodes a wrapped-key table, accepting only the one encoding
// appendEnvelopeKeys emits for a table dcrypto.WrapToRecipients made: an
// ephemeral key that is a P-256 point, a commitment of
// dcrypto.KeyCommitmentSize, and n wraps of dcrypto.WrappedKeySize each,
// strictly ascending. A duplicated or out-of-order wrap would otherwise parse
// to a table that re-encodes to different bytes, and one ledger payload hash
// would not pin one table. The wraps alias the frame: the count is checked
// against the bytes that remain, and nothing is allocated.
func (r *frameReader) keyTable() (ephPub, commit, wraps []byte) {
	ephPub = r.bytes()
	commit = r.bytes()
	n := r.uvarint()
	if r.err != nil {
		return nil, nil, nil
	}
	if _, err := ecdh.P256().NewPublicKey(ephPub); err != nil {
		r.err = fmt.Errorf("%w: ephemeral key (%d bytes) is not a P-256 point", ErrBadFrame, len(ephPub))
		return nil, nil, nil
	}
	if len(commit) != dcrypto.KeyCommitmentSize {
		r.err = fmt.Errorf("%w: key commitment is %d bytes, want %d", ErrBadFrame, len(commit), dcrypto.KeyCommitmentSize)
		return nil, nil, nil
	}
	if n > uint64(len(r.b)/dcrypto.WrappedKeySize) {
		r.err = fmt.Errorf("%w: %d wraps exceed the remaining %d bytes", ErrBadFrame, n, len(r.b))
		return nil, nil, nil
	}
	size := int(n) * dcrypto.WrappedKeySize
	wraps, r.b = r.b[:size:size], r.b[size:]
	for at := dcrypto.WrappedKeySize; at < size; at += dcrypto.WrappedKeySize {
		if bytes.Compare(wraps[at-dcrypto.WrappedKeySize:at], wraps[at:at+dcrypto.WrappedKeySize]) >= 0 {
			r.err = fmt.Errorf("%w: wrap %d does not sort after wrap %d", ErrBadFrame, at/dcrypto.WrappedKeySize, at/dcrypto.WrappedKeySize-1)
			return nil, nil, nil
		}
	}
	return ephPub, commit, wraps
}

// scheme reads a frame's scheme field and requires it to be want: a frame
// under any other name — an older layout's among them — is ErrBadFrame, never
// mis-parsed. want is returned, so the parsed envelope holds the constant.
func (r *frameReader) scheme(want string) string {
	if got := r.bytes(); r.err == nil && string(got) != want {
		r.err = fmt.Errorf("%w: scheme %q, want %q", ErrBadFrame, got, want)
	}
	return want
}

// ParseEnvelope decodes an envelope frame (a transaction payload the encrypt
// or batch stage produced). Anything else — a JSON document, a frame of a
// retired scheme or of the retired 0x03 group layout — is rejected with
// ErrBadFrame, never mis-parsed. The byte fields alias b; the channel name is
// the one allocation.
func ParseEnvelope(b []byte) (Envelope, error) {
	if len(b) < 2 || b[0] != binaryMagic || b[1] != binaryKindEnvelope {
		return Envelope{}, fmt.Errorf("middleware: parse envelope: %w: not an envelope frame", ErrBadFrame)
	}
	r := &frameReader{b: b[2:]}
	var env Envelope
	env.Scheme = r.scheme(EnvelopeScheme)
	env.Channel = r.str()
	env.Epoch = r.uvarint()
	env.EphemeralPub, env.Commit, env.Wraps = r.keyTable()
	env.Ciphertext = r.bytes()
	if err := r.done(); err != nil {
		return Envelope{}, fmt.Errorf("middleware: parse envelope: %w", err)
	}
	return env, nil
}

// Directory resolves a channel to the public keys of its members, the
// recipient set of envelope encryption.
type Directory interface {
	MemberKeys(channel string) (map[string]dcrypto.PublicKey, error)
}

// GenerationalDirectory is a Directory that can report membership change
// cheaply: Generation returns a value that differs whenever any channel's
// member set has changed since an earlier call. The encrypt stage uses it
// to cache the member-set fingerprint per (channel, generation) instead of
// re-sorting and re-hashing the member set on every request. A directory
// implementing it must treat every map it has handed out as immutable —
// membership changes install a fresh map and bump the generation.
type GenerationalDirectory interface {
	Directory
	Generation() uint64
}

// StaticDirectory is a fixed channel -> member -> key map.
type StaticDirectory map[string]map[string]dcrypto.PublicKey

// MemberKeys implements Directory.
func (d StaticDirectory) MemberKeys(channel string) (map[string]dcrypto.PublicKey, error) {
	members, ok := d[channel]
	if !ok {
		return nil, fmt.Errorf("middleware: no members registered for channel %s", channel)
	}
	return members, nil
}

// SyncDirectory is a concurrency-safe GenerationalDirectory: channels are
// installed and replaced whole via SetChannel, which copies the member map
// and bumps the generation, so readers always see immutable snapshots and
// the encrypt stage's fingerprint cache stays exact.
type SyncDirectory struct {
	mu       sync.RWMutex
	channels map[string]map[string]dcrypto.PublicKey
	// gen is written under mu (updates are serialized) but read with a
	// bare atomic load: Generation sits on the per-request seal fast
	// path, where an RLock round-trip is measurable.
	gen atomic.Uint64
}

// NewSyncDirectory creates an empty SyncDirectory.
func NewSyncDirectory() *SyncDirectory {
	return &SyncDirectory{channels: make(map[string]map[string]dcrypto.PublicKey)}
}

// SetChannel installs (or replaces) a channel's member set. The map is
// copied; later mutation of the argument does not leak in. Passing an
// empty or nil map removes the channel.
func (d *SyncDirectory) SetChannel(channel string, members map[string]dcrypto.PublicKey) {
	var snap map[string]dcrypto.PublicKey
	if len(members) > 0 {
		snap = make(map[string]dcrypto.PublicKey, len(members))
		for id, key := range members {
			snap[id] = key
		}
	}
	d.mu.Lock()
	if snap == nil {
		delete(d.channels, channel)
	} else {
		d.channels[channel] = snap
	}
	d.gen.Add(1)
	d.mu.Unlock()
}

// AddMember adds (or replaces) one member in a channel, copy-on-write:
// the previous snapshot stays immutable for in-flight readers and the
// generation bumps. The incremental path enrollment flows use — a TCP
// edge admitting principals one at a time must not re-install whole
// channels around a lock it doesn't hold.
func (d *SyncDirectory) AddMember(channel, identity string, key dcrypto.PublicKey) {
	d.mu.Lock()
	old := d.channels[channel]
	snap := make(map[string]dcrypto.PublicKey, len(old)+1)
	for id, k := range old {
		snap[id] = k
	}
	snap[identity] = key
	d.channels[channel] = snap
	d.gen.Add(1)
	d.mu.Unlock()
}

// MemberKeys implements Directory. The returned map is an immutable
// snapshot; callers must not modify it.
func (d *SyncDirectory) MemberKeys(channel string) (map[string]dcrypto.PublicKey, error) {
	d.mu.RLock()
	members, ok := d.channels[channel]
	d.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("middleware: no members registered for channel %s", channel)
	}
	return members, nil
}

// Generation implements GenerationalDirectory.
func (d *SyncDirectory) Generation() uint64 { return d.gen.Load() }

// Encrypt is the envelope-encryption stage. It refuses unauthenticated
// requests even if misassembled by hand: sealing ciphertext for an
// unverified submitter would lend member-only confidentiality to spoofed
// traffic.
//
// With a key cache (NewCachedEncrypt, or the "keyttl" config parameter)
// the expensive per-member hybrid key-wrap is performed once per
// (channel, epoch) and reused: each request pays only the symmetric seal.
// The key rotates — a new epoch, a fresh data key, fresh wraps — when the
// epoch's TTL elapses, when the channel's member set changes, or on an
// explicit Rotate call (e.g. after revoking a member).
type Encrypt struct {
	dir Directory
	// gdir is dir downcast to its generational form, nil otherwise; with
	// it, the member-set fingerprint is cached per (channel, directory
	// generation, exclusion generation) instead of recomputed per request.
	gdir   GenerationalDirectory
	keyTTL time.Duration
	now    func() time.Time
	// defaultClock marks now as the package default (coarseNow): only then
	// may channelKeyFor trust a request's session-stamped clock reading.
	defaultClock bool
	// deferSeal switches Handle into deferred group-seal mode (see
	// deferGroupSeal): the payload stays plaintext and the request is
	// tagged with its epoch key for the batch stage to seal whole groups
	// at once. Set at Build time, before traffic; requires keyTTL > 0.
	deferSeal bool

	// adCache holds the per-channel associated-data strings, computed once
	// per channel instead of concatenated per request.
	adCache sync.Map // channel string -> []byte

	mu     sync.Mutex
	keys   map[string]*channelKey
	epochs map[string]uint64 // next epoch per channel; survives rotation
	// rotating single-flights epoch rotation per channel: the per-member
	// hybrid wrap is O(members) of public-key crypto, so when a cold or
	// expired channel meets a thundering herd (every edge connection's
	// first submission), only the first rotator wraps — the rest wait on
	// the channel's entry and re-read the cache. Without this, N
	// concurrent rotators each burn the full wrap and N-1 results are
	// discarded by the double-checked install; at 1000 members and
	// hundreds of connections that is minutes of redundant CPU. Guarded
	// by mu; entries are removed (and their channel closed) when the
	// winning rotation installs or fails.
	rotating map[string]chan struct{}
	// fps caches the member-set fingerprint (and the effective member
	// snapshot it was computed from) per channel, valid while both the
	// directory generation and the exclusion generation stand still.
	// Guarded by mu; only populated for generational directories.
	fps map[string]*fpEntry
	// excluded holds identities whose certificates were revoked: they are
	// dropped from every member set before sealing, so no envelope after
	// the revocation wraps a key they can unwrap. exclGen counts
	// exclusions, letting channelKeyFor detect a revocation that raced its
	// out-of-lock key wrap and discard the stale wrap instead of
	// installing it. Guarded by mu.
	excluded map[string]bool
	exclGen  uint64
	// rotations counts fresh-epoch installs across all channels (a
	// channel's first epoch included), guarded by mu. revokedRotations
	// counts cached keys invalidated because a wrapped member was revoked
	// (each forces a fresh epoch on the channel's next seal).
	rotations        uint64
	revokedRotations uint64
}

// channelKey is one data-key generation: a cached (channel, epoch) key, or
// the throwaway key of one uncached seal (epoch 0). Beyond the wrapped key
// material it carries everything the per-request seal would otherwise
// recompute: the prebuilt AEAD (AES key schedule + GCM tables), the channel
// associated data, and the encoded frame head.
type channelKey struct {
	epoch uint64
	aead  cipher.AEAD
	ad    []byte
	// wrapped is the member set the data key was wrapped to, by identity: the
	// frame names nobody, so this in-memory snapshot is what RevokeMember
	// checks. members is its fingerprint.
	wrapped   map[string]dcrypto.PublicKey
	members   [32]byte
	expiresAt time.Time
	// frameHead is everything of the key's frames, single and group, that
	// precedes the ciphertext field (encodeEnvelopeHead): the header and the
	// wrapped-key table, computed once by newChannelKey. The table is
	// immutable for the key's lifetime, and re-encoding it per submission
	// makes every seal O(members) — at 1000-member channels that dominates
	// the entire submit path. headSum is SHA-256 with frameHead already
	// absorbed: with 50 members the head is 1.7 KB of a 1.9 KB frame, so the
	// frame's hash costs the ~130 bytes that follow it.
	frameHead []byte
	headSum   dcrypto.HashPrefix
}

// newChannelKey generates a fresh data key, wraps it for every member under
// one ephemeral key (dcrypto.WrapToRecipients: members + 1 scalar
// multiplications) and builds the frame head — the one constructor behind a
// cached epoch install (wrapAndInstall), the uncached stage's per-request key
// and SealEnvelope.
func newChannelKey(channel string, epoch uint64, members map[string]dcrypto.PublicKey, ad []byte) (*channelKey, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("middleware: no member keys for channel %s", channel)
	}
	dataKey, err := dcrypto.NewSymmetricKey()
	if err != nil {
		return nil, fmt.Errorf("middleware: data key: %w", err)
	}
	ephPub, commit, wraps, err := dcrypto.WrapToRecipients(members, dataKey, ad)
	if err != nil {
		return nil, fmt.Errorf("middleware: wrap data key: %w", err)
	}
	aead, err := dcrypto.NewAEAD(dataKey)
	if err != nil {
		return nil, fmt.Errorf("middleware: data key aead: %w", err)
	}
	ck := &channelKey{epoch: epoch, aead: aead, ad: ad, wrapped: members}
	ck.frameHead = encodeEnvelopeHead(EnvelopeScheme, channel, epoch, ephPub, commit, wraps, 0)
	ck.headSum = dcrypto.NewHashPrefix(ck.frameHead)
	return ck, nil
}

// seal seals payloads under the data key with one AEAD invocation straight
// into an envelope frame — head copied, the length-prefixed segments sealed
// in place behind it, one exactly-sized allocation — and returns the frame
// with its SHA-256, resumed from headSum over the ciphertext field alone.
// The encrypt stage seals one payload, the batch stage a group.
func (ck *channelKey) seal(payloads [][]byte) ([]byte, [32]byte, error) {
	ctSize := dcrypto.SealedSegmentsSize(ck.aead, payloads)
	frame := make([]byte, 0, len(ck.frameHead)+lenPrefixedSize(ctSize))
	frame = append(frame, ck.frameHead...)
	frame = binary.AppendUvarint(frame, uint64(ctSize))
	frame, err := dcrypto.AppendEncryptSegmentsWithAEAD(frame, ck.aead, payloads, ck.ad)
	if err != nil {
		return nil, [32]byte{}, fmt.Errorf("middleware: seal: %w", err)
	}
	return frame, ck.headSum.Sum(frame[len(ck.frameHead):]), nil
}

// fpEntry is one cached member-set fingerprint: the directory and
// exclusion generations it is valid for, the fingerprint, and the
// effective (exclusions-applied) member snapshot it covers.
type fpEntry struct {
	dirGen  uint64
	exclGen uint64
	fp      [32]byte
	members map[string]dcrypto.PublicKey
}

// NewEncrypt creates the encrypt stage over a membership directory with no
// key cache: every request seals under a fresh data key wrapped per member.
func NewEncrypt(dir Directory) (*Encrypt, error) {
	if dir == nil {
		return nil, errors.New("middleware: encrypt stage needs a membership directory")
	}
	gdir, _ := dir.(GenerationalDirectory)
	return &Encrypt{dir: dir, gdir: gdir}, nil
}

// adFor returns the channel's associated data, computing and caching it on
// first use.
func (e *Encrypt) adFor(channel string) []byte {
	if v, ok := e.adCache.Load(channel); ok {
		return v.([]byte)
	}
	ad := envelopeAD(channel)
	e.adCache.Store(channel, ad)
	return ad
}

// NewCachedEncrypt creates the encrypt stage with an epoch-based channel
// data-key cache: keys rotate after keyTTL, on membership change, and on
// explicit Rotate.
func NewCachedEncrypt(dir Directory, keyTTL time.Duration, now func() time.Time) (*Encrypt, error) {
	e, err := NewEncrypt(dir)
	if err != nil {
		return nil, err
	}
	if keyTTL <= 0 {
		return nil, fmt.Errorf("middleware: encrypt key ttl must be positive, got %v", keyTTL)
	}
	e.defaultClock = now == nil
	if e.defaultClock {
		// The default clock is the cheap monotonic-anchored one:
		// channelKeyFor reads it on every seal.
		now = coarseNow
	}
	e.keyTTL = keyTTL
	e.now = now
	e.keys = make(map[string]*channelKey)
	e.epochs = make(map[string]uint64)
	e.fps = make(map[string]*fpEntry)
	e.rotating = make(map[string]chan struct{})
	return e, nil
}

// Name implements Stage.
func (e *Encrypt) Name() string { return StageEncrypt }

// RevokeMember excludes an identity from all future envelopes: its key is
// dropped from every member set before sealing, and every cached channel
// key it could unwrap is invalidated so the channel's next submission
// installs a fresh epoch the revoked member cannot open. Works with or
// without a key cache (without one, exclusion alone suffices: every
// request already uses a throwaway key). Idempotent.
func (e *Encrypt) RevokeMember(identity string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.excluded[identity] {
		return
	}
	if e.excluded == nil {
		e.excluded = make(map[string]bool)
	}
	e.excluded[identity] = true
	e.exclGen++
	if e.keyTTL <= 0 {
		return
	}
	for channel, ck := range e.keys {
		if _, wrapped := ck.wrapped[identity]; wrapped {
			delete(e.keys, channel)
			e.revokedRotations++
		}
	}
}

// ReadmitMember lifts a RevokeMember exclusion — the path back for an
// identity revoked outright and later re-enrolled under a fresh
// certificate. Channels re-key automatically: with the member back in the
// effective set, the next seal sees a fingerprint mismatch and installs a
// fresh epoch wrapped to it. Idempotent; a no-op for identities never
// excluded. (A rotation-flow revocation of a superseded certificate never
// excludes the identity in the first place.)
func (e *Encrypt) ReadmitMember(identity string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.excluded[identity] {
		return
	}
	delete(e.excluded, identity)
	e.exclGen++
}

// RevokedRotations reports how many cached channel keys were invalidated
// because a wrapped member was revoked; each invalidation forces a fresh
// epoch on that channel's next submission.
func (e *Encrypt) RevokedRotations() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.revokedRotations
}

// headBytes reports the largest live epoch's frame head: what every envelope
// sealed on that channel carries, copies and hashes before its own payload.
func (e *Encrypt) headBytes() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	largest := 0
	for _, ck := range e.keys {
		largest = max(largest, len(ck.frameHead))
	}
	return uint64(largest)
}

// statRows declares the key-epoch counters and the head-size gauge.
func (e *Encrypt) statRows() []statRow {
	return []statRow{
		{"confmw_key_epochs_rotated_total", "Channel data-key epoch installs by the encrypt stage.", counter, e.Rotations, func(s *GatewayStats, v uint64) { s.KeyEpochsRotated = v }, nil},
		{"confmw_key_epochs_revoked_rotations_total", "Cached channel keys invalidated because a wrapped member was revoked.", counter, e.RevokedRotations, func(s *GatewayStats, v uint64) { s.KeyEpochsRevokedRotations = v }, nil},
		{"confmw_envelope_head_bytes", "Largest live epoch's envelope head (header + wrapped-key table), bytes.", gauge, e.headBytes, nil, nil},
	}
}

// effectiveMembers drops excluded (revoked) identities from the channel
// member set. The common no-revocations case returns the input map
// unchanged, alloc-free.
func (e *Encrypt) effectiveMembers(members map[string]dcrypto.PublicKey) map[string]dcrypto.PublicKey {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.effectiveMembersLocked(members)
}

// effectiveMembersLocked is effectiveMembers with the lock already held.
func (e *Encrypt) effectiveMembersLocked(members map[string]dcrypto.PublicKey) map[string]dcrypto.PublicKey {
	if len(e.excluded) == 0 {
		return members
	}
	trimmed := members
	copied := false
	for id := range members {
		if !e.excluded[id] {
			continue
		}
		if !copied {
			trimmed = make(map[string]dcrypto.PublicKey, len(members))
			for mid, key := range members {
				trimmed[mid] = key
			}
			copied = true
		}
		delete(trimmed, id)
	}
	return trimmed
}

// Epoch reports the current data-key epoch for a channel (0 when no cached
// key exists yet or the cache is disabled).
func (e *Encrypt) Epoch(channel string) uint64 {
	if e.keyTTL <= 0 {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if ck, ok := e.keys[channel]; ok {
		return ck.epoch
	}
	return 0
}

// Rotations reports how many fresh data-key epochs the stage has installed
// across all channels (each channel's first epoch included). Always 0
// without a key cache, where every request uses a throwaway key.
func (e *Encrypt) Rotations() uint64 {
	if e.keyTTL <= 0 {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rotations
}

// memberFingerprint hashes the member set (identities and keys) so a
// cached channel key can detect membership drift.
func memberFingerprint(members map[string]dcrypto.PublicKey) [32]byte {
	ids := make([]string, 0, len(members))
	for id := range members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	parts := make([][]byte, 0, 2*len(ids)+1)
	parts = append(parts, []byte("middleware/members/v1"))
	for _, id := range ids {
		parts = append(parts, []byte(id), members[id].Bytes())
	}
	return dcrypto.HashConcat(parts...)
}

// channelKeyFor returns the live cached key for the channel and member
// set, rotating onto a fresh epoch when the cache is empty, expired, or
// wrapped to a different membership. Revoked members are dropped from the
// set under the same lock that guards the cache, and a revocation racing
// the out-of-lock wrap is caught by the exclusion-generation re-check at
// install time — a stale wrap is discarded and redone, never cached, so a
// just-revoked member can never be smuggled into a fresh epoch. The
// expensive per-member wrap runs outside the lock so a rotation on one
// channel never stalls sealing on others; racing rotators are resolved by
// a double-checked install (the loser's freshly wrapped key is discarded).
//
// Over a GenerationalDirectory the steady state is one lock acquisition
// and zero hashing: the member-set fingerprint is cached per (channel,
// directory generation, exclusion generation), so detecting "nothing
// changed" costs two integer compares instead of a sort-and-hash of the
// member set. dirGen is the generation the caller read BEFORE fetching
// members (Handle enforces the order): a concurrent directory update can
// therefore only make members newer than the tag, never older, so a cache
// entry never advertises a stale member set under a fresh generation —
// the next request at the new generation recomputes and converges.
func (e *Encrypt) channelKeyFor(req *Request, channel string, dirGen uint64) (*channelKey, error) {
	var now time.Time
	if e.defaultClock && req.nowStamp != 0 {
		// The session stage already read the shared default clock for this
		// request; its stamp is at most a stage-transit older than a fresh
		// read, which expiry granularity (keyTTL) tolerates.
		now = chainEpoch.Add(req.nowStamp)
	} else {
		now = e.now()
	}
	// The member snapshot is fetched lazily, only when the fingerprint
	// cache misses: on the steady-state path (fingerprint hit, live key —
	// and also fingerprint hit with an expired key, which reuses the
	// cached member set) the directory is never consulted, saving its
	// read-lock and map hand-off on every seal.
	var (
		members map[string]dcrypto.PublicKey
		fetched bool
	)
	for {
		var (
			fp       [32]byte
			sealable map[string]dcrypto.PublicKey
		)
		e.mu.Lock()
		gen := e.exclGen
		if fe := e.fps[channel]; e.gdir != nil && fe != nil && fe.dirGen == dirGen && fe.exclGen == gen {
			// Fingerprint cache hit: if the channel key matches too, this
			// is the whole fast path — one lock, two compares.
			if ck := e.keys[channel]; ck != nil && ck.members == fe.fp && !now.After(ck.expiresAt) {
				e.mu.Unlock()
				return ck, nil
			}
			fp, sealable = fe.fp, fe.members
			e.mu.Unlock()
		} else {
			if !fetched {
				// Cache miss and no snapshot in hand: drop the lock, fetch,
				// and re-enter. dirGen was read before this fetch (Handle
				// reads it before calling), so the snapshot can only be
				// newer than the tag — the same ordering invariant the
				// eager fetch upheld.
				e.mu.Unlock()
				m, err := e.dir.MemberKeys(channel)
				if err != nil {
					return nil, err
				}
				members, fetched = m, true
				continue
			}
			// Snapshot the exclusion state, then fingerprint outside the
			// lock: the O(n log n) sort-and-hash of the member set must not
			// sit in the critical section every seal on every channel
			// shares. The generation re-checks below invalidate the
			// snapshot if a revocation lands meanwhile.
			sealable = e.effectiveMembersLocked(members)
			e.mu.Unlock()
			fp = memberFingerprint(sealable)
			e.mu.Lock()
			if e.exclGen != gen {
				e.mu.Unlock()
				continue
			}
			if e.gdir != nil {
				e.fps[channel] = &fpEntry{dirGen: dirGen, exclGen: gen, fp: fp, members: sealable}
			}
			if ck := e.keys[channel]; ck != nil && ck.members == fp && !now.After(ck.expiresAt) {
				e.mu.Unlock()
				return ck, nil
			}
			e.mu.Unlock()
		}

		// The cache is cold, expired, or wrapped to a different member
		// set: a rotation is due. Single-flight it per channel — only the
		// first arrival performs the O(members) wrap; everyone else waits
		// for the install and re-reads the cache, which is the difference
		// between one wrap and hundreds when an edge full of connections
		// hits a cold channel at once.
		e.mu.Lock()
		if wait := e.rotating[channel]; wait != nil {
			e.mu.Unlock()
			<-wait
			continue
		}
		done := make(chan struct{})
		e.rotating[channel] = done
		// Holding the channel's single-flight slot, this rotator is the only
		// one that can advance the channel's epoch: the number is settled
		// before the wrap, so the epoch-constant frame head is built outside
		// the lock with everything else.
		epoch := e.epochs[channel] + 1
		e.mu.Unlock()

		ck, retry, err := e.wrapAndInstall(channel, epoch, gen, fp, sealable, now)
		e.mu.Lock()
		delete(e.rotating, channel)
		e.mu.Unlock()
		close(done)
		if err != nil {
			return nil, err
		}
		if retry {
			continue
		}
		return ck, nil
	}
}

// wrapAndInstall generates a fresh data key, wraps it for every sealable
// member, and installs it as the given epoch, holding the single-flight
// slot its caller registered. retry is true when a revocation raced the wrap (the
// exclusion generation moved past gen): the snapshot may include a
// just-revoked member, so the caller must re-snapshot and try again.
func (e *Encrypt) wrapAndInstall(channel string, epoch, gen uint64, fp [32]byte, sealable map[string]dcrypto.PublicKey, now time.Time) (*channelKey, bool, error) {
	ck, err := newChannelKey(channel, epoch, sealable, e.adFor(channel))
	if err != nil {
		return nil, false, err
	}
	ck.members = fp
	ck.expiresAt = now.Add(e.keyTTL)

	e.mu.Lock()
	if e.exclGen != gen {
		// A revocation landed while we wrapped: our member snapshot may
		// include the newly revoked identity. Re-snapshot and re-wrap.
		e.mu.Unlock()
		return nil, true, nil
	}
	if ck := e.keys[channel]; ck != nil && ck.members == fp && !now.After(ck.expiresAt) {
		e.mu.Unlock()
		return ck, false, nil
	}
	e.epochs[channel] = epoch
	e.rotations++
	e.keys[channel] = ck
	e.mu.Unlock()
	return ck, false, nil
}

// Handle implements Stage. After key resolution it has two outcomes: tag the
// request and defer the seal to the batch stage, or seal the one payload now.
func (e *Encrypt) Handle(ctx context.Context, req *Request, next Handler) error {
	if !req.authenticated {
		return ErrNotAuthenticated
	}
	var (
		ck  *channelKey
		err error
	)
	if e.keyTTL > 0 {
		// The directory generation is read BEFORE the member fetch: if an
		// update lands in between, the snapshot is newer than the tag, which
		// is safe (the fingerprint cache can run a request behind, never seal
		// to a member set older than its recorded generation).
		var dirGen uint64
		if e.gdir != nil {
			dirGen = e.gdir.Generation()
		}
		// channelKeyFor applies the revocation exclusions itself, under the
		// cache lock, so a racing RevokeMember cannot poison a fresh epoch.
		// It also fetches the member snapshot itself, and only on a cache
		// miss: the steady-state fast path never consults the directory.
		ck, err = e.channelKeyFor(req, req.Channel, dirGen)
	} else {
		ck, err = e.throwawayKey(req.Channel)
	}
	if err != nil {
		return err
	}
	if e.deferSeal {
		// Deferred group seal: tag the request with its epoch key and
		// leave the payload plaintext — the batch stage seals the whole
		// (channel, epoch) group with one AEAD invocation. The request
		// is marked encrypted because its payload is guaranteed sealed
		// before anything downstream of batch (the terminal handler)
		// sees it; the plaintext never leaves the process.
		req.groupKey = ck
		req.encrypted = true
		return next(ctx, req)
	}
	frame, sum, err := ck.seal([][]byte{req.Payload})
	if err != nil {
		return err
	}
	// The frame's hash came almost free with the seal; memoised, no later
	// hop of this submission hashes the frame at all.
	req.setPayloadSum(frame, sum)
	req.Payload = frame
	req.encrypted, req.enveloped = true, true
	return next(ctx, req)
}

// throwawayKey is the uncached stage's key resolution: a fresh data key per
// request, wrapped to the channel's current members minus the revoked.
func (e *Encrypt) throwawayKey(channel string) (*channelKey, error) {
	members, err := e.dir.MemberKeys(channel)
	if err != nil {
		return nil, err
	}
	return newChannelKey(channel, 0, e.effectiveMembers(members), e.adFor(channel))
}
