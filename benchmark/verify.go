package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/middleware"
)

// Payload stamp: the first stampLen bytes of every submitted payload are
// hex digits naming the client session that sent it and the request's
// sequence number, so a delivered envelope, once opened, says which
// submission it must equal.
const (
	stampSessionLen = 8
	stampSeqLen     = 16
	stampLen        = stampSessionLen + stampSeqLen
)

const hexDigits = "0123456789abcdef"

func putHex(dst []byte, v uint64) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = hexDigits[v&0xf]
		v >>= 4
	}
}

// stampPayload writes the session index and sequence number over the head
// of payload.
func stampPayload(payload []byte, session int, seq uint64) {
	putHex(payload[:stampSessionLen], uint64(session))
	putHex(payload[stampSessionLen:stampLen], seq)
}

func readStamp(payload []byte) (session int, seq uint64, err error) {
	if len(payload) < stampLen {
		return 0, 0, fmt.Errorf("payload of %d bytes has no stamp", len(payload))
	}
	s, err := strconv.ParseUint(string(payload[:stampSessionLen]), 16, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("bad session stamp: %w", err)
	}
	seq, err = strconv.ParseUint(string(payload[stampSessionLen:stampLen]), 16, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad sequence stamp: %w", err)
	}
	return int(s), seq, nil
}

// channelVerifier checks one channel's delivery stream as it arrives:
// gap-free block numbers, PrevHash links, no transaction delivered twice
// (the chaos harness's checks), and keeps a spaced sample of delivered
// transactions for the payload check. The ordering service serialises a
// channel's deliveries, so the fields need no lock of their own.
type channelVerifier struct {
	channel  string
	next     uint64
	lastHash [32]byte
	blocks   int
	txs      int // ledger transactions delivered
	members  int // client submissions inside them (a group counts its members)

	seen        map[[32]byte]struct{}
	sampleEvery int
	samples     []ledger.Transaction
	violations  []string
}

func newChannelVerifier(channel string, expectTxs, wantSamples int) *channelVerifier {
	every := 1
	if wantSamples > 0 && expectTxs > wantSamples {
		every = expectTxs / wantSamples
	}
	return &channelVerifier{
		channel:     channel,
		seen:        make(map[[32]byte]struct{}, expectTxs+expectTxs/4+16),
		sampleEvery: every,
	}
}

func (v *channelVerifier) bad(format string, args ...any) {
	v.violations = append(v.violations, v.channel+": "+fmt.Sprintf(format, args...))
}

func (v *channelVerifier) deliver(b ledger.Block) error {
	if b.Number != v.next {
		v.bad("block %d out of order, want %d", b.Number, v.next)
	}
	if v.next > 0 && b.Number == v.next && b.PrevHash != v.lastHash {
		v.bad("block %d breaks the hash chain", b.Number)
	}
	for i := range b.Txs {
		tx := &b.Txs[i]
		// Identity for the duplicate check. A one-transaction block's
		// DataHash is a hash of that transaction's digest and the orderer
		// has already computed it; only multi-transaction blocks pay for
		// digests here.
		id := b.DataHash
		if len(b.Txs) > 1 {
			id = tx.Digest()
		}
		if _, dup := v.seen[id]; dup {
			v.bad("tx %s delivered twice", tx.ID())
		}
		v.seen[id] = struct{}{}
		if v.txs%v.sampleEvery == 0 {
			v.samples = append(v.samples, *tx)
		}
		v.txs++
		v.members += groupSize(tx)
	}
	v.next = b.Number + 1
	v.lastHash = b.Hash()
	v.blocks++
	return nil
}

// groupSize is how many client submissions a delivered transaction
// carries: the member count the batch stage wrote on a group release, 1
// for everything else.
func groupSize(tx *ledger.Transaction) int {
	v, ok := tx.Meta[middleware.MetaBatch]
	if !ok {
		return 1
	}
	if i := strings.LastIndex(v, "n="); i >= 0 {
		if n, err := strconv.Atoi(v[i+2:]); err == nil {
			return n
		}
	}
	return 1
}

// submissionKey is what the payload check needs to know about the client
// session a stamp names.
type submissionKey struct {
	principal string
	key       *dcrypto.PrivateKey
	channel   string
	template  []byte // the session's payload before stamping
}

// expectedPayload checks one recovered payload against what the session
// its stamp names must have submitted on this transaction's channel, and
// returns the request's sequence number.
func expectedPayload(tx *ledger.Transaction, got []byte, lookup func(session int) (submissionKey, bool)) (uint64, error) {
	session, seq, err := readStamp(got)
	if err != nil {
		return 0, err
	}
	sub, ok := lookup(session)
	if !ok {
		return 0, fmt.Errorf("stamp names unknown session %d", session)
	}
	want := append([]byte(nil), sub.template...)
	stampPayload(want, session, seq)
	if !bytes.Equal(got, want) {
		return 0, fmt.Errorf("payload of request %d differs from what session %d submitted", seq, session)
	}
	if sub.channel != tx.Channel {
		return 0, fmt.Errorf("request %d submitted on %s, delivered on %s", seq, sub.channel, tx.Channel)
	}
	if tx.Creator != sub.principal && tx.Creator != middleware.BatchPrincipal {
		return 0, fmt.Errorf("request %d submitted by %s, delivered as %s", seq, sub.principal, tx.Creator)
	}
	return seq, nil
}

// payloadCheck accumulates what opening the sampled transactions found.
type payloadCheck struct {
	opener     submissionKey // any enrolled principal: all are members of every channel
	payloadLen int
	lookup     func(session int) (submissionKey, bool)

	seen   map[uint64]bool // sequence numbers recovered so far
	opened int             // payloads recovered
	// Group envelopes only (see check): members looked at, members whose
	// content was not what their stamp's owner submitted, and the first
	// such mismatch.
	groupMembers    int
	groupMismatches int
	firstMismatch   string
}

// check opens one sampled transaction with a member key and compares
// every recovered payload with what was submitted, byte for byte, and no
// sequence number twice.
//
// A single envelope that fails this fails the run. A group envelope must
// open, hold the member count it declares, and return payloads of the
// submitted length — but its members' CONTENT is counted, not enforced: at
// the commit that introduced this benchmark the batch stage's deferred
// group seal buffers request payloads that still alias the TCP edge's
// per-connection read buffer, so by release time most members hold the
// bytes of a later frame (README, "Known defect"). The count is reported
// as middleware.batch.payload_mismatch_share so the fix shows; make this
// strict in the change that lands it.
func (c *payloadCheck) check(tx *ledger.Transaction) error {
	recovered := func(got []byte) (uint64, error) {
		seq, err := expectedPayload(tx, got, c.lookup)
		if err == nil && c.seen[seq] {
			err = fmt.Errorf("request %d delivered twice", seq)
		}
		if err == nil {
			c.seen[seq] = true
		}
		return seq, err
	}
	if _, grouped := tx.Meta[middleware.MetaBatch]; !grouped {
		env, err := middleware.ParseEnvelope(tx.Payload)
		if err != nil {
			return err
		}
		got, err := middleware.OpenEnvelope(env, c.opener.principal, c.opener.key)
		if err != nil {
			return err
		}
		if _, err := recovered(got); err != nil {
			return fmt.Errorf("tx %s: %w", tx.ID(), err)
		}
		c.opened++
		return nil
	}
	genv, err := middleware.ParseGroupEnvelope(tx.Payload)
	if err != nil {
		return err
	}
	payloads, err := middleware.OpenGroupEnvelope(genv, c.opener.principal, c.opener.key)
	if err != nil {
		return err
	}
	if tx.Creator != middleware.BatchPrincipal {
		return fmt.Errorf("group tx %s created by %q", tx.ID(), tx.Creator)
	}
	if len(payloads) != groupSize(tx) {
		return fmt.Errorf("group tx %s declares %d members, opens to %d", tx.ID(), groupSize(tx), len(payloads))
	}
	for _, got := range payloads {
		if len(got) != c.payloadLen {
			return fmt.Errorf("group tx %s: member payload of %d bytes, submitted %d", tx.ID(), len(got), c.payloadLen)
		}
		c.opened++
		c.groupMembers++
		if _, err := recovered(got); err != nil {
			if c.groupMismatches++; c.firstMismatch == "" {
				c.firstMismatch = fmt.Sprintf("group tx %s: %v", tx.ID(), err)
			}
		}
	}
	return nil
}

// checkNoPlaintextObserved asserts the paper's intermediary property on
// the leakage log: neither the gateway operator nor any ordering operator
// recorded a transaction-data observation.
func checkNoPlaintextObserved(log *audit.Log, operators []string) []string {
	isOperator := make(map[string]bool, len(operators))
	for _, op := range operators {
		isOperator[op] = true
	}
	var out []string
	for _, o := range log.Violations(func(o audit.Observation) bool {
		return !(o.Class == audit.ClassTxData && isOperator[o.Observer])
	}) {
		out = append(out, "leak: "+o.String())
		if len(out) == 8 {
			break
		}
	}
	return out
}
