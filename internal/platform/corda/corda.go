// Package corda models Corda's privacy architecture as described in §5 of
// the paper: point-to-point transaction flows with no global broadcast (data
// segregation per transaction), a notary uniqueness service for double-spend
// prevention, one-time public keys concealing state owners from uninvolved
// parties, Merkle-tree tear-offs so oracles attest to single components
// without seeing the rest of the transaction, and business logic executed
// off-platform with the on-chain contract verifying signatories only.
package corda

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/merkle"
	"dltprivacy/internal/pki"
)

// Errors returned by the Corda model.
var (
	// ErrUnknownParty is returned for unregistered parties.
	ErrUnknownParty = errors.New("corda: unknown party")
	// ErrUnknownState is returned when a state ref is not in the vault.
	ErrUnknownState = errors.New("corda: state not found in vault")
	// ErrDoubleSpend is returned by the notary when an input was already
	// consumed.
	ErrDoubleSpend = errors.New("corda: input state already consumed")
	// ErrNotOwner is returned when a spender cannot sign for the state
	// owner's one-time key.
	ErrNotOwner = errors.New("corda: spender does not control the owner key")
	// ErrBadTransaction is returned for malformed or badly signed
	// transactions.
	ErrBadTransaction = errors.New("corda: invalid transaction")
	// ErrLogicRejected is returned when the parties' off-platform
	// business logic rejects a proposal.
	ErrLogicRejected = errors.New("corda: business logic rejected transaction")
)

// component kinds inside the transaction Merkle tree.
const (
	kindInput   = "input"
	kindOutput  = "output"
	kindCommand = "command"
)

// component is one leaf of the transaction Merkle tree.
type component struct {
	Kind string `json:"kind"`
	Data []byte `json:"data"`
}

// State is an on-ledger fact owned via a one-time key.
type State struct {
	Ref          string   `json:"ref"` // txID:index, set at commit
	Data         []byte   `json:"data"`
	OwnerAddr    string   `json:"ownerAddr"` // one-time public key address
	OwnerKey     []byte   `json:"ownerKey"`  // serialized one-time public key
	Participants []string `json:"participants"`
}

// Transaction consumes input states and produces output states. Its
// identifier is the root of the Merkle tree over all components, which is
// what parties and oracles sign — enabling tear-offs.
type Transaction struct {
	Inputs   []string `json:"inputs"` // consumed state refs
	Outputs  []State  `json:"outputs"`
	Commands []string `json:"commands"`

	tree *merkle.Tree
}

// build constructs the component Merkle tree.
func (t *Transaction) build() error {
	leaves := make([][]byte, 0, len(t.Inputs)+len(t.Outputs)+len(t.Commands))
	add := func(kind string, data []byte) error {
		b, err := json.Marshal(component{Kind: kind, Data: data})
		if err != nil {
			return fmt.Errorf("marshal component: %w", err)
		}
		leaves = append(leaves, b)
		return nil
	}
	for _, in := range t.Inputs {
		if err := add(kindInput, []byte(in)); err != nil {
			return err
		}
	}
	for _, out := range t.Outputs {
		b, err := json.Marshal(out)
		if err != nil {
			return fmt.Errorf("marshal output: %w", err)
		}
		if err := add(kindOutput, b); err != nil {
			return err
		}
	}
	for _, c := range t.Commands {
		if err := add(kindCommand, []byte(c)); err != nil {
			return err
		}
	}
	tree, err := merkle.New(leaves)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadTransaction, err)
	}
	t.tree = tree
	return nil
}

// Root returns the transaction Merkle root.
func (t *Transaction) Root() ([32]byte, error) {
	if t.tree == nil {
		if err := t.build(); err != nil {
			return [32]byte{}, err
		}
	}
	return t.tree.Root(), nil
}

// ID returns the hex transaction identifier.
func (t *Transaction) ID() (string, error) {
	root, err := t.Root()
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(root[:16]), nil
}

// CommandTearOff builds a tear-off revealing only command component i —
// the §5 oracle scenario: "the transaction participants do not want all the
// components of the transaction visible to the oracle".
func (t *Transaction) CommandTearOff(i int) (merkle.TearOff, error) {
	if t.tree == nil {
		if err := t.build(); err != nil {
			return merkle.TearOff{}, err
		}
	}
	idx := len(t.Inputs) + len(t.Outputs) + i
	return t.tree.TearOffVisible([]int{idx})
}

// LogicFunc is off-platform business logic evaluated by each participant
// before signing; the ledger layer never sees it (§5: parties "execute
// business logic outside of the platform").
type LogicFunc func(tx *Transaction) error

// Party is a network participant with a vault of unconsumed states.
type Party struct {
	Name string

	key   *dcrypto.PrivateKey
	cert  pki.Certificate
	chain *dcrypto.OneTimeKeyChain

	mu      sync.Mutex
	vault   map[string]State
	records map[string]*txRecord
}

// txRecord is a fully signed, notarized transaction as stored by each
// participant: the transaction, every participant's signature over the
// Merkle root, and the notary's signature.
type txRecord struct {
	tx        *Transaction
	partySigs map[string]dcrypto.Signature
	ownerSigs map[string]dcrypto.Signature // input ref -> one-time-key signature
	notarySig dcrypto.Signature
}

// Vault returns the refs of unconsumed states the party holds.
func (p *Party) Vault() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.vault))
	for ref := range p.vault {
		out = append(out, ref)
	}
	return out
}

// StateByRef returns a vault state.
func (p *Party) StateByRef(ref string) (State, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.vault[ref]
	if !ok {
		return State{}, fmt.Errorf("%q: %w", ref, ErrUnknownState)
	}
	return s, nil
}

// Notary is the uniqueness service. Non-validating by default: it sees input
// refs and the root, not the transaction content.
type Notary struct {
	name       string
	key        *dcrypto.PrivateKey
	validating bool
	log        *audit.Log

	mu       sync.Mutex
	consumed map[string]string // ref -> consuming tx id
}

// Name returns the notary's principal name.
func (no *Notary) Name() string { return no.name }

// PublicKey returns the notary verification key.
func (no *Notary) PublicKey() dcrypto.PublicKey { return no.key.Public() }

// Notarize checks inputs for double spends and signs the root.
func (no *Notary) Notarize(tx *Transaction) (dcrypto.Signature, error) {
	id, err := tx.ID()
	if err != nil {
		return dcrypto.Signature{}, err
	}
	root, err := tx.Root()
	if err != nil {
		return dcrypto.Signature{}, err
	}
	no.mu.Lock()
	for _, ref := range tx.Inputs {
		if prior, ok := no.consumed[ref]; ok {
			no.mu.Unlock()
			return dcrypto.Signature{}, fmt.Errorf("%w: %s consumed by %s", ErrDoubleSpend, ref, prior)
		}
	}
	for _, ref := range tx.Inputs {
		no.consumed[ref] = id
	}
	no.mu.Unlock()

	// Observation: a non-validating notary sees refs and metadata; a
	// validating notary additionally sees the content.
	no.log.Record(no.name, audit.ClassTxMetadata, id)
	if no.validating {
		no.log.Record(no.name, audit.ClassTxData, id)
		for _, out := range tx.Outputs {
			for _, p := range out.Participants {
				no.log.Record(no.name, audit.ClassIdentity, p)
			}
		}
	}
	return no.key.Sign(root[:])
}

// Network is a Corda-model network.
type Network struct {
	Log *audit.Log

	doorman *pki.CA
	notary  *Notary

	mu      sync.Mutex
	parties map[string]*Party
	oracles map[string]*Party
}

// Config controls network construction.
type Config struct {
	// ValidatingNotary switches the notary to validating mode, in which
	// it sees transaction contents (the trade-off §3.4 describes).
	ValidatingNotary bool
	// NotaryName names the notary principal (default "notary").
	NotaryName string
}

// NewNetwork creates a Corda-model network with a doorman CA and a notary.
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.NotaryName == "" {
		cfg.NotaryName = "notary"
	}
	doorman, err := pki.NewCA("corda-doorman")
	if err != nil {
		return nil, fmt.Errorf("doorman: %w", err)
	}
	notaryKey, err := dcrypto.GenerateKey()
	if err != nil {
		return nil, fmt.Errorf("notary key: %w", err)
	}
	log := audit.NewHistory()
	return &Network{
		Log:     log,
		doorman: doorman,
		notary: &Notary{
			name:       cfg.NotaryName,
			key:        notaryKey,
			validating: cfg.ValidatingNotary,
			log:        log,
			consumed:   make(map[string]string),
		},
		parties: make(map[string]*Party),
		oracles: make(map[string]*Party),
	}, nil
}

// Notary returns the network's notary.
func (n *Network) Notary() *Notary { return n.notary }

// AddParty onboards a party through the doorman.
func (n *Network) AddParty(name string) (*Party, error) {
	key, err := dcrypto.GenerateKey()
	if err != nil {
		return nil, fmt.Errorf("party key: %w", err)
	}
	cert, err := n.doorman.Enroll(name, key.Public())
	if err != nil {
		return nil, fmt.Errorf("enroll %s: %w", name, err)
	}
	seed, err := dcrypto.RandomBytes(32)
	if err != nil {
		return nil, err
	}
	chain, err := dcrypto.NewOneTimeKeyChain(seed)
	if err != nil {
		return nil, err
	}
	p := &Party{
		Name:    name,
		key:     key,
		cert:    cert,
		chain:   chain,
		vault:   make(map[string]State),
		records: make(map[string]*txRecord),
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.parties[name]; ok {
		return nil, fmt.Errorf("corda: party %q already exists", name)
	}
	n.parties[name] = p
	return p, nil
}

// Party returns a registered party.
func (n *Network) Party(name string) (*Party, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.parties[name]
	if !ok {
		return nil, fmt.Errorf("%q: %w", name, ErrUnknownParty)
	}
	return p, nil
}

// Issue creates a new state owned by owner via a no-input transaction,
// distributed only to the participants.
func (n *Network) Issue(issuer, owner string, data []byte, participants []string) (string, error) {
	ownerParty, err := n.Party(owner)
	if err != nil {
		return "", err
	}
	oneTime, err := ownerParty.chain.Next()
	if err != nil {
		return "", fmt.Errorf("one-time key: %w", err)
	}
	tx := &Transaction{
		Outputs: []State{{
			Data:         append([]byte(nil), data...),
			OwnerAddr:    oneTime.Address(),
			OwnerKey:     oneTime.Bytes(),
			Participants: append([]string(nil), participants...),
		}},
		Commands: []string{"issue"},
	}
	return n.finalize(tx, issuer, participants, nil, nil)
}

// Transfer consumes a state the sender owns and produces a new state owned
// by the recipient's fresh one-time key. logic, if non-nil, is the
// off-platform business logic each participant runs before signing.
func (n *Network) Transfer(from, stateRef, to string, newData []byte, logic LogicFunc) (string, error) {
	sender, err := n.Party(from)
	if err != nil {
		return "", err
	}
	recipient, err := n.Party(to)
	if err != nil {
		return "", err
	}
	input, err := sender.StateByRef(stateRef)
	if err != nil {
		return "", err
	}
	// Ownership: the sender must control the input's one-time key.
	if !sender.chain.Owns(input.OwnerAddr) {
		return "", fmt.Errorf("%s spending %s: %w", from, stateRef, ErrNotOwner)
	}
	oneTime, err := recipient.chain.Next()
	if err != nil {
		return "", fmt.Errorf("one-time key: %w", err)
	}
	data := newData
	if data == nil {
		data = input.Data
	}
	participants := []string{from, to}
	tx := &Transaction{
		Inputs: []string{stateRef},
		Outputs: []State{{
			Data:         append([]byte(nil), data...),
			OwnerAddr:    oneTime.Address(),
			OwnerKey:     oneTime.Bytes(),
			Participants: participants,
		}},
		Commands: []string{"transfer"},
	}
	root, err := tx.Root()
	if err != nil {
		return "", err
	}
	// Owner signature with the input's one-time key proves control
	// without revealing the sender's identity to non-participants.
	ownerSig, err := sender.chain.Sign(input.OwnerAddr, root[:])
	if err != nil {
		return "", fmt.Errorf("owner signature: %w", err)
	}
	return n.finalize(tx, from, participants, logic,
		map[string]dcrypto.Signature{stateRef: ownerSig})
}

// finalize runs the signing flow: every participant evaluates the
// off-platform logic and signs, the notary notarizes, and the transaction is
// committed to participant vaults only (point-to-point distribution).
func (n *Network) finalize(tx *Transaction, initiator string, participants []string, logic LogicFunc, ownerSigs map[string]dcrypto.Signature) (string, error) {
	id, err := tx.ID()
	if err != nil {
		return "", err
	}
	root, err := tx.Root()
	if err != nil {
		return "", err
	}
	seen := map[string]bool{}
	partySigs := make(map[string]dcrypto.Signature)
	for _, name := range append([]string{initiator}, participants...) {
		if seen[name] {
			continue
		}
		seen[name] = true
		p, err := n.Party(name)
		if err != nil {
			return "", err
		}
		if logic != nil {
			if err := logic(tx); err != nil {
				return "", fmt.Errorf("%w: %s: %v", ErrLogicRejected, name, err)
			}
		}
		sig, err := p.key.Sign(root[:])
		if err != nil {
			return "", fmt.Errorf("sign by %s: %w", name, err)
		}
		partySigs[name] = sig
		// Participants see the full transaction (they receive it P2P).
		n.Log.Record(name, audit.ClassTxData, id)
		for _, other := range participants {
			if other != name {
				n.Log.Record(name, audit.ClassIdentity, other)
				n.Log.Record(name, audit.ClassRelationship, pairItem(name, other))
			}
		}
	}
	notarySig, err := n.notary.Notarize(tx)
	if err != nil {
		return "", err
	}
	// Commit: consume inputs from participant vaults, add outputs, and
	// retain the notarized transaction for backchain resolution.
	for name := range seen {
		p, _ := n.Party(name)
		p.mu.Lock()
		for _, ref := range tx.Inputs {
			delete(p.vault, ref)
		}
		for i, out := range tx.Outputs {
			out.Ref = id + ":" + strconv.Itoa(i)
			p.vault[out.Ref] = out
		}
		p.records[id] = &txRecord{tx: tx, partySigs: partySigs, ownerSigs: ownerSigs, notarySig: notarySig}
		p.mu.Unlock()
	}
	n.propagateBackchain(tx, initiator, seen)
	return id, nil
}

// propagateBackchain implements Corda's transaction resolution: every
// participant receives the provenance chain of the inputs, copied from the
// initiator (who, as holder of the consumed states, has it). This is also
// the documented privacy cost of the model — receiving a state reveals its
// history — so the copies are recorded as observations.
func (n *Network) propagateBackchain(tx *Transaction, initiator string, participants map[string]bool) {
	src, err := n.Party(initiator)
	if err != nil {
		return
	}
	// Collect the transitive closure of input transactions.
	closure := make(map[string]*txRecord)
	queue := append([]string(nil), tx.Inputs...)
	for len(queue) > 0 {
		ref := queue[0]
		queue = queue[1:]
		txID, _, ok := splitRef(ref)
		if !ok {
			continue
		}
		if _, done := closure[txID]; done {
			continue
		}
		src.mu.Lock()
		rec, okTx := src.records[txID]
		src.mu.Unlock()
		if !okTx {
			continue
		}
		closure[txID] = rec
		queue = append(queue, rec.tx.Inputs...)
	}
	for name := range participants {
		p, err := n.Party(name)
		if err != nil {
			continue
		}
		for txID, rec := range closure {
			p.mu.Lock()
			_, had := p.records[txID]
			if !had {
				p.records[txID] = rec
			}
			p.mu.Unlock()
			if !had {
				n.Log.Record(name, audit.ClassTxData, txID)
			}
		}
	}
}

func pairItem(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "<->" + b
}

// AddOracle registers an oracle party (it keeps no vault; it only attests).
func (n *Network) AddOracle(name string) error {
	p, err := n.AddParty(name)
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.oracles[name] = p
	return nil
}

// OracleAttestation is an oracle's signature over a transaction root,
// produced from a tear-off.
type OracleAttestation struct {
	Oracle string
	Root   [32]byte
	Sig    dcrypto.Signature
}

// OracleSign asks the oracle to attest to a transaction via a tear-off: the
// oracle recomputes the root from the partial view, inspects only the
// visible command, and signs. CheckFn validates the visible component (for
// example an exchange rate).
func (n *Network) OracleSign(oracle string, to merkle.TearOff, checkFn func(visible []byte) error) (OracleAttestation, error) {
	n.mu.Lock()
	p, ok := n.oracles[oracle]
	n.mu.Unlock()
	if !ok {
		return OracleAttestation{}, fmt.Errorf("oracle %q: %w", oracle, ErrUnknownParty)
	}
	root, err := to.Root()
	if err != nil {
		return OracleAttestation{}, fmt.Errorf("tear-off root: %w", err)
	}
	for _, idx := range to.VisibleIndices() {
		leaf, err := to.Leaf(idx)
		if err != nil {
			return OracleAttestation{}, err
		}
		var comp component
		if err := json.Unmarshal(leaf, &comp); err != nil {
			return OracleAttestation{}, fmt.Errorf("decode visible component: %w", err)
		}
		if checkFn != nil {
			if err := checkFn(comp.Data); err != nil {
				return OracleAttestation{}, fmt.Errorf("oracle check: %w", err)
			}
		}
		// The oracle observes only the visible component.
		n.Log.Record(oracle, audit.ClassTxData, "component:"+string(comp.Data))
	}
	sig, err := p.key.Sign(root[:])
	if err != nil {
		return OracleAttestation{}, fmt.Errorf("oracle sign: %w", err)
	}
	return OracleAttestation{Oracle: oracle, Root: root, Sig: sig}, nil
}

// VerifyOracleAttestation verifies an oracle signature against a full
// transaction.
func (n *Network) VerifyOracleAttestation(att OracleAttestation, tx *Transaction) error {
	p, err := n.Party(att.Oracle)
	if err != nil {
		return err
	}
	root, err := tx.Root()
	if err != nil {
		return err
	}
	if root != att.Root {
		return fmt.Errorf("%w: attestation root mismatch", ErrBadTransaction)
	}
	if err := p.key.Public().Verify(root[:], att.Sig); err != nil {
		return fmt.Errorf("%w: oracle signature", ErrBadTransaction)
	}
	return nil
}
