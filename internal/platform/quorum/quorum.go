// Package quorum models Quorum's privacy architecture as described in §5 of
// the paper: a public ledger replicated to every node, private state kept
// per node, and private transactions whose payloads travel through a private
// transaction manager (Tessera-like) while the public chain records only the
// payload hash — together with the participant list, which the paper calls
// out as a privacy weakness ("revealing to the entire network which parties
// are interacting"). The model also reproduces the second documented
// weakness: because private assets have no global visibility, they can be
// double-spent across disjoint participant sets.
package quorum

import (
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
)

// Errors returned by the Quorum model.
var (
	// ErrUnknownNode is returned for unregistered nodes.
	ErrUnknownNode = errors.New("quorum: unknown node")
	// ErrNotParticipant is returned when a node reads private state it
	// was not party to.
	ErrNotParticipant = errors.New("quorum: node is not a participant")
	// ErrNotOwner is returned when a spender does not own the asset in
	// its own private view.
	ErrNotOwner = errors.New("quorum: sender does not own the asset")
)

// Tx is an entry on the public ledger. For private transactions the payload
// is replaced by its hash, but sender and participant list remain public.
type Tx struct {
	ID           string
	From         string
	IsPrivate    bool
	Payload      []byte   // public txs only
	PayloadHash  [32]byte // private txs only
	Participants []string // private txs: the §5 leak
}

// ptm is a node's private transaction manager: it holds the private payloads
// the node is party to, keyed by payload hash.
type ptm struct {
	mu       sync.Mutex
	payloads map[[32]byte][]byte
}

func newPTM() *ptm { return &ptm{payloads: make(map[[32]byte][]byte)} }

func (p *ptm) store(hash [32]byte, payload []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.payloads[hash] = append([]byte(nil), payload...)
}

func (p *ptm) load(hash [32]byte) ([]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.payloads[hash]
	return b, ok
}

// Node is one Quorum node with public and private state.
type Node struct {
	Name string

	ptm *ptm

	mu           sync.Mutex
	publicState  map[string][]byte
	privateState map[string][]byte
}

// PrivateState reads the node's private view of a key.
func (nd *Node) PrivateState(key string) ([]byte, bool) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	v, ok := nd.privateState[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Network is a Quorum-model network.
type Network struct {
	Log *audit.Log

	mu     sync.Mutex
	nodes  map[string]*Node
	chain  []Tx
	cstore *contractStore
}

// NewNetwork creates an empty Quorum-model network.
func NewNetwork() *Network {
	return &Network{
		Log:   audit.NewHistory(),
		nodes: make(map[string]*Node),
	}
}

// AddNode registers a node.
func (n *Network) AddNode(name string) (*Node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[name]; ok {
		return nil, fmt.Errorf("quorum: node %q already exists", name)
	}
	nd := &Node{
		Name:         name,
		ptm:          newPTM(),
		publicState:  make(map[string][]byte),
		privateState: make(map[string][]byte),
	}
	n.nodes[name] = nd
	return nd, nil
}

// Node returns a registered node.
func (n *Network) Node(name string) (*Node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	nd, ok := n.nodes[name]
	if !ok {
		return nil, fmt.Errorf("%q: %w", name, ErrUnknownNode)
	}
	return nd, nil
}

// Chain returns a copy of the public ledger every node replicates.
func (n *Network) Chain() []Tx {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Tx, len(n.chain))
	copy(out, n.chain)
	return out
}

func txID(parts ...[]byte) string {
	sum := dcrypto.HashConcat(parts...)
	return hex.EncodeToString(sum[:16])
}

// SendPublic submits a public transaction: every node applies the write and
// observes the payload.
func (n *Network) SendPublic(from, key string, value []byte) (string, error) {
	if _, err := n.Node(from); err != nil {
		return "", err
	}
	payload := append([]byte(key+"="), value...)
	id := txID([]byte("public"), []byte(from), payload)
	tx := Tx{ID: id, From: from, Payload: payload}
	n.mu.Lock()
	n.chain = append(n.chain, tx)
	nodes := make([]*Node, 0, len(n.nodes))
	for _, nd := range n.nodes {
		nodes = append(nodes, nd)
	}
	n.mu.Unlock()
	for _, nd := range nodes {
		nd.mu.Lock()
		nd.publicState[key] = append([]byte(nil), value...)
		nd.mu.Unlock()
		n.Log.Record(nd.Name, audit.ClassTxData, id)
		n.Log.Record(nd.Name, audit.ClassIdentity, from)
	}
	return id, nil
}

// SendPrivate submits a private transaction: participants receive the
// payload via the private transaction manager and update private state; the
// public chain carries the payload hash, the sender, and the participant
// list — which every node sees (§5: "the public ledger includes private
// transactions, including the list of participants").
func (n *Network) SendPrivate(from string, participants []string, key string, value []byte) (string, error) {
	if _, err := n.Node(from); err != nil {
		return "", err
	}
	partSet := map[string]bool{from: true}
	for _, p := range participants {
		if _, err := n.Node(p); err != nil {
			return "", err
		}
		partSet[p] = true
	}
	names := make([]string, 0, len(partSet))
	for p := range partSet {
		names = append(names, p)
	}
	sort.Strings(names)

	payload := append([]byte(key+"="), value...)
	hash := dcrypto.Hash(payload)
	id := txID([]byte("private"), []byte(from), hash[:])
	tx := Tx{ID: id, From: from, IsPrivate: true, PayloadHash: hash, Participants: names}

	n.mu.Lock()
	n.chain = append(n.chain, tx)
	all := make([]*Node, 0, len(n.nodes))
	for _, nd := range n.nodes {
		all = append(all, nd)
	}
	n.mu.Unlock()

	relItem := "private-tx:" + strings.Join(names, ",")
	for _, nd := range all {
		if partSet[nd.Name] {
			// Participant: PTM delivery + private state update.
			nd.ptm.store(hash, payload)
			nd.mu.Lock()
			nd.privateState[key] = append([]byte(nil), value...)
			nd.mu.Unlock()
			n.Log.Record(nd.Name, audit.ClassTxData, id)
		}
		// EVERY node sees the envelope: hash, sender, participants.
		n.Log.Record(nd.Name, audit.ClassTxHash, id)
		n.Log.Record(nd.Name, audit.ClassIdentity, from)
		n.Log.Record(nd.Name, audit.ClassRelationship, relItem)
	}
	return id, nil
}

// ReadPrivate reads a private payload by transaction id from a node's PTM.
func (n *Network) ReadPrivate(node, id string) ([]byte, error) {
	nd, err := n.Node(node)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	var hash [32]byte
	found := false
	for _, tx := range n.chain {
		if tx.ID == id && tx.IsPrivate {
			hash = tx.PayloadHash
			found = true
			break
		}
	}
	n.mu.Unlock()
	if !found {
		return nil, fmt.Errorf("tx %q: %w", id, ErrNotParticipant)
	}
	payload, ok := nd.ptm.load(hash)
	if !ok {
		return nil, fmt.Errorf("%s on tx %s: %w", node, id, ErrNotParticipant)
	}
	return payload, nil
}

// IssuePrivateAsset records ownership of an asset in the private state of
// the given participant group.
func (n *Network) IssuePrivateAsset(issuer, assetID, owner string, participants []string) (string, error) {
	return n.SendPrivate(issuer, participants, "asset/"+assetID, []byte(owner))
}

// TransferPrivateAsset moves a private asset to a new owner, visible only to
// the chosen participant group. The sender must own the asset in its own
// private view — which is exactly the insufficient check that enables the
// documented double spend: a malicious sender picks disjoint participant
// groups and spends the asset once per group.
func (n *Network) TransferPrivateAsset(from, assetID, newOwner string, participants []string) (string, error) {
	sender, err := n.Node(from)
	if err != nil {
		return "", err
	}
	cur, ok := sender.PrivateState("asset/" + assetID)
	if !ok || string(cur) != from {
		return "", fmt.Errorf("%s spending %s: %w", from, assetID, ErrNotOwner)
	}
	return n.SendPrivate(from, participants, "asset/"+assetID, []byte(newOwner))
}

// AssetViews reports, for each node that has any view of the asset, who that
// node believes the owner is. Divergent views are the double-spend
// inconsistency a global observer would detect — and individual participants
// cannot.
func (n *Network) AssetViews(assetID string) map[string]string {
	n.mu.Lock()
	nodes := make([]*Node, 0, len(n.nodes))
	for _, nd := range n.nodes {
		nodes = append(nodes, nd)
	}
	n.mu.Unlock()
	out := make(map[string]string)
	for _, nd := range nodes {
		if v, ok := nd.PrivateState("asset/" + assetID); ok {
			out[nd.Name] = string(v)
		}
	}
	return out
}

// DoubleSpendDetected reports whether nodes hold conflicting owner views of
// an asset.
func (n *Network) DoubleSpendDetected(assetID string) bool {
	views := n.AssetViews(assetID)
	seen := ""
	for _, owner := range views {
		if seen == "" {
			seen = owner
			continue
		}
		if owner != seen {
			return true
		}
	}
	return false
}
