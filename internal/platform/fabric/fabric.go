// Package fabric models Hyperledger Fabric's privacy and confidentiality
// architecture as described in §5 of the paper: channels as the primary
// separation-of-ledgers mechanism, chaincode visible only where installed,
// an ordering service with full visibility of channel membership and
// transactions (the §3.4 caveat), Private Data Collections that keep
// payloads off-chain but list collection members in transactions, and
// Idemix-style anonymous credentials for privacy of parties within a
// channel.
//
// The model is in-process and synchronous; every information flow is
// recorded in the audit log so experiments can verify exactly who saw what.
package fabric

import (
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"dltprivacy/internal/anoncred"
	"dltprivacy/internal/audit"
	"dltprivacy/internal/contract"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/offchain"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
)

// Errors returned by the Fabric model.
var (
	// ErrNotMember is returned when a non-member touches a channel.
	ErrNotMember = errors.New("fabric: organization is not a channel member")
	// ErrUnknownOrg is returned for unregistered organizations.
	ErrUnknownOrg = errors.New("fabric: unknown organization")
	// ErrUnknownChannel is returned for unknown channels.
	ErrUnknownChannel = errors.New("fabric: unknown channel")
	// ErrUnknownCollection is returned for unknown private data
	// collections.
	ErrUnknownCollection = errors.New("fabric: unknown private data collection")
	// ErrEndorsementFailed is returned when endorsing peers reject a
	// proposal.
	ErrEndorsementFailed = errors.New("fabric: endorsement failed")
	// ErrBadPresentation is returned when an Idemix presentation does not
	// verify.
	ErrBadPresentation = errors.New("fabric: invalid anonymous credential presentation")
)

// memberAttr is the attribute set certified for channel clients using
// Idemix-style anonymous transactions.
var memberAttr = []string{"role=member"}

// Org is a network organization running one peer.
type Org struct {
	Name string

	key    *dcrypto.PrivateKey
	cert   pki.Certificate
	wallet *anoncred.Wallet

	mu      sync.Mutex
	ledgers map[string]*ledger.Ledger // channel -> replica
	pdc     map[string]*offchain.Store
}

// Sign signs a digest with the org's enrollment key (satisfies the
// ledger.Transaction endorsement interface).
func (o *Org) Sign(msg []byte) (dcrypto.Signature, error) { return o.key.Sign(msg) }

// Public returns the org's enrollment public key.
func (o *Org) Public() dcrypto.PublicKey { return o.key.Public() }

// channel is the Fabric separation-of-ledgers unit.
type channel struct {
	name    string
	members map[string]bool
	policy  contract.Policy
	// collections maps collection name -> member set.
	collections map[string]map[string]bool
	// history archives committed blocks so late joiners can catch up.
	history []ledger.Block
}

// Network is a Fabric-model network.
type Network struct {
	Log *audit.Log

	ca        *pki.CA
	idemix    *anoncred.Issuer
	orderer   *ordering.ReplicatedShard
	chaincode *contract.Registry

	mu       sync.Mutex
	orgs     map[string]*Org
	channels map[string]*channel
	receipts *ledger.Ledger
}

// Config controls network construction.
type Config struct {
	// OrdererOperator names the principal running the ordering service
	// alone; the paper's mitigation is channel members running it
	// themselves.
	OrdererOperator string
	// OrdererCluster, when set (>= 3 members), has the members run the
	// ordering service instead, replicated (one cluster per channel): the
	// full §3.4 mitigation with crash fault tolerance.
	OrdererCluster []string
	// BatchSize is transactions per block.
	BatchSize int
}

// NewNetwork creates a Fabric-model network with a CA, an Idemix issuer, and
// an ordering service with full visibility (the Fabric architecture).
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.OrdererOperator == "" {
		cfg.OrdererOperator = "orderer-org"
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	ca, err := pki.NewCA("fabric-ca")
	if err != nil {
		return nil, fmt.Errorf("fabric ca: %w", err)
	}
	log := audit.NewHistory()
	idemix := anoncred.NewIssuer("fabric-idemix")
	if _, err := idemix.RegisterAttributeSet(memberAttr); err != nil {
		return nil, fmt.Errorf("register idemix attrs: %w", err)
	}
	operators := cfg.OrdererCluster
	if len(operators) == 0 {
		operators = []string{cfg.OrdererOperator}
	}
	orderer, err := ordering.NewReplicatedShard(operators, ordering.VisibilityFull,
		ordering.WithAuditLog(log), ordering.WithBatchSize(cfg.BatchSize))
	if err != nil {
		return nil, fmt.Errorf("ordering cluster: %w", err)
	}
	return &Network{
		Log:       log,
		ca:        ca,
		idemix:    idemix,
		orderer:   orderer,
		chaincode: contract.NewRegistry(log),
		orgs:      make(map[string]*Org),
		channels:  make(map[string]*channel),
	}, nil
}

// OrdererOperator returns the first principal operating the ordering
// service (the only one unless the network was configured with
// OrdererCluster).
func (n *Network) OrdererOperator() string { return n.orderer.Operators()[0] }

// OrdererOperators returns every principal operating the ordering service.
func (n *Network) OrdererOperators() []string { return n.orderer.Operators() }

// AddOrg enrolls an organization with the CA and creates its peer.
func (n *Network) AddOrg(name string) (*Org, error) {
	key, err := dcrypto.GenerateKey()
	if err != nil {
		return nil, fmt.Errorf("org key: %w", err)
	}
	cert, err := n.ca.Enroll(name, key.Public())
	if err != nil {
		return nil, fmt.Errorf("enroll %s: %w", name, err)
	}
	wallet, err := anoncred.NewWallet()
	if err != nil {
		return nil, fmt.Errorf("wallet for %s: %w", name, err)
	}
	if err := wallet.RequestTokens(n.idemix, memberAttr, 16); err != nil {
		return nil, fmt.Errorf("idemix tokens for %s: %w", name, err)
	}
	org := &Org{
		Name:    name,
		key:     key,
		cert:    cert,
		wallet:  wallet,
		ledgers: make(map[string]*ledger.Ledger),
		pdc:     make(map[string]*offchain.Store),
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.orgs[name]; ok {
		return nil, fmt.Errorf("fabric: organization %q already exists", name)
	}
	n.orgs[name] = org
	return org, nil
}

// Org returns a registered organization.
func (n *Network) Org(name string) (*Org, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	o, ok := n.orgs[name]
	if !ok {
		return nil, fmt.Errorf("%q: %w", name, ErrUnknownOrg)
	}
	return o, nil
}

// CreateChannel establishes a separate ledger for the member set. Channel
// membership is revealed to members (who must know each other) and to the
// ordering service operator — and to nobody else.
func (n *Network) CreateChannel(name string, members []string, policy contract.Policy) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.channels[name]; ok {
		return fmt.Errorf("fabric: channel %q already exists", name)
	}
	memberSet := make(map[string]bool, len(members))
	for _, m := range members {
		org, ok := n.orgs[m]
		if !ok {
			return fmt.Errorf("%q: %w", m, ErrUnknownOrg)
		}
		memberSet[m] = true
		replica := ledger.New(name)
		org.mu.Lock()
		org.ledgers[name] = replica
		org.mu.Unlock()
		n.orderer.Subscribe(name, replica.Append)
	}
	ch := &channel{
		name:        name,
		members:     memberSet,
		policy:      policy,
		collections: make(map[string]map[string]bool),
	}
	n.channels[name] = ch
	// Archive committed blocks after all replicas accept them, so late
	// joiners can replay history (see JoinChannel).
	n.orderer.Subscribe(name, func(b ledger.Block) error {
		n.mu.Lock()
		ch.history = append(ch.history, b)
		n.mu.Unlock()
		return nil
	})
	// Members learn each other's identity and the relationship; the
	// orderer operator learns membership through channel configuration.
	for m := range memberSet {
		for other := range memberSet {
			n.Log.Record(m, audit.ClassIdentity, other)
		}
		n.Log.Record(m, audit.ClassRelationship, relationshipItem(name, members))
		for _, op := range n.orderer.Operators() {
			n.Log.Record(op, audit.ClassIdentity, m)
		}
	}
	for _, op := range n.orderer.Operators() {
		n.Log.Record(op, audit.ClassRelationship, relationshipItem(name, members))
	}
	return nil
}

func relationshipItem(channel string, members []string) string {
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	return "channel:" + channel + ":" + strings.Join(sorted, ",")
}

func (n *Network) channelOf(name string) (*channel, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ch, ok := n.channels[name]
	if !ok {
		return nil, fmt.Errorf("%q: %w", name, ErrUnknownChannel)
	}
	return ch, nil
}

// InstallChaincode installs a contract on the peers of the named orgs only;
// other peers never see the logic (§5: "only peers that have the chaincode
// installed are able to view the chaincode").
func (n *Network) InstallChaincode(channelName string, c contract.Contract, orgNames []string) error {
	ch, err := n.channelOf(channelName)
	if err != nil {
		return err
	}
	for _, name := range orgNames {
		if !ch.members[name] {
			return fmt.Errorf("install on %q: %w", name, ErrNotMember)
		}
		if err := n.chaincode.Install(peerID(name), c); err != nil {
			return fmt.Errorf("install chaincode: %w", err)
		}
	}
	return nil
}

func peerID(org string) string { return "peer-" + org }

// ChaincodeInstalledOn reports whether an org's peer holds the contract.
func (n *Network) ChaincodeInstalledOn(org, name string) bool {
	return n.chaincode.Installed(peerID(org), name)
}

// stateView adapts a channel replica to contract.StateView.
type stateView struct{ l *ledger.Ledger }

func (v stateView) Get(key string) ([]byte, error) {
	vv, err := v.l.Get(key)
	if err != nil {
		return nil, err
	}
	return vv.Value, nil
}

// Invoke runs the full Fabric transaction flow: the creator proposes,
// endorsing peers execute the chaincode and endorse, the orderer orders (and
// observes), and every member peer validates and commits.
func (n *Network) Invoke(channelName, creatorOrg, chaincodeName, fn string, args [][]byte, endorsers []string) (string, error) {
	ch, err := n.channelOf(channelName)
	if err != nil {
		return "", err
	}
	if !ch.members[creatorOrg] {
		return "", fmt.Errorf("%q on %q: %w", creatorOrg, channelName, ErrNotMember)
	}
	creator, err := n.Org(creatorOrg)
	if err != nil {
		return "", err
	}

	// Endorsement phase: each endorsing peer executes the proposal
	// against its current state and must produce the same write set.
	var writes []ledger.Write
	var output []byte
	for i, e := range endorsers {
		if !ch.members[e] {
			return "", fmt.Errorf("endorser %q: %w", e, ErrNotMember)
		}
		org, err := n.Org(e)
		if err != nil {
			return "", err
		}
		org.mu.Lock()
		replica := org.ledgers[channelName]
		org.mu.Unlock()
		out, w, err := n.chaincode.Invoke(peerID(e), chaincodeName, fn, args, channelName, creatorOrg, stateView{replica})
		if err != nil {
			return "", fmt.Errorf("%w: peer %s: %v", ErrEndorsementFailed, e, err)
		}
		// Endorsers see the proposal content.
		n.Log.Record(e, audit.ClassTxData, proposalItem(channelName, chaincodeName, fn))
		if i == 0 {
			writes, output = w, out
			continue
		}
		if !writesEqual(writes, w) {
			return "", fmt.Errorf("%w: divergent write sets between endorsers", ErrEndorsementFailed)
		}
	}
	_ = output

	tx := ledger.Transaction{
		Channel:   channelName,
		Creator:   creatorOrg,
		Contract:  chaincodeName,
		Payload:   flattenArgs(fn, args),
		Writes:    writes,
		Timestamp: time.Now().UTC(),
	}
	if err := tx.Endorse(creatorOrg, creator); err != nil {
		return "", err
	}
	for _, e := range endorsers {
		if e == creatorOrg {
			continue
		}
		org, _ := n.Org(e)
		if err := tx.Endorse(e, org); err != nil {
			return "", err
		}
	}
	if err := ch.policy.Evaluate(tx); err != nil {
		return "", err
	}
	id := tx.ID()
	// Commit phase: ordering service sees everything (full visibility),
	// then member peers validate and apply. Members observe the tx data.
	if err := n.orderer.Submit(tx); err != nil {
		return "", fmt.Errorf("order tx %s: %w", id, err)
	}
	for m := range ch.members {
		n.Log.Record(m, audit.ClassTxData, id)
		n.Log.Record(m, audit.ClassIdentity, creatorOrg)
	}
	return id, nil
}

func proposalItem(channel, chaincode, fn string) string {
	return "proposal:" + channel + ":" + chaincode + ":" + fn
}

func flattenArgs(fn string, args [][]byte) []byte {
	parts := make([][]byte, 0, len(args)+1)
	parts = append(parts, []byte(fn))
	parts = append(parts, args...)
	sum := dcrypto.HashConcat(parts...)
	out := append([]byte("invoke:"+fn+":"), sum[:8]...)
	return out
}

func writesEqual(a, b []ledger.Write) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Delete != b[i].Delete || string(a[i].Value) != string(b[i].Value) {
			return false
		}
	}
	return true
}

// Query reads a key from a channel replica; only members can.
func (n *Network) Query(channelName, org, key string) ([]byte, error) {
	ch, err := n.channelOf(channelName)
	if err != nil {
		return nil, err
	}
	if !ch.members[org] {
		return nil, fmt.Errorf("%q on %q: %w", org, channelName, ErrNotMember)
	}
	o, err := n.Org(org)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	replica := o.ledgers[channelName]
	o.mu.Unlock()
	v, err := replica.Get(key)
	if err != nil {
		return nil, err
	}
	return v.Value, nil
}

// QueryPrefix returns all channel state entries under a key prefix; only
// members can scan.
func (n *Network) QueryPrefix(channelName, org, prefix string) (map[string][]byte, error) {
	ch, err := n.channelOf(channelName)
	if err != nil {
		return nil, err
	}
	if !ch.members[org] {
		return nil, fmt.Errorf("%q on %q: %w", org, channelName, ErrNotMember)
	}
	o, err := n.Org(org)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	replica := o.ledgers[channelName]
	o.mu.Unlock()
	return replica.GetByPrefix(prefix), nil
}

// AnonymousInvoke submits a transaction whose creator is an Idemix
// pseudonym: endorsing happens with the anonymous credential, so neither the
// peers nor the ordering service learn the client's enrollment identity (§5:
// "Fabric provides privacy of parties with Idemix").
func (n *Network) AnonymousInvoke(channelName, creatorOrg string, writes []ledger.Write) (string, string, error) {
	ch, err := n.channelOf(channelName)
	if err != nil {
		return "", "", err
	}
	if !ch.members[creatorOrg] {
		return "", "", fmt.Errorf("%q on %q: %w", creatorOrg, channelName, ErrNotMember)
	}
	org, err := n.Org(creatorOrg)
	if err != nil {
		return "", "", err
	}
	pres, err := org.wallet.Present(memberAttr, "channel:"+channelName)
	if err != nil {
		return "", "", fmt.Errorf("idemix presentation: %w", err)
	}
	attrKey, err := n.idemix.AttributeKey(memberAttr)
	if err != nil {
		return "", "", err
	}
	if err := anoncred.VerifyPresentation(pres, attrKey); err != nil {
		return "", "", fmt.Errorf("%w: %v", ErrBadPresentation, err)
	}
	nym := "idemix:" + pres.NymString()
	// The transaction carries the pseudonym, never the identity. A fresh
	// signing key stands in for the pseudonymous signature.
	anonKey, err := dcrypto.GenerateKey()
	if err != nil {
		return "", "", err
	}
	tx := ledger.Transaction{
		Channel:   channelName,
		Creator:   nym,
		Payload:   []byte("anonymous"),
		Writes:    writes,
		Timestamp: time.Now().UTC(),
	}
	if err := tx.Endorse(nym, anonSigner{anonKey}); err != nil {
		return "", "", err
	}
	id := tx.ID()
	if err := n.orderer.Submit(tx); err != nil {
		return "", "", fmt.Errorf("order anonymous tx: %w", err)
	}
	for m := range ch.members {
		n.Log.Record(m, audit.ClassTxData, id)
	}
	return id, nym, nil
}

// anonSigner adapts a throwaway key to the endorsement interface.
type anonSigner struct{ key *dcrypto.PrivateKey }

func (s anonSigner) Sign(msg []byte) (dcrypto.Signature, error) { return s.key.Sign(msg) }
func (s anonSigner) Public() dcrypto.PublicKey                  { return s.key.Public() }

// CreateCollection defines a Private Data Collection within a channel: the
// named members hold the private data off-chain; transactions reference it
// by hash and list the collection members (the §5 caveat).
func (n *Network) CreateCollection(channelName, collection string, members []string) error {
	ch, err := n.channelOf(channelName)
	if err != nil {
		return err
	}
	memberSet := make(map[string]bool, len(members))
	for _, m := range members {
		if !ch.members[m] {
			return fmt.Errorf("collection member %q: %w", m, ErrNotMember)
		}
		memberSet[m] = true
	}
	n.mu.Lock()
	ch.collections[collection] = memberSet
	n.mu.Unlock()
	for _, m := range members {
		org, err := n.Org(m)
		if err != nil {
			return err
		}
		org.mu.Lock()
		org.pdc[collection] = offchain.NewStore(peerID(m), members, offchain.WithAuditLog(n.Log))
		org.mu.Unlock()
	}
	return nil
}

// PutPrivate writes private data into a collection: the payload goes to the
// off-chain stores of collection members, while the channel transaction
// carries only the hash — plus the collection member list, which every
// channel member can read (the documented PDC privacy limitation).
func (n *Network) PutPrivate(channelName, collection, org, key string, value []byte) (string, error) {
	ch, err := n.channelOf(channelName)
	if err != nil {
		return "", err
	}
	collMembers, ok := ch.collections[collection]
	if !ok {
		return "", fmt.Errorf("%q: %w", collection, ErrUnknownCollection)
	}
	if !collMembers[org] {
		return "", fmt.Errorf("%q in %q: %w", org, collection, ErrNotMember)
	}
	var anchor offchain.Anchor
	memberNames := make([]string, 0, len(collMembers))
	for m := range collMembers {
		memberNames = append(memberNames, m)
		o, err := n.Org(m)
		if err != nil {
			return "", err
		}
		o.mu.Lock()
		store := o.pdc[collection]
		o.mu.Unlock()
		a, err := store.Put(key, value)
		if err != nil {
			return "", fmt.Errorf("distribute private data: %w", err)
		}
		anchor = a
	}
	sort.Strings(memberNames)
	creator, err := n.Org(org)
	if err != nil {
		return "", err
	}
	tx := ledger.Transaction{
		Channel:  channelName,
		Creator:  org,
		Contract: "pdc",
		Payload:  []byte("pdc-hash:" + hex.EncodeToString(anchor[:])),
		Meta: map[string]string{
			"collection":        collection,
			"collectionMembers": strings.Join(memberNames, ","),
			"key":               key,
		},
		Writes: []ledger.Write{{
			Key:   "pdc/" + collection + "/" + key,
			Value: anchor[:],
		}},
		Timestamp: time.Now().UTC(),
	}
	if err := tx.Endorse(org, creator); err != nil {
		return "", err
	}
	id := tx.ID()
	if err := n.orderer.Submit(tx); err != nil {
		return "", fmt.Errorf("order pdc tx: %w", err)
	}
	// Every channel member sees the hash and the collection member list.
	for m := range ch.members {
		n.Log.Record(m, audit.ClassTxHash, id)
		n.Log.Record(m, audit.ClassRelationship, "pdc:"+collection+":"+strings.Join(memberNames, ","))
	}
	return id, nil
}

// GetPrivate reads private data from a collection member's store.
func (n *Network) GetPrivate(channelName, collection, org, key string) ([]byte, error) {
	ch, err := n.channelOf(channelName)
	if err != nil {
		return nil, err
	}
	collMembers, ok := ch.collections[collection]
	if !ok {
		return nil, fmt.Errorf("%q: %w", collection, ErrUnknownCollection)
	}
	if !collMembers[org] {
		return nil, fmt.Errorf("%q in %q: %w", org, collection, ErrNotMember)
	}
	o, err := n.Org(org)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	store := o.pdc[collection]
	o.mu.Unlock()
	return store.Get(key, org)
}

// VerifyPrivate checks private data against its on-chain anchor, available
// to any channel member holding the data.
func (n *Network) VerifyPrivate(channelName, collection, org, key string, value []byte) error {
	anchorBytes, err := n.Query(channelName, org, "pdc/"+collection+"/"+key)
	if err != nil {
		return err
	}
	var anchor offchain.Anchor
	copy(anchor[:], anchorBytes)
	return offchain.VerifyAnchor(value, anchor)
}
