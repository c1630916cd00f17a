// Package loc implements the paper's worked example (§4): letters of credit
// on a permissioned ledger. The design is derived by the guide engine from
// the §4 requirements — PII must be deletable under GDPR, so it lives
// off-chain; encrypted data may be shared; validators are the transacting
// parties — which leads to a separate ledger per trading group with
// identities verified by a bank, PII off-ledger, and optional payload
// encryption when a third party runs the ordering service.
package loc

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/big"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/contract"
	"dltprivacy/internal/guide"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/offchain"
	"dltprivacy/internal/platform/fabric"
	"dltprivacy/internal/zkp"
)

// Errors returned by the application.
var (
	// ErrBadTransition is returned for out-of-order lifecycle calls.
	ErrBadTransition = errors.New("loc: invalid lifecycle transition")
	// ErrNotFound is returned for unknown letters of credit.
	ErrNotFound = errors.New("loc: letter of credit not found")
	// ErrInsufficientFunds is returned when the buyer cannot prove funds
	// covering the letter amount.
	ErrInsufficientFunds = errors.New("loc: buyer cannot prove sufficient funds")
)

// Status is a letter of credit's lifecycle stage.
type Status string

// Lifecycle stages.
const (
	StatusApplied   Status = "applied"
	StatusIssued    Status = "issued"
	StatusShipped   Status = "shipped"
	StatusPresented Status = "presented"
	StatusPaid      Status = "paid"
)

// Letter is the on-ledger record of a letter of credit. It carries no PII:
// personal data stays off-chain behind the PIIRef anchor.
type Letter struct {
	ID          string `json:"id"`
	Buyer       string `json:"buyer"`
	Seller      string `json:"seller"`
	Bank        string `json:"bank"`
	AmountCents int64  `json:"amountCents"`
	Goods       string `json:"goods"`
	Status      Status `json:"status"`
	// PIIRef anchors the buyer's off-chain PII record.
	PIIRef string `json:"piiRef,omitempty"`
	// ShippingDoc is the seller's shipment reference.
	ShippingDoc string `json:"shippingDoc,omitempty"`
}

// DeriveDesign runs the design-guide engine on the §4 requirements and
// returns the decisions that drive the application configuration. The
// experiment suite asserts the outcome matches the paper's conclusion.
func DeriveDesign() (pii guide.Decision, trade guide.Decision, interactions []guide.Mechanism) {
	// PII: confidential, and GDPR grants deletion -> off-chain with hash.
	pii = guide.Decide(guide.Requirements{
		DataConfidential: true,
		DeletionRequired: true,
	})
	// Trade data: confidential, no deletion requirement, encrypted data
	// may be shared, and validators are the transacting parties (they may
	// read) -> separation of ledgers with optional hash.
	trade = guide.Decide(guide.Requirements{
		DataConfidential:        true,
		EncryptedSharingAllowed: true,
		ValidatorsMayRead:       true,
	})
	// Interactions: buyers and sellers do not want the network to see
	// their relationship -> separate ledger.
	interactions = guide.DecideInteractions(guide.InteractionRequirements{GroupPrivate: true})
	return pii, trade, interactions
}

// Config sets up a letter-of-credit network.
type Config struct {
	Bank   string
	Buyer  string
	Seller string
	// ThirdPartyOrderer, when non-empty, names an external operator for
	// the ordering service; §4: "If a third party is trusted to run the
	// ordering service …, transaction data can be encrypted."
	ThirdPartyOrderer string
	// ClusterOrdering, when true, runs a replicated ordering cluster
	// operated by the trading group itself — the strongest §3.4
	// mitigation (mutually exclusive with ThirdPartyOrderer).
	ClusterOrdering bool
	// ExtraOrgs are network members outside the trading group (they must
	// learn nothing).
	ExtraOrgs []string
}

// App is a running letter-of-credit deployment.
type App struct {
	net     *fabric.Network
	channel string
	cfg     Config
	pii     *offchain.Store
	nextID  int
}

// chaincode returns the letter-of-credit chaincode: a state machine over
// Letter records.
func chaincode() contract.Contract {
	step := func(from, to Status, update func(*Letter, [][]byte) error) contract.Func {
		return func(ctx *contract.Context, args [][]byte) ([]byte, error) {
			if len(args) < 1 {
				return nil, errors.New("want letter id")
			}
			id := string(args[0])
			raw, err := ctx.Get("loc/" + id)
			if err != nil {
				return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
			}
			var letter Letter
			if err := json.Unmarshal(raw, &letter); err != nil {
				return nil, fmt.Errorf("decode letter: %w", err)
			}
			if letter.Status != from {
				return nil, fmt.Errorf("%w: %s is %s, need %s", ErrBadTransition, id, letter.Status, from)
			}
			letter.Status = to
			if update != nil {
				if err := update(&letter, args[1:]); err != nil {
					return nil, err
				}
			}
			out, err := json.Marshal(letter)
			if err != nil {
				return nil, fmt.Errorf("encode letter: %w", err)
			}
			ctx.Put("loc/"+id, out)
			return out, nil
		}
	}
	return contract.Contract{
		Name:    "letterofcredit",
		Version: "1",
		Funcs: map[string]contract.Func{
			"apply": func(ctx *contract.Context, args [][]byte) ([]byte, error) {
				if len(args) != 1 {
					return nil, errors.New("apply: want letter json")
				}
				var letter Letter
				if err := json.Unmarshal(args[0], &letter); err != nil {
					return nil, fmt.Errorf("decode letter: %w", err)
				}
				if letter.ID == "" || letter.AmountCents <= 0 {
					return nil, errors.New("apply: letter needs id and positive amount")
				}
				if _, err := ctx.Get("loc/" + letter.ID); err == nil {
					return nil, fmt.Errorf("apply: letter %s already exists", letter.ID)
				}
				letter.Status = StatusApplied
				out, err := json.Marshal(letter)
				if err != nil {
					return nil, err
				}
				ctx.Put("loc/"+letter.ID, out)
				return out, nil
			},
			"issue": step(StatusApplied, StatusIssued, nil),
			"ship": step(StatusIssued, StatusShipped, func(l *Letter, rest [][]byte) error {
				if len(rest) != 1 {
					return errors.New("ship: want shipping doc ref")
				}
				l.ShippingDoc = string(rest[0])
				return nil
			}),
			"present": step(StatusShipped, StatusPresented, nil),
			"pay":     step(StatusPresented, StatusPaid, nil),
		},
	}
}

// NewApp derives the design and provisions the network accordingly.
func NewApp(cfg Config) (*App, error) {
	if cfg.Bank == "" || cfg.Buyer == "" || cfg.Seller == "" {
		return nil, errors.New("loc: bank, buyer, and seller are required")
	}
	piiDecision, tradeDecision, _ := DeriveDesign()
	if piiDecision.Primary != guide.MechOffChainHash {
		return nil, fmt.Errorf("loc: design derivation changed for PII: %s", piiDecision.Primary)
	}
	if tradeDecision.Primary != guide.MechSeparateLedgers {
		return nil, fmt.Errorf("loc: design derivation changed for trade data: %s", tradeDecision.Primary)
	}

	group := []string{cfg.Bank, cfg.Buyer, cfg.Seller}
	var netCfg fabric.Config
	switch {
	case cfg.ClusterOrdering && cfg.ThirdPartyOrderer != "":
		return nil, errors.New("loc: ClusterOrdering and ThirdPartyOrderer are mutually exclusive")
	case cfg.ClusterOrdering:
		netCfg.OrdererCluster = group
	case cfg.ThirdPartyOrderer != "":
		netCfg.OrdererOperator = cfg.ThirdPartyOrderer
	default:
		// The bank (a transacting party) sequences.
		netCfg.OrdererOperator = cfg.Bank
	}
	net, err := fabric.NewNetwork(netCfg)
	if err != nil {
		return nil, fmt.Errorf("loc network: %w", err)
	}
	for _, org := range append(append([]string(nil), group...), cfg.ExtraOrgs...) {
		if _, err := net.AddOrg(org); err != nil {
			return nil, fmt.Errorf("add org: %w", err)
		}
	}
	// Per the derived design: a separate ledger for the trading group.
	policy := contract.Policy{Members: group, Threshold: 2}
	channelName := "loc-" + cfg.Bank + "-" + cfg.Buyer + "-" + cfg.Seller
	if err := net.CreateChannel(channelName, group, policy); err != nil {
		return nil, fmt.Errorf("create channel: %w", err)
	}
	if err := net.InstallChaincode(channelName, chaincode(), group); err != nil {
		return nil, fmt.Errorf("install chaincode: %w", err)
	}
	// Per the derived design: PII lives off-chain, hosted by the bank
	// (the identity-verifying party), deletable on request.
	pii := offchain.NewStore(cfg.Bank, group,
		offchain.WithAuditLog(net.Log), offchain.WithDataClass(audit.ClassPII))
	return &App{net: net, channel: channelName, cfg: cfg, pii: pii}, nil
}

// Network exposes the underlying network for experiments.
func (a *App) Network() *fabric.Network { return a.net }

func (a *App) invoke(creator, fn string, args ...[]byte) error {
	endorsers := []string{a.cfg.Bank, creator}
	if creator == a.cfg.Bank {
		endorsers = []string{a.cfg.Bank, a.cfg.Seller}
	}
	_, err := a.net.Invoke(a.channel, creator, "letterofcredit", fn, args, endorsers)
	return err
}

// Apply opens a letter of credit: the buyer applies, depositing PII
// off-chain and proving funds in zero knowledge.
//
// balance and blinding open balanceComm, the buyer's committed account
// balance; the bank verifies the sufficient-funds proof against the
// commitment without learning the balance.
func (a *App) Apply(goods string, amountCents int64, piiRecord []byte, balance *big.Int, balanceComm zkp.Commitment, blinding *big.Int) (string, error) {
	a.nextID++
	id := fmt.Sprintf("LOC-%04d", a.nextID)

	// Boolean affirmation (§2.2): buyer proves balance >= amount.
	threshold := big.NewInt(amountCents)
	proof, err := zkp.ProveSufficientFunds(balance, blinding, threshold, balanceComm, []byte(id))
	if err != nil {
		if errors.Is(err, zkp.ErrOutOfRange) {
			return "", ErrInsufficientFunds
		}
		return "", fmt.Errorf("prove funds: %w", err)
	}
	if err := zkp.VerifySufficientFunds(proof, balanceComm, []byte(id)); err != nil {
		return "", fmt.Errorf("%w: %v", ErrInsufficientFunds, err)
	}

	// PII off-chain with the anchor on the ledger (derived design).
	piiKey := "pii/" + id
	anchor, err := a.pii.Put(piiKey, piiRecord)
	if err != nil {
		return "", fmt.Errorf("store pii: %w", err)
	}
	letter := Letter{
		ID:          id,
		Buyer:       a.cfg.Buyer,
		Seller:      a.cfg.Seller,
		Bank:        a.cfg.Bank,
		AmountCents: amountCents,
		Goods:       goods,
		PIIRef:      fmt.Sprintf("%x", anchor[:8]),
	}
	raw, err := json.Marshal(letter)
	if err != nil {
		return "", err
	}
	if err := a.invoke(a.cfg.Buyer, "apply", raw); err != nil {
		return "", err
	}
	return id, nil
}

// Issue has the bank issue the letter.
func (a *App) Issue(id string) error { return a.invoke(a.cfg.Bank, "issue", []byte(id)) }

// Ship has the seller record shipment.
func (a *App) Ship(id, shippingDoc string) error {
	return a.invoke(a.cfg.Seller, "ship", []byte(id), []byte(shippingDoc))
}

// Present has the seller present documents for payment.
func (a *App) Present(id string) error { return a.invoke(a.cfg.Seller, "present", []byte(id)) }

// Pay has the bank settle the letter.
func (a *App) Pay(id string) error { return a.invoke(a.cfg.Bank, "pay", []byte(id)) }

// Get returns the current letter record as seen by a party.
func (a *App) Get(requester, id string) (Letter, error) {
	raw, err := a.net.Query(a.channel, requester, "loc/"+id)
	if err != nil {
		if errors.Is(err, ledger.ErrNotFound) {
			return Letter{}, fmt.Errorf("%s: %w", id, ErrNotFound)
		}
		return Letter{}, err
	}
	var letter Letter
	if err := json.Unmarshal(raw, &letter); err != nil {
		return Letter{}, fmt.Errorf("decode letter: %w", err)
	}
	return letter, nil
}

// DeletePII honours a GDPR deletion request: the off-chain record is erased
// while the on-ledger anchor remains as evidence.
func (a *App) DeletePII(id string) error {
	return a.pii.Delete("pii/" + id)
}

// LeakagePolicy returns the audit policy the §4 design promises: only the
// trading group (and the ordering operator, if third-party) observes
// anything beyond public metadata; PII is seen only by the group.
func (a *App) LeakagePolicy() audit.Policy {
	group := map[string]bool{a.cfg.Bank: true, a.cfg.Buyer: true, a.cfg.Seller: true}
	operator := a.net.OrdererOperator()
	return func(o audit.Observation) bool {
		if group[o.Observer] {
			return true
		}
		if o.Observer == operator {
			// The orderer sees envelopes, identities, relationships and
			// (with full visibility) payloads — the §3.4 caveat — but
			// never PII, which goes off-chain.
			return o.Class != audit.ClassPII
		}
		// peer-<org> principals are the orgs' own peers.
		for g := range group {
			if o.Observer == "peer-"+g {
				return true
			}
		}
		return false
	}
}
