package middleware

import (
	"errors"
	"fmt"

	"dltprivacy/internal/ledger"
	"dltprivacy/internal/platform/corda"
	"dltprivacy/internal/platform/quorum"
)

// The Corda and Quorum backend adapters. Only tests commit through them
// (testPlatforms in gateway_test.go), so they live here, and the package
// proper imports neither platform model.

// CordaBackend commits ordered transactions into a Corda-model network by
// issuing one state per transaction, owned by the custodian party and
// shared with the configured participants.
type CordaBackend struct {
	net          *corda.Network
	issuer       string
	owner        string
	participants []string
}

// NewCordaBackend creates the adapter: issuer initiates the flow, owner
// receives the issued states, participants see them.
func NewCordaBackend(net *corda.Network, issuer, owner string, participants []string) (*CordaBackend, error) {
	if net == nil || issuer == "" || owner == "" {
		return nil, errors.New("middleware: corda backend needs network, issuer, and owner")
	}
	return &CordaBackend{net: net, issuer: issuer, owner: owner, participants: participants}, nil
}

// Name implements Backend.
func (c *CordaBackend) Name() string { return "corda" }

// Commit implements Backend.
func (c *CordaBackend) Commit(b ledger.Block) error {
	for _, tx := range b.Txs {
		if _, err := c.net.Issue(c.issuer, c.owner, tx.Payload, c.participants); err != nil {
			return fmt.Errorf("corda commit tx %s: %w", tx.ID(), err)
		}
	}
	return nil
}

// QuorumBackend commits ordered transactions into a Quorum-model network
// as private transactions keyed by transaction ID: the public chain
// records payload hash, sender, and participant list; payloads travel
// through the participants' private transaction managers.
type QuorumBackend struct {
	net          *quorum.Network
	from         string
	participants []string
}

// NewQuorumBackend creates the adapter. from is the submitting node,
// participants the private recipient set.
func NewQuorumBackend(net *quorum.Network, from string, participants []string) (*QuorumBackend, error) {
	if net == nil || from == "" {
		return nil, errors.New("middleware: quorum backend needs network and sending node")
	}
	return &QuorumBackend{net: net, from: from, participants: participants}, nil
}

// Name implements Backend.
func (q *QuorumBackend) Name() string { return "quorum" }

// Commit implements Backend.
func (q *QuorumBackend) Commit(b ledger.Block) error {
	for _, tx := range b.Txs {
		if _, err := q.net.SendPrivate(q.from, q.participants, tx.ID(), tx.Payload); err != nil {
			return fmt.Errorf("quorum commit tx %s: %w", tx.ID(), err)
		}
	}
	return nil
}

var (
	_ Backend = (*CordaBackend)(nil)
	_ Backend = (*QuorumBackend)(nil)
)
