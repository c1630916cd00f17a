package middleware

import (
	"errors"
	"fmt"

	"dltprivacy/internal/ledger"
	"dltprivacy/internal/platform/fabric"
)

// FabricBackend commits ordered transactions into a Fabric-model network
// by invoking an installed chaincode function with (txID, payload) —
// payloads already sealed by the encrypt stage land on the channel ledger
// as envelopes only members can open.
type FabricBackend struct {
	net       *fabric.Network
	org       string
	chaincode string
	fn        string
	endorsers []string
}

// NewFabricBackend creates the adapter. org is the invoking organization,
// chaincode/fn the installed entry point (fn receives key and value args),
// endorsers the orgs satisfying the channel policy.
func NewFabricBackend(net *fabric.Network, org, chaincode, fn string, endorsers []string) (*FabricBackend, error) {
	if net == nil || org == "" || chaincode == "" || fn == "" {
		return nil, errors.New("middleware: fabric backend needs network, org, chaincode, and fn")
	}
	return &FabricBackend{net: net, org: org, chaincode: chaincode, fn: fn, endorsers: endorsers}, nil
}

// Name implements Backend.
func (f *FabricBackend) Name() string { return "fabric" }

// Commit implements Backend.
func (f *FabricBackend) Commit(b ledger.Block) error {
	for _, tx := range b.Txs {
		args := [][]byte{[]byte(tx.ID()), tx.Payload}
		if _, err := f.net.Invoke(tx.Channel, f.org, f.chaincode, f.fn, args, f.endorsers); err != nil {
			return fmt.Errorf("fabric commit tx %s: %w", tx.ID(), err)
		}
	}
	return nil
}

// Compile-time check.
var _ Backend = (*FabricBackend)(nil)
