package contract

import (
	"fmt"
	"sync"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/ledger"
)

// OffChainEngine models the paper's off-chain execution engine (§2.3): the
// smart contract on the ledger "only contains functions to read from and
// write to the ledger", while business logic runs in per-organization
// engines outside the platform. Logic never touches uninvolved nodes, any
// implementation language is possible (here: arbitrary Go), but the platform
// no longer guarantees all engines run the same version — the engine exposes
// that hazard instead of hiding it.
type OffChainEngine struct {
	log *audit.Log

	mu     sync.Mutex
	logics map[string]map[string]Contract // org -> name -> logic
}

// NewOffChainEngine creates an engine registry.
func NewOffChainEngine(log *audit.Log) *OffChainEngine {
	return &OffChainEngine{log: log, logics: make(map[string]map[string]Contract)}
}

// Deploy installs business logic into one organization's engine. Version
// control is now the organizations' problem: Deploy happily accepts
// divergent versions, and DetectDrift reports them.
func (e *OffChainEngine) Deploy(org string, logic Contract) error {
	if org == "" || logic.Name == "" {
		return fmt.Errorf("contract: deploy needs an org and a logic name")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	byName, ok := e.logics[org]
	if !ok {
		byName = make(map[string]Contract)
		e.logics[org] = byName
	}
	byName[logic.Name] = logic
	e.log.Record(org, audit.ClassBusinessLogic, logic.Name)
	return nil
}

// Execute runs logic inside the named org's engine against a state view and
// returns the write set the on-ledger shim would submit.
func (e *OffChainEngine) Execute(org, name, fn string, args [][]byte, channel string, view StateView) ([]byte, []ledger.Write, error) {
	e.mu.Lock()
	logic, ok := e.logics[org][name]
	e.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("%s in engine of %s: %w", name, org, ErrNotInstalled)
	}
	ctx := NewContext(channel, org, view)
	return logic.Invoke(ctx, fn, args)
}

// DetectDrift returns ErrVersionMismatch when organizations run different
// versions of the same logic, the §3.3 caveat: "version control will need to
// be managed outside the DLT layer".
func (e *OffChainEngine) DetectDrift(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	versions := make(map[string]bool)
	for _, byName := range e.logics {
		if c, ok := byName[name]; ok {
			versions[c.Version] = true
		}
	}
	if len(versions) > 1 {
		return fmt.Errorf("%s: %d divergent versions: %w", name, len(versions), ErrVersionMismatch)
	}
	return nil
}
