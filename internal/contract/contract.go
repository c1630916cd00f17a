// Package contract implements the smart-contract substrate and the paper's
// business-logic confidentiality mechanisms (§2.3): selective installation
// (contracts distributed only to nodes needed for endorsement), versioned
// in-platform execution, an off-chain execution engine in which the on-ledger
// contract only reads and writes state while logic runs outside the platform,
// and execution inside a trusted execution environment.
package contract

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/tee"
)

// Errors returned by the engine.
var (
	// ErrNotInstalled is returned when a node invokes a contract it does
	// not have — the confidentiality boundary of §2.3.
	ErrNotInstalled = errors.New("contract: not installed on this node")
	// ErrUnknownFunction is returned for undefined contract functions.
	ErrUnknownFunction = errors.New("contract: unknown function")
	// ErrVersionMismatch is returned when nodes disagree on the contract
	// version — the off-chain engine hazard the paper calls out (§3.3).
	ErrVersionMismatch = errors.New("contract: version mismatch across nodes")
	// ErrPolicyUnsatisfied is returned when a transaction lacks the
	// endorsements its policy demands.
	ErrPolicyUnsatisfied = errors.New("contract: endorsement policy unsatisfied")
)

// StateView is read access to world state during execution.
type StateView interface {
	Get(key string) ([]byte, error)
}

// Context is the execution context handed to contract functions.
type Context struct {
	Channel string
	Caller  string
	view    StateView
	writes  []ledger.Write
}

// NewContext creates an execution context over a state view.
func NewContext(channel, caller string, view StateView) *Context {
	return &Context{Channel: channel, Caller: caller, view: view}
}

// Get reads a key from world state.
func (c *Context) Get(key string) ([]byte, error) {
	if c.view == nil {
		return nil, fmt.Errorf("contract: no state view: %w", ledger.ErrNotFound)
	}
	return c.view.Get(key)
}

// Put records a state write.
func (c *Context) Put(key string, value []byte) {
	c.writes = append(c.writes, ledger.Write{Key: key, Value: append([]byte(nil), value...)})
}

// Writes returns the accumulated write set.
func (c *Context) Writes() []ledger.Write {
	out := make([]ledger.Write, len(c.writes))
	copy(out, c.writes)
	return out
}

// Func is one contract entry point.
type Func func(ctx *Context, args [][]byte) ([]byte, error)

// Contract is deterministic, versioned business logic.
type Contract struct {
	Name    string
	Version string
	Funcs   map[string]Func
}

// Invoke executes a function, returning output and the write set.
func (c Contract) Invoke(ctx *Context, fn string, args [][]byte) ([]byte, []ledger.Write, error) {
	f, ok := c.Funcs[fn]
	if !ok {
		return nil, nil, fmt.Errorf("%s.%s: %w", c.Name, fn, ErrUnknownFunction)
	}
	out, err := f(ctx, args)
	if err != nil {
		return nil, nil, fmt.Errorf("%s.%s: %w", c.Name, fn, err)
	}
	return out, ctx.Writes(), nil
}

// Registry tracks which contracts are installed on which nodes. Installation
// is the distribution event that reveals business logic: it is recorded in
// the audit log against the installing node.
type Registry struct {
	log *audit.Log

	mu        sync.Mutex
	installed map[string]map[string]Contract // node -> name -> contract
}

// NewRegistry creates a registry with optional leakage accounting.
func NewRegistry(log *audit.Log) *Registry {
	return &Registry{log: log, installed: make(map[string]map[string]Contract)}
}

// Install places a contract on a node. Only installed nodes can execute or
// inspect the logic (§2.3, "Installation of smart contracts on involved
// nodes only").
func (r *Registry) Install(node string, c Contract) error {
	if node == "" || c.Name == "" {
		return errors.New("contract: install needs a node and a contract name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	byName, ok := r.installed[node]
	if !ok {
		byName = make(map[string]Contract)
		r.installed[node] = byName
	}
	byName[c.Name] = c
	r.log.Record(node, audit.ClassBusinessLogic, c.Name)
	return nil
}

// Installed reports whether node holds the contract.
func (r *Registry) Installed(node, name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.installed[node][name]
	return ok
}

// NodesWith returns the nodes holding the named contract.
func (r *Registry) NodesWith(name string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for node, byName := range r.installed {
		if _, ok := byName[name]; ok {
			out = append(out, node)
		}
	}
	return out
}

// Invoke executes a contract on a node against a state view. Nodes without
// the contract cannot execute (and never saw) the logic.
func (r *Registry) Invoke(node, name, fn string, args [][]byte, channel, caller string, view StateView) ([]byte, []ledger.Write, error) {
	r.mu.Lock()
	c, ok := r.installed[node][name]
	r.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("%s on %s: %w", name, node, ErrNotInstalled)
	}
	ctx := NewContext(channel, caller, view)
	return c.Invoke(ctx, fn, args)
}

// Versions returns the distinct versions of a contract across nodes.
func (r *Registry) Versions(name string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[string]bool)
	var out []string
	for _, byName := range r.installed {
		if c, ok := byName[name]; ok && !seen[c.Version] {
			seen[c.Version] = true
			out = append(out, c.Version)
		}
	}
	return out
}

// CheckVersionConsistency returns ErrVersionMismatch when nodes hold
// different versions — the in-built version control DLT platforms provide
// and off-chain engines lose (§3.3).
func (r *Registry) CheckVersionConsistency(name string) error {
	if len(r.Versions(name)) > 1 {
		return fmt.Errorf("%s: %w", name, ErrVersionMismatch)
	}
	return nil
}

// Policy is an endorsement policy: at least Threshold of Members must have
// endorsed a transaction.
type Policy struct {
	Members   []string
	Threshold int
}

// Evaluate checks a transaction against the policy. Signature validity is
// the ledger's job; the policy checks the endorser set.
func (p Policy) Evaluate(tx ledger.Transaction) error {
	if p.Threshold <= 0 {
		return fmt.Errorf("%w: non-positive threshold", ErrPolicyUnsatisfied)
	}
	count := 0
	for _, m := range p.Members {
		if tx.EndorsedBy(m) {
			count++
		}
	}
	if count < p.Threshold {
		return fmt.Errorf("%w: %d of %d required endorsements", ErrPolicyUnsatisfied, count, p.Threshold)
	}
	return nil
}

// teeCall is the serialized request/response format for enclave execution.
type teeCall struct {
	Fn    string            `json:"fn"`
	Args  [][]byte          `json:"args"`
	State map[string][]byte `json:"state"`
}

type teeResult struct {
	Output []byte         `json:"output"`
	Writes []ledger.Write `json:"writes"`
}

// WrapInEnclave loads a contract into a TEE so it can execute where the
// hosting administrator sees neither logic nor data (§2.3, "Trusted
// execution environments"). The returned measurement lets verifiers pin the
// program in attestations. State is passed in as a snapshot because the
// enclave boundary does not allow callbacks to the host.
func WrapInEnclave(enclave *tee.Enclave, c Contract) ([32]byte, error) {
	prog := tee.Program{
		Name:    "contract/" + c.Name,
		Version: c.Version,
		Run: func(input, _ []byte) ([]byte, []byte, error) {
			var call teeCall
			if err := json.Unmarshal(input, &call); err != nil {
				return nil, nil, fmt.Errorf("decode enclave call: %w", err)
			}
			ctx := NewContext("tee", "enclave", snapshotView(call.State))
			out, writes, err := c.Invoke(ctx, call.Fn, call.Args)
			if err != nil {
				return nil, nil, err
			}
			res, err := json.Marshal(teeResult{Output: out, Writes: writes})
			if err != nil {
				return nil, nil, fmt.Errorf("encode enclave result: %w", err)
			}
			return res, nil, nil
		},
	}
	if err := enclave.Load(prog); err != nil {
		return [32]byte{}, fmt.Errorf("load contract into enclave: %w", err)
	}
	return prog.Measurement(), nil
}

// snapshotView adapts a state snapshot map to StateView.
type snapshotView map[string][]byte

// Get implements StateView.
func (v snapshotView) Get(key string) ([]byte, error) {
	b, ok := v[key]
	if !ok {
		return nil, fmt.Errorf("key %q: %w", key, ledger.ErrNotFound)
	}
	return b, nil
}

// InvokeInEnclave executes a wrapped contract inside the enclave and returns
// output, write set, and the attestation.
func InvokeInEnclave(enclave *tee.Enclave, fn string, args [][]byte, state map[string][]byte) ([]byte, []ledger.Write, tee.Attestation, error) {
	input, err := json.Marshal(teeCall{Fn: fn, Args: args, State: state})
	if err != nil {
		return nil, nil, tee.Attestation{}, fmt.Errorf("encode enclave call: %w", err)
	}
	raw, att, err := enclave.Execute(input)
	if err != nil {
		return nil, nil, tee.Attestation{}, err
	}
	var res teeResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, nil, tee.Attestation{}, fmt.Errorf("decode enclave result: %w", err)
	}
	return res.Output, res.Writes, att, nil
}
