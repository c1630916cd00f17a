package contract

import (
	"fmt"

	"dltprivacy/internal/ledger"
)

// What only this package's tests call. No binary links it, so it lives in
// a test file; TestReachedMeansKept (reach_test.go at the module root) fails
// on unreached code outside one.

// Del records a state deletion.
func (c *Context) Del(key string) {
	c.writes = append(c.writes, ledger.Write{Key: key, Delete: true})
}

// LedgerShim is the minimal on-ledger contract used with an off-chain
// engine: it exposes only read and write entry points, so the ledger layer
// carries no business semantics.
func LedgerShim() Contract {
	return Contract{
		Name:    "shim",
		Version: "1",
		Funcs: map[string]Func{
			"read": func(ctx *Context, args [][]byte) ([]byte, error) {
				if len(args) != 1 {
					return nil, fmt.Errorf("read: want 1 arg, got %d", len(args))
				}
				return ctx.Get(string(args[0]))
			},
			"write": func(ctx *Context, args [][]byte) ([]byte, error) {
				if len(args) != 2 {
					return nil, fmt.Errorf("write: want 2 args, got %d", len(args))
				}
				ctx.Put(string(args[0]), args[1])
				return nil, nil
			},
		},
	}
}

// Orgs returns the organizations with the named logic deployed.
func (e *OffChainEngine) Orgs(name string) []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	for org, byName := range e.logics {
		if _, ok := byName[name]; ok {
			out = append(out, org)
		}
	}
	return out
}
