package loc

import (
	"encoding/json"
	"fmt"

	"dltprivacy/internal/offchain"
)

// What only this package's tests call. No binary links it, so it lives in
// a test file; TestReachedMeansKept (reach_test.go at the module root) fails
// on unreached code outside one.

// List returns every letter visible to the requester, keyed by id.
func (a *App) List(requester string) (map[string]Letter, error) {
	raw, err := a.net.QueryPrefix(a.channel, requester, "loc/")
	if err != nil {
		return nil, err
	}
	out := make(map[string]Letter, len(raw))
	for key, value := range raw {
		var letter Letter
		if err := json.Unmarshal(value, &letter); err != nil {
			return nil, fmt.Errorf("decode %s: %w", key, err)
		}
		out[letter.ID] = letter
	}
	return out, nil
}

// PIIStore returns the off-chain PII store.
func (a *App) PIIStore() *offchain.Store { return a.pii }
