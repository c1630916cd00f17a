package ordering

import (
	"strings"
	"testing"

	"dltprivacy/internal/ledger"
)

// TestChainVerifierHashesDeliveredBytes: a subscriber ahead of the verifier
// writes over one byte of a delivered payload. The block's transactions keep
// the digests primed at intake, so its DataHash still matches them; the
// verifier hashes the bytes instead and reports that block, and only it.
func TestChainVerifierHashesDeliveredBytes(t *testing.T) {
	svc := New("OrdererOrg", VisibilityFull)
	svc.Subscribe("trade", func(b ledger.Block) error {
		if b.Number == 1 {
			b.Txs[0].Payload[0] ^= 0x01
		}
		return nil
	})
	cv := &ChainVerifier{}
	svc.Subscribe("trade", cv.Deliver)
	for _, key := range []string{"a", "b", "c"} {
		if err := svc.Submit(mkTx("trade", "BankA", key)); err != nil {
			t.Fatalf("Submit %s: %v", key, err)
		}
	}
	if cv.Txs() != 3 {
		t.Fatalf("verifier saw %d transactions, want 3", cv.Txs())
	}
	vs := cv.Violations()
	if len(vs) != 1 || !strings.HasPrefix(vs[0], "block 1's data hash") {
		t.Fatalf("violations %q, want one, block 1's data hash", vs)
	}
}
