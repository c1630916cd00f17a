package ordering

import (
	"errors"
	"testing"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/ledger"
)

func mkTx(channel, creator, key string) ledger.Transaction {
	return ledger.Transaction{
		Channel:   channel,
		Creator:   creator,
		Payload:   []byte("payload"),
		Writes:    []ledger.Write{{Key: key, Value: []byte("v")}},
		Timestamp: time.Unix(1700000000, 0).UTC(),
	}
}

func TestSubmitDeliversToLedger(t *testing.T) {
	l := ledger.New("trade")
	svc := New("OrdererOrg", VisibilityFull)
	svc.Subscribe("trade", l.Append)
	if err := svc.Submit(mkTx("trade", "BankA", "k1")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if l.Height() != 1 {
		t.Fatalf("ledger height = %d, want 1", l.Height())
	}
	if _, err := l.Get("k1"); err != nil {
		t.Fatalf("Get: %v", err)
	}
}

func TestBatching(t *testing.T) {
	l := ledger.New("trade")
	svc := New("O", VisibilityFull, WithBatchSize(3))
	svc.Subscribe("trade", l.Append)
	for i, key := range []string{"a", "b"} {
		if err := svc.Submit(mkTx("trade", "BankA", key)); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if l.Height() != 0 || svc.pendingCount("trade") != 2 {
		t.Fatalf("premature cut: height=%d pending=%d", l.Height(), svc.pendingCount("trade"))
	}
	if err := svc.Submit(mkTx("trade", "BankA", "c")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if l.Height() != 1 || svc.pendingCount("trade") != 0 {
		t.Fatalf("batch not cut: height=%d pending=%d", l.Height(), svc.pendingCount("trade"))
	}
	b, err := l.Block(0)
	if err != nil || len(b.Txs) != 3 {
		t.Fatalf("Block(0) = %d txs, %v; want 3", len(b.Txs), err)
	}
}

func TestFlushPartialBatch(t *testing.T) {
	l := ledger.New("trade")
	svc := New("O", VisibilityFull, WithBatchSize(10))
	svc.Subscribe("trade", l.Append)
	if err := svc.Submit(mkTx("trade", "BankA", "a")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := svc.Flush("trade"); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if l.Height() != 1 {
		t.Fatalf("height = %d, want 1", l.Height())
	}
	// Flushing an empty channel is a no-op.
	if err := svc.Flush("trade"); err != nil {
		t.Fatalf("empty Flush: %v", err)
	}
}

func TestFlushUnknownChannel(t *testing.T) {
	svc := New("O", VisibilityFull)
	if err := svc.Flush("ghost"); !errors.Is(err, errUnknownChannel) {
		t.Fatalf("Flush ghost = %v, want ErrUnknownChannel", err)
	}
}

func TestNoSubscribers(t *testing.T) {
	svc := New("O", VisibilityFull)
	if err := svc.Submit(mkTx("trade", "BankA", "a")); !errors.Is(err, ErrNoSubscribers) {
		t.Fatalf("Submit without subs = %v, want ErrNoSubscribers", err)
	}
}

func TestMultipleChannelsIndependent(t *testing.T) {
	l1 := ledger.New("ch1")
	l2 := ledger.New("ch2")
	svc := New("O", VisibilityFull)
	svc.Subscribe("ch1", l1.Append)
	svc.Subscribe("ch2", l2.Append)
	if err := svc.Submit(mkTx("ch1", "A", "k")); err != nil {
		t.Fatalf("Submit ch1: %v", err)
	}
	if err := svc.Submit(mkTx("ch2", "B", "k")); err != nil {
		t.Fatalf("Submit ch2: %v", err)
	}
	if l1.Height() != 1 || l2.Height() != 1 {
		t.Fatalf("heights = %d, %d; want 1, 1", l1.Height(), l2.Height())
	}
	if svc.height("ch1") != 1 || svc.height("ch2") != 1 || svc.height("ghost") != 0 {
		t.Fatal("orderer chain heights wrong")
	}
}

func TestFullVisibilityLeaksToOperator(t *testing.T) {
	log := audit.NewHistory()
	l := ledger.New("trade")
	svc := New("ThirdPartyOrderer", VisibilityFull, WithAuditLog(log))
	svc.Subscribe("trade", l.Append)
	tx := mkTx("trade", "BankA", "k")
	if err := svc.Submit(tx); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	id := tx.ID()
	if !log.Saw("ThirdPartyOrderer", audit.ClassTxData, id) {
		t.Fatal("full-visibility operator must see tx data (§3.4)")
	}
	if !log.Saw("ThirdPartyOrderer", audit.ClassIdentity, "BankA") {
		t.Fatal("full-visibility operator must see parties")
	}
}

func TestEnvelopeVisibilityHidesContent(t *testing.T) {
	log := audit.NewHistory()
	l := ledger.New("trade")
	svc := New("ThirdPartyOrderer", VisibilityEnvelope, WithAuditLog(log))
	svc.Subscribe("trade", l.Append)
	tx := mkTx("trade", "BankA", "k")
	if err := svc.Submit(tx); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	id := tx.ID()
	if !log.Saw("ThirdPartyOrderer", audit.ClassTxMetadata, id) {
		t.Fatal("operator must still see the envelope")
	}
	if log.Saw("ThirdPartyOrderer", audit.ClassTxData, id) {
		t.Fatal("envelope visibility must not expose tx data")
	}
	if log.SawAny("ThirdPartyOrderer", audit.ClassIdentity) {
		t.Fatal("envelope visibility must not expose identities")
	}
}

func TestInvalidTxRejected(t *testing.T) {
	svc := New("O", VisibilityFull)
	bad := ledger.Transaction{Creator: "A"} // no channel
	if err := svc.Submit(bad); err == nil {
		t.Fatal("invalid tx must be rejected at submission")
	}
}

func TestDeliveryToMultiplePeers(t *testing.T) {
	l1 := ledger.New("trade")
	l2 := ledger.New("trade")
	svc := New("O", VisibilityFull)
	svc.Subscribe("trade", l1.Append)
	svc.Subscribe("trade", l2.Append)
	if err := svc.Submit(mkTx("trade", "A", "k")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if l1.Height() != 1 || l2.Height() != 1 {
		t.Fatal("both peers must receive the block")
	}
	v1, _ := l1.Get("k")
	v2, _ := l2.Get("k")
	if string(v1.Value) != string(v2.Value) {
		t.Fatal("peer states diverged")
	}
}
