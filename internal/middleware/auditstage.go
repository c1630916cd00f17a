package middleware

import (
	"context"
	"errors"

	"dltprivacy/internal/audit"
)

// auditStage records what the gateway operator observes about each submission
// into the leakage log: envelope metadata and the submitting identity
// always, and full transaction data whenever the payload passes through
// unencrypted — making a pipeline without the encrypt stage show up as a
// leak in the audit matrix rather than going unnoticed.
//
// Observations are recorded only after the downstream chain ACCEPTS the
// submission: a request rejected downstream (a backend error, a quorum
// loss) never reached the observable surface — the orderer and
// backends saw nothing — so logging it would overstate leakage. What is
// observed is classified as of the audit point in the chain (the payload's
// encryption state and digest when it passed this stage), captured before
// the downstream runs so a later encrypt stage cannot retroactively launder
// a plaintext observation.
//
// Recording is inline, on the submit path: a record on a known (observer,
// class) pair is a lookup and an atomic add, and the leakage matrix is
// exact the moment Handle returns.
type auditStage struct {
	log      *audit.Log
	observer string
}

// newAudit creates the audit stage recording for the named observer
// (normally the gateway operator).
func newAudit(log *audit.Log, observer string) (*auditStage, error) {
	if log == nil {
		return nil, errors.New("middleware: audit stage needs a log")
	}
	if observer == "" {
		observer = "gateway"
	}
	return &auditStage{log: log, observer: observer}, nil
}

// Name implements Stage.
func (a *auditStage) Name() string { return StageAudit }

// Handle implements Stage.
func (a *auditStage) Handle(ctx context.Context, req *Request, next Handler) error {
	// Capture the observation BEFORE the downstream runs: the encrypt
	// stage replaces the payload (changing req.ID()) and flips encrypted,
	// and the observation must classify what passed the audit point.
	id := hexID(req.digest())
	leaky := !req.encrypted
	if err := next(ctx, req); err != nil {
		// Rejected downstream: the submission never reached the observable
		// surface, so it must not appear in the leakage log.
		return err
	}
	// The log copies the item it is handed, so the ID never becomes a heap
	// string.
	item := string(id[:])
	a.log.Record(a.observer, audit.ClassTxMetadata, item)
	a.log.Record(a.observer, audit.ClassIdentity, req.Principal)
	if leaky {
		a.log.Record(a.observer, audit.ClassTxData, item)
	}
	return nil
}
