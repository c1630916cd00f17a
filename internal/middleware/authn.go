package middleware

import "context"

// authnStage is a pass-through. A submitter's certificate is verified once,
// at session open (SessionManager), and each request rides its session's
// MAC; the name stays registered for the pipelines that still spell it, and
// its declaration (it needs principal) refuses a pipeline in which no
// earlier stage authenticates.
type authnStage struct{}

// Name implements Stage.
func (authnStage) Name() string { return StageAuthn }

// Handle implements Stage.
func (authnStage) Handle(ctx context.Context, req *Request, next Handler) error {
	return next(ctx, req)
}
