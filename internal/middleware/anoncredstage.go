package middleware

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"dltprivacy/internal/anoncred"
	"dltprivacy/internal/zkp"
)

// StageAnonCred authenticates submissions with anonymous-credential
// presentations instead of (or alongside) certificates: the gateway learns
// that the submitter holds a credential for the configured attribute set,
// and a scope-exclusive pseudonym — never the submitter's identity.
const StageAnonCred = "anoncred"

// Meta keys used by the anoncred stage.
const (
	// MetaAnonCred carries the wire-encoded presentation on submit; the
	// stage consumes it and leaves a compact note.
	MetaAnonCred = "anoncred"
	// MetaNym records the verified scope-exclusive pseudonym, riding into
	// transaction metadata so auditors can link same-scope activity
	// without identifying the wallet.
	MetaNym = "nym"
)

// Errors returned by the anoncred stage.
var (
	// ErrCredentialRequired is returned when an unauthenticated submission
	// carries no presentation and the stage requires one.
	ErrCredentialRequired = errors.New("middleware: anoncred: submission carries no credential presentation")
	// ErrCredentialRejected is returned when a carried presentation fails
	// to decode or verify, including one-show replays.
	ErrCredentialRejected = errors.New("middleware: anoncred: credential presentation rejected")
)

// anonCredStage verifies anonymous-credential presentations (Env.AnonCredKey is
// the issuer's attribute verification key). A verified presentation
// authenticates the request — the stage gives the principal fact, as the
// session stage does — with the presentation's pseudonym as the principal.
// One-show tokens are enforced: replaying a presentation fails even though
// the wallet stays unlinkable across scopes.
type anonCredStage struct {
	key     zkp.Point
	attrs   []string // canonical (sorted) required attribute set
	scope   string
	require bool
	shows   *anoncred.ShowRegistry
}

// newAnonCred creates the stage. attrs is the attribute set presentations
// must cover, scope the presentation context they must be bound to. With
// require, submissions that are not already authenticated upstream must
// carry a presentation; without it, presentation-less requests pass
// through to later authenticators.
func newAnonCred(key zkp.Point, attrs []string, scope string, require bool) (*anonCredStage, error) {
	if !key.Valid() || key.IsIdentity() {
		return nil, errors.New("middleware: anoncred needs the issuer attribute key (Env.AnonCredKey)")
	}
	if len(attrs) == 0 {
		return nil, errors.New("middleware: anoncred needs a non-empty attribute set")
	}
	if scope == "" {
		return nil, errors.New("middleware: anoncred needs a presentation scope")
	}
	canonical := append([]string(nil), attrs...)
	sort.Strings(canonical)
	return &anonCredStage{
		key:     key,
		attrs:   canonical,
		scope:   scope,
		require: require,
		shows:   anoncred.NewShowRegistry(),
	}, nil
}

// Name implements Stage.
func (a *anonCredStage) Name() string { return StageAnonCred }

// Handle implements Stage.
func (a *anonCredStage) Handle(ctx context.Context, req *Request, next Handler) error {
	blob, ok := req.Meta[MetaAnonCred]
	if !ok || blob == "" {
		if req.authenticated || !a.require {
			// Another authenticator vouched (or will): certificate and
			// session traffic shares the pipeline with credential traffic.
			return next(ctx, req)
		}
		return fmt.Errorf("%w (scope %s)", ErrCredentialRequired, a.scope)
	}
	if len(blob) > maxProofWireBytes {
		return fmt.Errorf("%w: presentation exceeds %d bytes", ErrCredentialRejected, maxProofWireBytes)
	}
	var p anoncred.Presentation
	if err := json.Unmarshal([]byte(blob), &p); err != nil {
		return fmt.Errorf("%w: %v", ErrCredentialRejected, err)
	}
	if err := checkPresentationPoints(&p); err != nil {
		return fmt.Errorf("%w: %v", ErrCredentialRejected, err)
	}
	if p.Context != a.scope {
		return fmt.Errorf("%w: presentation scope %q, stage requires %q", ErrCredentialRejected, p.Context, a.scope)
	}
	if !sameAttrSet(p.Attrs, a.attrs) {
		return fmt.Errorf("%w: attribute set %v, stage requires %v", ErrCredentialRejected, p.Attrs, a.attrs)
	}
	nym := p.NymString()
	if req.Principal != nym {
		return fmt.Errorf("%w: principal %q is not the presentation pseudonym", ErrCredentialRejected, req.Principal)
	}
	// Accept verifies the credential signature and the pseudonym link
	// proof, then burns the one-show token.
	if err := a.shows.Accept(p, a.key); err != nil {
		return fmt.Errorf("%w: %v", ErrCredentialRejected, err)
	}
	req.authenticated = true
	req.Meta[MetaAnonCred] = "present/" + a.scope
	req.Meta[MetaNym] = nym
	return next(ctx, req)
}

// checkPresentationPoints sanitizes every attacker-controlled group
// element in a decoded presentation before verification touches curve
// arithmetic.
func checkPresentationPoints(p *anoncred.Presentation) error {
	for _, pt := range []zkp.Point{p.Comm.P, p.Sig.R, p.Nym, p.Link.A1, p.Link.A2} {
		if !pt.Valid() {
			return errors.New("presentation element is not a group element")
		}
	}
	if p.Nym.IsIdentity() {
		return errors.New("identity pseudonym")
	}
	return nil
}

// sameAttrSet compares an offered attribute list against the canonical
// (sorted) required set, order-insensitively.
func sameAttrSet(offered, canonical []string) bool {
	if len(offered) != len(canonical) {
		return false
	}
	sorted := append([]string(nil), offered...)
	sort.Strings(sorted)
	for i := range sorted {
		if sorted[i] != canonical[i] {
			return false
		}
	}
	return true
}

// AttachPresentation is the client-side counterpart of the anoncred stage:
// it consumes one wallet token, presents the attribute set under scope,
// binds the request principal to the scope-exclusive pseudonym, and
// attaches the wire-encoded presentation. The pseudonym (now the request
// principal) is returned.
func AttachPresentation(req *Request, w *anoncred.Wallet, attrs []string, scope string) (string, error) {
	p, err := w.Present(attrs, scope)
	if err != nil {
		return "", err
	}
	blob, err := json.Marshal(p)
	if err != nil {
		return "", err
	}
	req.Principal = p.NymString()
	if req.Meta == nil {
		req.Meta = make(map[string]string, 1)
	}
	req.Meta[MetaAnonCred] = string(blob)
	return req.Principal, nil
}

func init() {
	mustRegisterStage(stageDef{
		name: StageAnonCred,
		desc: "anonymous-credential authentication: verify a presentation, principal = pseudonym",
		params: []paramSpec{
			{"mode", `credential system, only "present"`},
			{"attrs", `required attribute set, "+"-separated (e.g. role=member+org=bank)`},
			{"scope", "required presentation context (pseudonyms are scope-exclusive)"},
			{"require", `on|off (default on): on refuses an unauthenticated request with no presentation; off passes it on and gives no principal, for a "session" stage after anoncred (which needs off)`},
		},
		refuses: []factRule{
			{factPrincipal, "a request without a session token is refused at the session stage, so a credential is verified before it: put anoncred first, with require=off so that token requests pass it"},
		},
		gives: []factRule{{fact: factPrincipal}},
		partial: func(sc StageConfig) string {
			if sc.Params["require"] != "off" {
				return ""
			}
			return "with require=off it passes on a request that presents no credential, for a session stage after it to authenticate"
		},
		build: func(p *params, sc StageConfig, env Env) (Stage, error) {
			if mode := p.str("mode", "present"); mode != "present" {
				return nil, fmt.Errorf("unknown anoncred mode %q (want present)", mode)
			}
			attrsRaw := p.str("attrs", "")
			scope := p.str("scope", "")
			require := p.enum("require", "on", "on", "off")
			if p.err != nil {
				return nil, p.err
			}
			if attrsRaw == "" {
				return nil, errors.New(`anoncred needs attrs (the "+"-separated attribute set to require)`)
			}
			if scope == "" {
				return nil, errors.New("anoncred needs scope (the presentation context to require)")
			}
			return newAnonCred(env.AnonCredKey, splitAttrs(attrsRaw), scope, require == "on")
		},
	})
}

// splitAttrs splits a "+"-separated attribute set, dropping empty parts.
func splitAttrs(raw string) []string {
	var out []string
	for _, a := range strings.Split(raw, "+") {
		if a != "" {
			out = append(out, a)
		}
	}
	return out
}
