package anoncred

import (
	"fmt"
	"math/big"
	"sync"

	"dltprivacy/internal/zkp"
)

// Issuer is the credential authority. It holds one blind-signing key per
// attribute set (for example {"role=bank"}), so a presented token proves
// exactly the attribute set it was issued for and nothing else.
type Issuer struct {
	name string

	mu      sync.Mutex
	signers map[string]*blindSigner // canonical attrs -> signer
}

// NewIssuer creates an issuer.
func NewIssuer(name string) *Issuer {
	return &Issuer{name: name, signers: make(map[string]*blindSigner)}
}

// Name returns the issuer's name.
func (is *Issuer) Name() string { return is.name }

// RegisterAttributeSet creates (or returns) the verification key for an
// attribute set. Relying parties pin this key.
func (is *Issuer) RegisterAttributeSet(attrs []string) (zkp.Point, error) {
	key := string(canonicalAttrs(attrs))
	is.mu.Lock()
	defer is.mu.Unlock()
	if s, ok := is.signers[key]; ok {
		return s.pub, nil
	}
	s, err := newBlindSigner()
	if err != nil {
		return zkp.Point{}, fmt.Errorf("register attribute set: %w", err)
	}
	is.signers[key] = s
	return s.pub, nil
}

// AttributeKey returns the verification key for an attribute set.
func (is *Issuer) AttributeKey(attrs []string) (zkp.Point, error) {
	key := string(canonicalAttrs(attrs))
	is.mu.Lock()
	defer is.mu.Unlock()
	s, ok := is.signers[key]
	if !ok {
		return zkp.Point{}, ErrUnknownAttributeSet
	}
	return s.pub, nil
}

// BeginIssuance opens a blind-signing session for an attribute set. The
// issuer authenticates and authorizes the requester out of band (it is the
// CA that verified the party's identity at onboarding) but learns nothing
// about the token being signed.
func (is *Issuer) BeginIssuance(attrs []string) (sessionID uint64, r zkp.Point, err error) {
	key := string(canonicalAttrs(attrs))
	is.mu.Lock()
	signer, ok := is.signers[key]
	is.mu.Unlock()
	if !ok {
		return 0, zkp.Point{}, ErrUnknownAttributeSet
	}
	return signer.begin()
}

// FinishIssuance completes a blind-signing session.
func (is *Issuer) FinishIssuance(attrs []string, sessionID uint64, c *big.Int) (*big.Int, error) {
	key := string(canonicalAttrs(attrs))
	is.mu.Lock()
	signer, ok := is.signers[key]
	is.mu.Unlock()
	if !ok {
		return nil, ErrUnknownAttributeSet
	}
	return signer.finish(sessionID, c)
}

// token is one single-show credential: a blind signature over a fresh
// Pedersen commitment to the wallet's master secret.
type token struct {
	comm  zkp.Commitment
	blind *big.Int // commitment blinding factor
	sig   blindSignature
}

// Wallet holds a party's master secret and its unused credential tokens.
type Wallet struct {
	master *big.Int

	mu     sync.Mutex
	tokens map[string][]token // canonical attrs -> unused tokens
}

// NewWallet creates a wallet with a fresh master secret.
func NewWallet() (*Wallet, error) {
	s, err := zkp.RandScalar()
	if err != nil {
		return nil, fmt.Errorf("wallet master secret: %w", err)
	}
	return &Wallet{master: s, tokens: make(map[string][]token)}, nil
}

// RequestTokens runs the blind issuance protocol n times against the issuer,
// storing n unlinkable one-show tokens for the attribute set.
func (w *Wallet) RequestTokens(is *Issuer, attrs []string, n int) error {
	pub, err := is.AttributeKey(attrs)
	if err != nil {
		return err
	}
	key := string(canonicalAttrs(attrs))
	for i := 0; i < n; i++ {
		blinding, err := zkp.RandScalar()
		if err != nil {
			return err
		}
		comm := zkp.Commit(w.master, blinding)
		sessionID, r, err := is.BeginIssuance(attrs)
		if err != nil {
			return fmt.Errorf("begin issuance: %w", err)
		}
		req, c, err := blind(pub, r, comm.Bytes())
		if err != nil {
			return err
		}
		s, err := is.FinishIssuance(attrs, sessionID, c)
		if err != nil {
			return fmt.Errorf("finish issuance: %w", err)
		}
		sig := unblind(req, s)
		// A wallet always sanity-checks the unblinded signature before
		// accepting the token.
		if err := verifySchnorrSig(pub, comm.Bytes(), sig); err != nil {
			return fmt.Errorf("issuer produced invalid signature: %w", err)
		}
		w.mu.Lock()
		w.tokens[key] = append(w.tokens[key], token{comm: comm, blind: blinding, sig: sig})
		w.mu.Unlock()
	}
	return nil
}

// NymLinkProof proves, with a single shared response for the master secret,
// that the presenter knows (master, blind) opening the token commitment
// C = master*G + blind*H AND that the pseudonym satisfies Nym = master*base.
// It is the AND-composition that gives Idemix's scope-exclusive pseudonym
// semantics.
type NymLinkProof struct {
	A1, A2 zkp.Point
	Sm, Sb *big.Int
}

func proveNymLink(master, blinding *big.Int, comm zkp.Commitment, base, nym zkp.Point, context []byte) (NymLinkProof, error) {
	km, err := zkp.RandScalar()
	if err != nil {
		return NymLinkProof{}, err
	}
	kb, err := zkp.RandScalar()
	if err != nil {
		return NymLinkProof{}, err
	}
	a1 := zkp.MulBase(km).Add(zkp.GeneratorH().Mul(kb))
	a2 := base.Mul(km)
	c := zkp.Challenge([]byte("anoncred/nymlink"),
		comm.Bytes(), base.Bytes(), nym.Bytes(), a1.Bytes(), a2.Bytes(), context)
	sm := new(big.Int).Mul(c, master)
	sm.Add(sm, km)
	sm.Mod(sm, zkp.Order())
	sb := new(big.Int).Mul(c, blinding)
	sb.Add(sb, kb)
	sb.Mod(sb, zkp.Order())
	return NymLinkProof{A1: a1, A2: a2, Sm: sm, Sb: sb}, nil
}

func verifyNymLink(proof NymLinkProof, comm zkp.Commitment, base, nym zkp.Point, context []byte) error {
	if proof.Sm == nil || proof.Sb == nil {
		return ErrBadCredential
	}
	c := zkp.Challenge([]byte("anoncred/nymlink"),
		comm.Bytes(), base.Bytes(), nym.Bytes(), proof.A1.Bytes(), proof.A2.Bytes(), context)
	// sm*G + sb*H == A1 + c*C
	lhs1 := zkp.MulBase(proof.Sm).Add(zkp.GeneratorH().Mul(proof.Sb))
	rhs1 := proof.A1.Add(comm.P.Mul(c))
	if !lhs1.Equal(rhs1) {
		return ErrBadCredential
	}
	// sm*base == A2 + c*Nym
	lhs2 := base.Mul(proof.Sm)
	rhs2 := proof.A2.Add(nym.Mul(c))
	if !lhs2.Equal(rhs2) {
		return ErrBadCredential
	}
	return nil
}

// Presentation is a zero-knowledge show of a credential: it proves "I hold a
// credential from the issuer for these attributes" bound to a context, and
// carries a scope-exclusive pseudonym — the same wallet presents the same
// pseudonym within one context and unlinkable pseudonyms across contexts.
type Presentation struct {
	Attrs   []string
	Context string

	Comm zkp.Commitment
	Sig  blindSignature
	Nym  zkp.Point
	Link NymLinkProof
}

// Present consumes one token and produces a presentation for the context.
func (w *Wallet) Present(attrs []string, context string) (Presentation, error) {
	key := string(canonicalAttrs(attrs))
	w.mu.Lock()
	list := w.tokens[key]
	if len(list) == 0 {
		w.mu.Unlock()
		return Presentation{}, ErrNoTokens
	}
	tok := list[len(list)-1]
	w.tokens[key] = list[:len(list)-1]
	w.mu.Unlock()

	base := hashToPoint(context)
	nym := base.Mul(w.master)
	link, err := proveNymLink(w.master, tok.blind, tok.comm, base, nym, []byte(context))
	if err != nil {
		return Presentation{}, err
	}
	return Presentation{
		Attrs:   append([]string(nil), attrs...),
		Context: context,
		Comm:    tok.comm,
		Sig:     tok.sig,
		Nym:     nym,
		Link:    link,
	}, nil
}

// VerifyPresentation checks a presentation against the issuer's attribute
// key: the blind signature certifies the commitment, and the link proof ties
// the pseudonym to the committed master secret.
func VerifyPresentation(p Presentation, attrKey zkp.Point) error {
	if err := verifySchnorrSig(attrKey, p.Comm.Bytes(), p.Sig); err != nil {
		return fmt.Errorf("token signature: %w", err)
	}
	base := hashToPoint(p.Context)
	if err := verifyNymLink(p.Link, p.Comm, base, p.Nym, []byte(p.Context)); err != nil {
		return fmt.Errorf("pseudonym link: %w", err)
	}
	return nil
}

// NymString returns a stable identifier for the presentation's pseudonym,
// usable for same-context linkage (auditing, double-show detection).
func (p Presentation) NymString() string {
	sum := p.Nym.Bytes()
	return fmt.Sprintf("%x", sum[:16])
}
