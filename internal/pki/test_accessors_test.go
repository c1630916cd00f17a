package pki

// What only this package's tests call. No binary links it, so it lives in
// a test file; TestReachedMeansKept (reach_test.go at the module root) fails
// on unreached code outside one.

// CertificateOf returns the identity certificate for an enrolled party.
func (ca *CA) CertificateOf(identity string) (Certificate, error) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	cert, ok := ca.enrolled[identity]
	if !ok {
		return Certificate{}, ErrUnknownIdentity
	}
	return cert, nil
}

// Members returns the global membership list if the CA exposes one, or
// ErrMembershipHidden otherwise.
func (ca *CA) Members() ([]string, error) {
	if !ca.exposeList {
		return nil, ErrMembershipHidden
	}
	ca.mu.Lock()
	defer ca.mu.Unlock()
	out := make([]string, 0, len(ca.enrolled))
	for id := range ca.enrolled {
		out = append(out, id)
	}
	return out, nil
}

// Verify checks a certificate's signature, validity window, and revocation
// status against this CA.
func (ca *CA) Verify(cert Certificate) error {
	if err := VerifyCertificate(cert, ca.PublicKey(), ca.now()); err != nil {
		return err
	}
	ca.mu.Lock()
	revoked := ca.revoked[cert.Serial]
	ca.mu.Unlock()
	if revoked {
		return ErrRevoked
	}
	return nil
}

// WithMembershipList makes the CA expose the global membership list.
// Platforms that want member privacy leave it off.
func WithMembershipList() Option {
	return func(ca *CA) { ca.exposeList = true }
}
