package guide

import "fmt"

// Requirements captures the decision points of Figure 1 plus the two
// considerations the paper discusses alongside it: untrusted node
// administrators (handled by encryption, "not captured in this diagram") and
// the business-logic question folded into the TEE branch.
type Requirements struct {
	// DataConfidential: is any of the transaction data confidential?
	DataConfidential bool
	// DeletionRequired: must data be deletable (e.g. GDPR right to be
	// forgotten)? Distributed ledgers cannot delete entries, so deletion
	// forces data off-chain.
	DeletionRequired bool
	// EncryptedSharingAllowed: may encrypted data be shared with and
	// stored by the wider network? (Given enough computing resources,
	// encrypted data can eventually be decrypted.)
	EncryptedSharingAllowed bool
	// PartsPrivateToSubset: does the transaction contain components that
	// must be hidden from one or more participating parties?
	PartsPrivateToSubset bool
	// ValidatorsMayRead: are transaction validators allowed to read
	// transaction contents?
	ValidatorsMayRead bool
	// HideBusinessLogic: must business logic be hidden from validating
	// nodes too?
	HideBusinessLogic bool
	// PrivateToOwnerOnly: does the transaction rely on data that cannot
	// be shared even with transacting counterparties?
	PrivateToOwnerOnly bool
	// BooleanProofsEnough: does a yes/no affirmation (e.g. "party has
	// sufficient funds") satisfy the counterparties?
	BooleanProofsEnough bool
	// CollectiveComputation: must a shared function be computed over the
	// parties' private values (e.g. a secret ballot)?
	CollectiveComputation bool
	// UntrustedNodeAdmin: is a node administered by a third party that
	// must not read raw data? (The case §3.2 notes is not captured in
	// the diagram; it adds encryption.)
	UntrustedNodeAdmin bool
}

// Decision is the output of the Figure 1 walk.
type Decision struct {
	// Primary is the recommended mechanism.
	Primary Mechanism
	// Additional lists complementary mechanisms (e.g. symmetric
	// encryption for untrusted node administrators).
	Additional []Mechanism
	// Path records each decision point and the branch taken, for
	// explainability and for the Figure 1 reproduction harness.
	Path []string
	// Notes carries maturity warnings from the catalog.
	Notes []string
}

// Decide walks Figure 1 and returns the mechanism recommendation for
// transaction confidentiality. The tree follows §3.2:
//
//  1. data not confidential → single ledger;
//  2. deletion required → off-chain data with public hash;
//  3. encrypted data may not be shared → segregated ledgers, with Merkle
//     tear-offs when parts must be hidden from some participants;
//  4. validators not allowed to read → TEEs (also hiding logic) or, once
//     mature, homomorphic computation;
//  5. data private to the owner alone → ZKP for boolean affirmations, MPC
//     for collective computation, otherwise owner-local off-chain data;
//  6. otherwise → separation of ledgers with an optional shared hash.
//
// An untrusted node administrator adds symmetric encryption in every branch
// that stores data on the node.
func Decide(r Requirements) Decision {
	var d Decision
	step := func(q string, yes bool, branch string) {
		d.Path = append(d.Path, fmt.Sprintf("%s %s -> %s", q, yn(yes), branch))
	}

	switch {
	case !r.DataConfidential:
		step("Is data confidential?", false, string(MechSingleLedger))
		d.Primary = MechSingleLedger

	case r.DeletionRequired:
		step("Is data confidential?", true, "continue")
		step("Is deletion necessary?", true, string(MechOffChainHash))
		d.Primary = MechOffChainHash

	case !r.EncryptedSharingAllowed:
		step("Is data confidential?", true, "continue")
		step("Is deletion necessary?", false, "continue")
		step("Can encrypted data be shared and stored?", false, "segregate")
		if r.PartsPrivateToSubset {
			step("Parts of data private to one or more parties?", true, string(MechTearOffs))
			d.Primary = MechTearOffs
		} else {
			step("Parts of data private to one or more parties?", false, string(MechSeparateLedgers))
			d.Primary = MechSeparateLedgers
		}

	case !r.ValidatorsMayRead:
		step("Is data confidential?", true, "continue")
		step("Is deletion necessary?", false, "continue")
		step("Can encrypted data be shared and stored?", true, "continue")
		step("Are validators allowed to read transactions?", false, "confidential validation")
		if r.HideBusinessLogic {
			step("Need to hide business logic?", true, string(MechTEE))
			d.Primary = MechTEE
		} else {
			step("Need to hide business logic?", false, string(MechHomomorphic))
			d.Primary = MechHomomorphic
		}

	case r.PrivateToOwnerOnly:
		step("Is data confidential?", true, "continue")
		step("Is deletion necessary?", false, "continue")
		step("Can encrypted data be shared and stored?", true, "continue")
		step("Are validators allowed to read transactions?", true, "continue")
		step("Data private to owner only?", true, "continue")
		if r.BooleanProofsEnough {
			step("Boolean proofs enough?", true, string(MechZKPData))
			d.Primary = MechZKPData
		} else if r.CollectiveComputation {
			step("Collective computation?", true, string(MechMPC))
			d.Primary = MechMPC
		} else {
			// Reconstruction choice: data that cannot be shared, proven
			// about, or jointly computed on can only stay with its owner
			// off-chain.
			step("Collective computation?", false, string(MechOffChainHash))
			d.Primary = MechOffChainHash
		}

	default:
		step("Is data confidential?", true, "continue")
		step("Is deletion necessary?", false, "continue")
		step("Can encrypted data be shared and stored?", true, "continue")
		step("Are validators allowed to read transactions?", true, "continue")
		step("Data private to owner only?", false, string(MechSeparateLedgers))
		d.Primary = MechSeparateLedgers
	}

	if r.UntrustedNodeAdmin && d.Primary != MechSingleLedger && d.Primary != MechTEE {
		d.Additional = append(d.Additional, MechSymmetricKeys)
		d.Path = append(d.Path, "Untrusted node administrator -> add symmetric key encryption")
	}
	if info, ok := Lookup(d.Primary); ok {
		switch info.Maturity {
		case MaturityExperimental:
			d.Notes = append(d.Notes, string(d.Primary)+": experimental; not feasible for current production systems (§2.2)")
		case MaturityScenarioSpecific:
			d.Notes = append(d.Notes, string(d.Primary)+": must be implemented specifically for the scenario (§2.2)")
		case MaturityProduction:
			// No caveat.
		}
	}
	return d
}

func yn(b bool) string {
	if b {
		return "Y"
	}
	return "N"
}

// EnumerateRequirements yields every combination of the Figure 1 inputs
// (2^10 = 1024), used by the reproduction harness to show the decision
// procedure is total and to tabulate leaf frequencies.
func EnumerateRequirements() []Requirements {
	const n = 10
	out := make([]Requirements, 0, 1<<n)
	for bits := 0; bits < 1<<n; bits++ {
		out = append(out, Requirements{
			DataConfidential:        bits&(1<<0) != 0,
			DeletionRequired:        bits&(1<<1) != 0,
			EncryptedSharingAllowed: bits&(1<<2) != 0,
			PartsPrivateToSubset:    bits&(1<<3) != 0,
			ValidatorsMayRead:       bits&(1<<4) != 0,
			HideBusinessLogic:       bits&(1<<5) != 0,
			PrivateToOwnerOnly:      bits&(1<<6) != 0,
			BooleanProofsEnough:     bits&(1<<7) != 0,
			CollectiveComputation:   bits&(1<<8) != 0,
			UntrustedNodeAdmin:      bits&(1<<9) != 0,
		})
	}
	return out
}
