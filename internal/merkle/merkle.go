// Package merkle implements Merkle trees, inclusion proofs, and the
// "Merkle tree tear-offs" mechanism of §2.2: parties sign over the Merkle
// root of all transaction components, and components that must stay
// confidential from a given party are replaced by their branch digests so the
// party can recompute and sign the root without seeing the hidden data.
package merkle

import (
	"errors"
	"fmt"

	"dltprivacy/internal/dcrypto"
)

// Errors returned by tree and proof operations.
var (
	// ErrEmptyTree is returned when a tree is built from zero leaves.
	ErrEmptyTree = errors.New("merkle: tree needs at least one leaf")
	// ErrBadProof is returned when an inclusion proof fails verification.
	ErrBadProof = errors.New("merkle: proof verification failed")
	// ErrBadTearOff is returned when a partial (torn-off) tree is
	// inconsistent or does not reproduce the committed root.
	ErrBadTearOff = errors.New("merkle: tear-off verification failed")
	// ErrLeafHidden is returned when a consumer asks a torn-off view for
	// data that was redacted.
	ErrLeafHidden = errors.New("merkle: leaf is hidden in this view")
	// ErrIndexRange is returned for out-of-range leaf indices.
	ErrIndexRange = errors.New("merkle: leaf index out of range")
)

// Domain-separation prefixes prevent second-preimage attacks where an
// interior node is reinterpreted as a leaf.
var (
	leafPrefix     = []byte{0x00}
	interiorPrefix = []byte{0x01}
)

// LeafHash computes the digest of a leaf's payload.
func LeafHash(data []byte) [32]byte {
	return dcrypto.HashConcat(leafPrefix, data)
}

func nodeHash(left, right [32]byte) [32]byte {
	return dcrypto.HashConcat(interiorPrefix, left[:], right[:])
}

// Tree is an immutable Merkle tree over a sequence of leaves. Odd nodes are
// promoted (Bitcoin-style duplication is avoided: the last node is carried up
// unchanged), which keeps proofs unambiguous.
type Tree struct {
	leaves [][]byte     // copies of leaf payloads
	levels [][][32]byte // levels[0] = leaf hashes, last level = [root]
}

// New builds a tree over copies of the given leaves.
func New(leaves [][]byte) (*Tree, error) {
	if len(leaves) == 0 {
		return nil, ErrEmptyTree
	}
	cp := make([][]byte, len(leaves))
	for i, l := range leaves {
		cp[i] = append([]byte(nil), l...)
	}
	level := make([][32]byte, len(cp))
	for i, l := range cp {
		level[i] = LeafHash(l)
	}
	levels := [][][32]byte{level}
	for len(level) > 1 {
		next := make([][32]byte, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, nodeHash(level[i], level[i+1]))
			} else {
				next = append(next, level[i]) // promote odd node
			}
		}
		levels = append(levels, next)
		level = next
	}
	return &Tree{leaves: cp, levels: levels}, nil
}

// Root returns the Merkle root.
func (t *Tree) Root() [32]byte { return t.levels[len(t.levels)-1][0] }

// Proof is an inclusion proof for a single leaf.
type Proof struct {
	Index    int        `json:"index"`
	LeafData []byte     `json:"leafData"`
	Path     [][32]byte `json:"path"`
	// Lefts[i] reports whether Path[i] is the left sibling.
	Lefts []bool `json:"lefts"`
}

// Prove builds an inclusion proof for leaf i.
func (t *Tree) Prove(i int) (Proof, error) {
	if i < 0 || i >= len(t.leaves) {
		return Proof{}, ErrIndexRange
	}
	proof := Proof{Index: i, LeafData: append([]byte(nil), t.leaves[i]...)}
	idx := i
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		level := t.levels[lvl]
		sib := idx ^ 1
		if sib < len(level) {
			proof.Path = append(proof.Path, level[sib])
			proof.Lefts = append(proof.Lefts, sib < idx)
		}
		idx /= 2
	}
	return proof, nil
}

// VerifyProof checks an inclusion proof against a root.
func VerifyProof(root [32]byte, p Proof) error {
	h := LeafHash(p.LeafData)
	if len(p.Path) != len(p.Lefts) {
		return ErrBadProof
	}
	for i, sib := range p.Path {
		if p.Lefts[i] {
			h = nodeHash(sib, h)
		} else {
			h = nodeHash(h, sib)
		}
	}
	if h != root {
		return ErrBadProof
	}
	return nil
}

// TearOff is a partial view of a tree: visible leaves carry their payload,
// hidden leaves carry only their digest. A counterparty (for example an
// oracle that must attest to one field, §5 "Corda") can recompute the root
// from the view and sign it without learning the hidden payloads.
type TearOff struct {
	LeafCount int `json:"leafCount"`
	// Visible maps leaf index -> payload copy.
	Visible map[int][]byte `json:"visible"`
	// HiddenDigests maps leaf index -> leaf hash.
	HiddenDigests map[int][32]byte `json:"hiddenDigests"`
}

// TearOffVisible builds a tear-off exposing exactly the given leaf indices.
func (t *Tree) TearOffVisible(visible []int) (TearOff, error) {
	vis := make(map[int]bool, len(visible))
	for _, i := range visible {
		if i < 0 || i >= len(t.leaves) {
			return TearOff{}, ErrIndexRange
		}
		vis[i] = true
	}
	to := TearOff{
		LeafCount:     len(t.leaves),
		Visible:       make(map[int][]byte, len(vis)),
		HiddenDigests: make(map[int][32]byte, len(t.leaves)-len(vis)),
	}
	for i, leaf := range t.leaves {
		if vis[i] {
			to.Visible[i] = append([]byte(nil), leaf...)
		} else {
			to.HiddenDigests[i] = t.levels[0][i]
		}
	}
	return to, nil
}

// Root recomputes the Merkle root from the partial view. This is the
// operation a tear-off recipient performs before signing.
func (to TearOff) Root() ([32]byte, error) {
	if to.LeafCount <= 0 {
		return [32]byte{}, ErrBadTearOff
	}
	level := make([][32]byte, to.LeafCount)
	for i := 0; i < to.LeafCount; i++ {
		if data, ok := to.Visible[i]; ok {
			level[i] = LeafHash(data)
			continue
		}
		digest, ok := to.HiddenDigests[i]
		if !ok {
			return [32]byte{}, fmt.Errorf("%w: leaf %d neither visible nor hidden", ErrBadTearOff, i)
		}
		level[i] = digest
	}
	for len(level) > 1 {
		next := make([][32]byte, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, nodeHash(level[i], level[i+1]))
			} else {
				next = append(next, level[i])
			}
		}
		level = next
	}
	return level[0], nil
}

// Verify checks that the tear-off reproduces the committed root.
func (to TearOff) Verify(root [32]byte) error {
	got, err := to.Root()
	if err != nil {
		return err
	}
	if got != root {
		return ErrBadTearOff
	}
	return nil
}

// Leaf returns the payload of a visible leaf, or ErrLeafHidden when the leaf
// was torn off.
func (to TearOff) Leaf(i int) ([]byte, error) {
	if i < 0 || i >= to.LeafCount {
		return nil, ErrIndexRange
	}
	if data, ok := to.Visible[i]; ok {
		return append([]byte(nil), data...), nil
	}
	return nil, ErrLeafHidden
}

// VisibleIndices returns the sorted-free list of indices with payloads.
func (to TearOff) VisibleIndices() []int {
	out := make([]int, 0, len(to.Visible))
	for i := range to.Visible {
		out = append(out, i)
	}
	return out
}
