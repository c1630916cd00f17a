//go:build !race

package dcrypto

import (
	"bytes"
	"testing"
)

// TestMACAllocations pins what a session's key material costs: NewMACKey
// allocates the key it returns and nothing else (its states are inline and
// staged through pooled scratch: it was five, the key, two sha256.New and
// two MarshalBinary), Sum and MAC allocate nothing, and HKDF nothing beyond
// the output its caller provides — here a stack array, and a stack-built
// info label, as the session layer's derivation passes them. The readings
// are go1.24's, where crypto/sha256 appends its state in place
// (AppendBinary). The race detector makes sync.Pool drop items at random,
// hence the build tag.
func TestMACAllocations(t *testing.T) {
	secret := bytes.Repeat([]byte{0x42}, 32)
	salt := bytes.Repeat([]byte{0x24}, 32)
	token := "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff"
	var sink *MACKey
	var tag [32]byte
	rows := []struct {
		name string
		want float64
		run  func()
	}{
		{"NewMACKey", 1, func() { sink = NewMACKey(secret) }},
		{"MACKey.Sum", 0, func() { tag = sink.Sum(salt) }},
		{"MAC", 0, func() { tag = MAC(secret, salt, tag[:]) }},
		{"HKDF into a stack key", 0, func() {
			var label [128]byte
			info := append(append(label[:0], "middleware/session/mac/v1/"...), token...)
			var key [MACKeySize]byte
			if err := HKDF(key[:], secret, salt, info); err != nil {
				t.Fatal(err)
			}
			tag = key
		}},
	}
	sink = NewMACKey(secret)
	for _, row := range rows {
		if got := testing.AllocsPerRun(100, row.run); got != row.want {
			t.Errorf("%s: %v allocations, want %v", row.name, got, row.want)
		}
	}
}
