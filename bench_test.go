// Package dltprivacy_test is the benchmark harness of experiment E7
// (§3.4 of the paper: performance at scale of confidentiality-preserving
// methods must be assessed per use case) plus the ablation benches listed
// below. Run with:
//
//	go test -bench=. -benchmem
//
// Table/figure mapping:
//
//	BenchmarkTable1Probes        — E1 regeneration cost
//	BenchmarkFigure1Decide       — E2 enumeration cost
//	BenchmarkLoCLifecycle        — E3 end-to-end
//	BenchmarkChannelScaling      — channels vs single ledger (ablation)
//	BenchmarkPrivateData         — PDC vs on-chain symmetric encryption
//	BenchmarkTearOff             — tear-off vs full disclosure to oracles
//	BenchmarkRangeProof          — ZKP boolean affirmation vs raw disclosure
//	BenchmarkMPCSum              — MPC party scaling vs trusted aggregator
//	BenchmarkPaillier            — homomorphic ops vs plaintext (§2.2 claim)
//	BenchmarkTEE                 — enclave execution vs plain execution
//	BenchmarkAnonCred            — Idemix-style presentation/verification
//	BenchmarkOrdering            — ordering throughput vs batch size
//	BenchmarkGatewayChain        — middleware pipeline overhead per stage
//	                               (bench_gateway_test.go)
package dltprivacy_test

import (
	"errors"
	"fmt"
	"math/big"
	"strconv"
	"testing"

	"dltprivacy/internal/contract"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/guide"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/loc"
	"dltprivacy/internal/merkle"
	"dltprivacy/internal/mpc"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/paillier"
	"dltprivacy/internal/platform/fabric"
	"dltprivacy/internal/tee"
	"dltprivacy/internal/zkp"
)

// --- E1 / E2 ---

func BenchmarkTable1Probes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := guide.GenerateTable1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1Decide(b *testing.B) {
	reqs := guide.EnumerateRequirements()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range reqs {
			_ = guide.Decide(r)
		}
	}
}

// --- E3 ---

func BenchmarkLoCLifecycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		app, err := loc.NewApp(loc.Config{Bank: "B", Buyer: "Y", Seller: "S"})
		if err != nil {
			b.Fatal(err)
		}
		balance := big.NewInt(10_000)
		comm, blinding, err := zkp.CommitValue(balance)
		if err != nil {
			b.Fatal(err)
		}
		id, err := app.Apply("goods", 5_000, []byte("pii"), balance, comm, blinding)
		if err != nil {
			b.Fatal(err)
		}
		for _, fn := range []func() error{
			func() error { return app.Issue(id) },
			func() error { return app.Ship(id, "BL") },
			func() error { return app.Present(id) },
			func() error { return app.Pay(id) },
		} {
			if err := fn(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- channel scaling (separation of ledgers ablation) ---

func kvChaincode() contract.Contract {
	return contract.Contract{
		Name:    "kv",
		Version: "1",
		Funcs: map[string]contract.Func{
			"put": func(ctx *contract.Context, args [][]byte) ([]byte, error) {
				if len(args) != 2 {
					return nil, errors.New("put: want key, value")
				}
				ctx.Put(string(args[0]), args[1])
				return nil, nil
			},
		},
	}
}

func newBenchFabric(b *testing.B, channels int) *fabric.Network {
	b.Helper()
	n, err := fabric.NewNetwork(fabric.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, org := range []string{"OrgA", "OrgB"} {
		if _, err := n.AddOrg(org); err != nil {
			b.Fatal(err)
		}
	}
	policy := contract.Policy{Members: []string{"OrgA", "OrgB"}, Threshold: 1}
	for c := 0; c < channels; c++ {
		name := "ch" + strconv.Itoa(c)
		if err := n.CreateChannel(name, []string{"OrgA", "OrgB"}, policy); err != nil {
			b.Fatal(err)
		}
		if err := n.InstallChaincode(name, kvChaincode(), []string{"OrgA"}); err != nil {
			b.Fatal(err)
		}
	}
	return n
}

func BenchmarkChannelScaling(b *testing.B) {
	for _, channels := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("channels-%d", channels), func(b *testing.B) {
			n := newBenchFabric(b, channels)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ch := "ch" + strconv.Itoa(i%channels)
				key := []byte("k" + strconv.Itoa(i))
				if _, err := n.Invoke(ch, "OrgA", "kv", "put",
					[][]byte{key, []byte("v")}, []string{"OrgA"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- PDC vs symmetric encryption (private-data ablation) ---

func BenchmarkPrivateData(b *testing.B) {
	payload := []byte("confidential pricing data for the trade")

	b.Run("pdc-offchain-hash", func(b *testing.B) {
		n := newBenchFabric(b, 1)
		if err := n.CreateCollection("ch0", "pdc", []string{"OrgA", "OrgB"}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := "k" + strconv.Itoa(i)
			if _, err := n.PutPrivate("ch0", "pdc", "OrgA", key, payload); err != nil {
				b.Fatal(err)
			}
			if _, err := n.GetPrivate("ch0", "pdc", "OrgB", key); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("onchain-symmetric", func(b *testing.B) {
		n := newBenchFabric(b, 1)
		key, err := dcrypto.NewSymmetricKey()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := []byte("k" + strconv.Itoa(i))
			ct, err := dcrypto.EncryptSymmetric(key, payload, k)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := n.Invoke("ch0", "OrgA", "kv", "put",
				[][]byte{k, ct}, []string{"OrgA"}); err != nil {
				b.Fatal(err)
			}
			stored, err := n.Query("ch0", "OrgB", string(k))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := dcrypto.DecryptSymmetric(key, stored, k); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- tear-off scaling ---

func BenchmarkTearOff(b *testing.B) {
	for _, leaves := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("leaves-%d", leaves), func(b *testing.B) {
			data := make([][]byte, leaves)
			for i := range data {
				data[i] = []byte("component-" + strconv.Itoa(i))
			}
			tree, err := merkle.New(data)
			if err != nil {
				b.Fatal(err)
			}
			root := tree.Root()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				to, err := tree.TearOffVisible([]int{i % leaves})
				if err != nil {
					b.Fatal(err)
				}
				if err := to.Verify(root); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("full-disclosure-baseline", func(b *testing.B) {
		data := make([][]byte, 64)
		for i := range data {
			data[i] = []byte("component-" + strconv.Itoa(i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tree, err := merkle.New(data)
			if err != nil {
				b.Fatal(err)
			}
			_ = tree.Root()
		}
	})
}

// --- ZKP boolean affirmation ---

func BenchmarkRangeProof(b *testing.B) {
	balance := big.NewInt(5_000_000)
	threshold := big.NewInt(1_000_000)
	comm, blinding, err := zkp.CommitValue(balance)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("prove", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := zkp.ProveSufficientFunds(balance, blinding, threshold, comm, []byte("ctx")); err != nil {
				b.Fatal(err)
			}
		}
	})
	proof, err := zkp.ProveSufficientFunds(balance, blinding, threshold, comm, []byte("ctx"))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := zkp.VerifySufficientFunds(proof, comm, []byte("ctx")); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("raw-disclosure-baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if balance.Cmp(threshold) < 0 {
				b.Fatal("unexpected")
			}
		}
	})
}

// --- MPC party scaling ---

func BenchmarkMPCSum(b *testing.B) {
	for _, parties := range []int{3, 5, 9, 17} {
		b.Run(fmt.Sprintf("parties-%d", parties), func(b *testing.B) {
			inputs := make(map[string]*big.Int, parties)
			for i := 0; i < parties; i++ {
				inputs["party-"+strconv.Itoa(i)] = big.NewInt(int64(i * 7))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mpc.SecureSum(inputs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("trusted-aggregator-baseline", func(b *testing.B) {
		inputs := make([]*big.Int, 9)
		for i := range inputs {
			inputs[i] = big.NewInt(int64(i * 7))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sum := new(big.Int)
			for _, v := range inputs {
				sum.Add(sum, v)
			}
		}
	})
}

// --- Paillier (homomorphic infeasibility quantification) ---

func BenchmarkPaillier(b *testing.B) {
	sk, err := paillier.GenerateKey(2048)
	if err != nil {
		b.Fatal(err)
	}
	m := big.NewInt(123456)
	ct, err := sk.Encrypt(m)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sk.Encrypt(m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sk.Add(ct, ct); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scalar-mul", func(b *testing.B) {
		k := big.NewInt(42)
		for i := 0; i < b.N; i++ {
			if _, err := sk.MulScalar(ct, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sk.Decrypt(ct); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("plaintext-add-baseline", func(b *testing.B) {
		x := big.NewInt(123456)
		for i := 0; i < b.N; i++ {
			_ = new(big.Int).Add(x, x)
		}
	})
}

// --- TEE overhead ---

func benchContract() contract.Contract {
	return contract.Contract{
		Name:    "adder",
		Version: "1",
		Funcs: map[string]contract.Func{
			"add": func(ctx *contract.Context, args [][]byte) ([]byte, error) {
				a, _ := strconv.Atoi(string(args[0]))
				c, _ := strconv.Atoi(string(args[1]))
				return []byte(strconv.Itoa(a + c)), nil
			},
		},
	}
}

func BenchmarkTEE(b *testing.B) {
	args := [][]byte{[]byte("20"), []byte("22")}
	b.Run("plain-execution", func(b *testing.B) {
		c := benchContract()
		for i := 0; i < b.N; i++ {
			ctx := contract.NewContext("ch", "org", nil)
			if _, _, err := c.Invoke(ctx, "add", args); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enclave-execution", func(b *testing.B) {
		m, err := tee.NewManufacturer()
		if err != nil {
			b.Fatal(err)
		}
		enclave, err := m.Provision()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := contract.WrapInEnclave(enclave, benchContract()); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := contract.InvokeInEnclave(enclave, "add", args, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- anonymous credentials ---

func BenchmarkAnonCred(b *testing.B) {
	attrs := []string{"role=member"}
	issuer := anoncredIssuer(b, attrs)
	key, err := issuer.AttributeKey(attrs)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("issue-token", func(b *testing.B) {
		w := anoncredWallet(b)
		for i := 0; i < b.N; i++ {
			if err := w.RequestTokens(issuer, attrs, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("present-and-verify", func(b *testing.B) {
		w := anoncredWallet(b)
		if err := w.RequestTokens(issuer, attrs, b.N+1); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := w.Present(attrs, "bench")
			if err != nil {
				b.Fatal(err)
			}
			if err := verifyPresentation(p, key); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- ordering throughput vs batch size ---

func BenchmarkOrdering(b *testing.B) {
	for _, batch := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			l := ledger.New("ch")
			svc := ordering.New("op", ordering.VisibilityEnvelope, ordering.WithBatchSize(batch))
			svc.Subscribe("ch", l.Append)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := ledger.Transaction{
					Channel: "ch", Creator: "org",
					Writes: []ledger.Write{{Key: "k" + strconv.Itoa(i), Value: []byte("v")}},
				}
				if err := svc.Submit(tx); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			_ = svc.Flush("ch")
		})
	}
}

// --- symmetric encryption payload scaling ---

func BenchmarkSymmetric(b *testing.B) {
	key, err := dcrypto.NewSymmetricKey()
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("bytes-%d", size), func(b *testing.B) {
			payload := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ct, err := dcrypto.EncryptSymmetric(key, payload, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := dcrypto.DecryptSymmetric(key, ct, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
