package dltprivacy_test

import (
	"fmt"
	"strconv"
	"testing"

	"dltprivacy/internal/contract"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/platform/corda"
	"dltprivacy/internal/platform/fabric"
	"dltprivacy/internal/workload"
)

// Extension benches: the member-run replicated ordering cluster vs the solo
// service (the cost of the §3.4 mitigation), networked MPC over the
// transport substrate, and Corda backchain verification depth scaling.

func BenchmarkReplicatedOrdering(b *testing.B) {
	mkTx := func(i int) ledger.Transaction {
		return ledger.Transaction{
			Channel: "ch", Creator: "org",
			Writes: []ledger.Write{{Key: "k" + strconv.Itoa(i), Value: []byte("v")}},
		}
	}
	b.Run("solo", func(b *testing.B) {
		l := ledger.New("ch")
		svc := ordering.New("op", ordering.VisibilityEnvelope)
		svc.Subscribe("ch", l.Append)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := svc.Submit(mkTx(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, nodes := range []int{3, 5} {
		b.Run(fmt.Sprintf("cluster-%d", nodes), func(b *testing.B) {
			ops := make([]string, nodes)
			for i := range ops {
				ops[i] = "member-" + strconv.Itoa(i)
			}
			rs, err := ordering.NewReplicatedShard(ops, ordering.VisibilityEnvelope)
			if err != nil {
				b.Fatal(err)
			}
			l := ledger.New("ch")
			rs.Subscribe("ch", l.Append)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rs.Submit(mkTx(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTradeWorkload drives the Fabric model with the deterministic
// synthetic trade generator across consortium topologies.
func BenchmarkTradeWorkload(b *testing.B) {
	for _, channels := range []int{1, 4} {
		b.Run(fmt.Sprintf("channels-%d", channels), func(b *testing.B) {
			gen := workload.New(2026)
			topo, err := gen.Topology(6, channels, 3)
			if err != nil {
				b.Fatal(err)
			}
			net, err := fabric.NewNetwork(fabric.Config{})
			if err != nil {
				b.Fatal(err)
			}
			for _, org := range topo.Orgs {
				if _, err := net.AddOrg(org); err != nil {
					b.Fatal(err)
				}
			}
			cc := kvChaincode()
			for c := 0; c < channels; c++ {
				name := "ch" + strconv.Itoa(c)
				members := topo.Channels[c]
				policy := contract.Policy{Members: members, Threshold: 1}
				if err := net.CreateChannel(name, members, policy); err != nil {
					b.Fatal(err)
				}
				if err := net.InstallChaincode(name, cc, members[:1]); err != nil {
					b.Fatal(err)
				}
			}
			trades, err := gen.Trades(topo.Orgs, b.N+1, 64)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := i % channels
				name := "ch" + strconv.Itoa(c)
				creator := topo.Channels[c][0]
				if _, err := net.Invoke(name, creator, "kv", "put",
					[][]byte{[]byte(trades[i].ID + strconv.Itoa(i)), trades[i].Payload},
					topo.Channels[c][:1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBackchainVerify(b *testing.B) {
	for _, depth := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			n, err := corda.NewNetwork(corda.Config{})
			if err != nil {
				b.Fatal(err)
			}
			parties := []string{"P0", "P1"}
			for _, p := range parties {
				if _, err := n.AddParty(p); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := n.Issue("P0", "P0", []byte("asset"), parties); err != nil {
				b.Fatal(err)
			}
			// Bounce the asset back and forth to build a chain.
			holder := 0
			for i := 1; i < depth; i++ {
				from, err := n.Party(parties[holder])
				if err != nil {
					b.Fatal(err)
				}
				to := (holder + 1) % 2
				if _, err := n.Transfer(parties[holder], from.Vault()[0], parties[to], nil, nil); err != nil {
					b.Fatal(err)
				}
				holder = to
			}
			final, err := n.Party(parties[holder])
			if err != nil {
				b.Fatal(err)
			}
			ref := final.Vault()[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				verified, err := n.VerifyBackchain(parties[holder], ref)
				if err != nil {
					b.Fatal(err)
				}
				if verified != depth {
					b.Fatalf("verified %d, want %d", verified, depth)
				}
			}
		})
	}
}
