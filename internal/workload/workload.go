package workload

import (
	"fmt"
	"math/rand"
)

// Trade is one synthetic trade record.
type Trade struct {
	ID          string
	Buyer       string
	Seller      string
	Goods       string
	AmountCents int64
	Payload     []byte
}

// Topology is a synthetic consortium layout.
type Topology struct {
	Orgs     []string
	Channels [][]string // member lists
}

// Generator produces deterministic workloads from a seed.
type Generator struct {
	rng *rand.Rand
}

// New creates a generator with the given seed.
func New(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

var goodsCatalog = []string{
	"steel coils", "wheat", "microcontrollers", "cotton bales",
	"industrial pumps", "solar panels", "pharmaceutical reagents", "timber",
}

// Orgs returns n synthetic organization names.
func (g *Generator) Orgs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("org-%02d", i)
	}
	return out
}

// Topology builds a consortium with n organizations and c channels of the
// given size, membership drawn at random (deterministically).
func (g *Generator) Topology(orgs, channels, channelSize int) (Topology, error) {
	if channelSize > orgs {
		return Topology{}, fmt.Errorf("workload: channel size %d exceeds org count %d", channelSize, orgs)
	}
	if channelSize < 2 {
		return Topology{}, fmt.Errorf("workload: channel size must be at least 2")
	}
	topo := Topology{Orgs: g.Orgs(orgs)}
	for c := 0; c < channels; c++ {
		perm := g.rng.Perm(orgs)[:channelSize]
		members := make([]string, channelSize)
		for i, idx := range perm {
			members[i] = topo.Orgs[idx]
		}
		topo.Channels = append(topo.Channels, members)
	}
	return topo, nil
}

// Trades yields n synthetic trades between members of the given channel.
func (g *Generator) Trades(members []string, n, payloadBytes int) ([]Trade, error) {
	if len(members) < 2 {
		return nil, fmt.Errorf("workload: need at least 2 members, got %d", len(members))
	}
	out := make([]Trade, n)
	for i := range out {
		bi := g.rng.Intn(len(members))
		si := g.rng.Intn(len(members) - 1)
		if si >= bi {
			si++
		}
		payload := make([]byte, payloadBytes)
		for j := range payload {
			payload[j] = byte('a' + g.rng.Intn(26))
		}
		out[i] = Trade{
			ID:          fmt.Sprintf("trade-%06d", i),
			Buyer:       members[bi],
			Seller:      members[si],
			Goods:       goodsCatalog[g.rng.Intn(len(goodsCatalog))],
			AmountCents: int64(g.rng.Intn(10_000_000) + 100),
			Payload:     payload,
		}
	}
	return out, nil
}
