package fabric

import (
	"errors"
	"fmt"
	"sort"

	"dltprivacy/internal/ordering"
)

// What only this package's tests call. No binary links it, so it lives in
// a test file; TestReachedMeansKept (reach_test.go at the module root) fails
// on unreached code outside one.

// Height returns an org's replica height for a channel.
func (n *Network) Height(channelName, org string) (uint64, error) {
	o, err := n.Org(org)
	if err != nil {
		return 0, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	replica, ok := o.ledgers[channelName]
	if !ok {
		return 0, fmt.Errorf("%q on %q: %w", org, channelName, ErrNotMember)
	}
	return replica.Height(), nil
}

// Members returns a channel's member set, visible only to members and the
// orderer operator.
func (n *Network) Members(channelName, requester string) ([]string, error) {
	ch, err := n.channelOf(channelName)
	if err != nil {
		return nil, err
	}
	isOperator := false
	for _, op := range n.orderer.Operators() {
		if requester == op {
			isOperator = true
		}
	}
	if !ch.members[requester] && !isOperator {
		return nil, fmt.Errorf("%q on %q: %w", requester, channelName, ErrNotMember)
	}
	out := make([]string, 0, len(ch.members))
	for m := range ch.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out, nil
}

// OrderingCluster exposes the replicated cluster for a channel when the
// network was configured with OrdererCluster, for fault injection.
func (n *Network) OrderingCluster(channel string) (*ordering.Cluster, error) {
	if len(n.orderer.Operators()) == 1 {
		return nil, errors.New("fabric: network uses a solo ordering service")
	}
	return n.orderer.Cluster(channel)
}
