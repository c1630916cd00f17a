package transport

import (
	"errors"
	"fmt"
	"sync"
)

// Errors returned by the network.
var (
	// ErrUnknownEndpoint is returned when sending to an unregistered name.
	ErrUnknownEndpoint = errors.New("transport: unknown endpoint")
	// ErrPartitioned is returned when a partition fault blocks delivery.
	ErrPartitioned = errors.New("transport: endpoints are partitioned")
	// ErrDuplicateEndpoint is returned when a name is registered twice.
	ErrDuplicateEndpoint = errors.New("transport: endpoint already registered")
)

// Message is a point-to-point payload with a topic for dispatch.
type Message struct {
	From    string
	To      string
	Topic   string
	Payload []byte
}

// Handler processes an inbound message and optionally returns a reply
// payload (request/response in one hop keeps flows synchronous).
type Handler func(msg Message) ([]byte, error)

// Network is a registry of endpoints with partition faults.
type Network struct {
	mu         sync.Mutex
	handlers   map[string]Handler
	partitions map[[2]string]bool
	sent       int
	bytes      int
}

// New creates an empty network.
func New() *Network {
	return &Network{
		handlers:   make(map[string]Handler),
		partitions: make(map[[2]string]bool),
	}
}

// Register adds an endpoint.
func (n *Network) Register(name string, h Handler) error {
	if name == "" || h == nil {
		return errors.New("transport: endpoint needs a name and a handler")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.handlers[name]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateEndpoint, name)
	}
	n.handlers[name] = h
	return nil
}

// Partition blocks traffic between a and b (both directions) until Heal.
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitions[pairKey(a, b)] = true
}

// Heal removes a partition between a and b.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitions, pairKey(a, b))
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Send delivers a message to its destination and returns the handler reply.
func (n *Network) Send(msg Message) ([]byte, error) {
	n.mu.Lock()
	h, ok := n.handlers[msg.To]
	partitioned := n.partitions[pairKey(msg.From, msg.To)]
	if ok && !partitioned {
		n.sent++
		n.bytes += len(msg.Payload)
	}
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownEndpoint, msg.To)
	}
	if partitioned {
		return nil, fmt.Errorf("%w: %s <-> %s", ErrPartitioned, msg.From, msg.To)
	}
	reply, err := h(msg)
	if err != nil {
		return nil, fmt.Errorf("deliver to %s: %w", msg.To, err)
	}
	return reply, nil
}

// Stats reports messages and bytes delivered so far.
func (n *Network) Stats() (messages, bytes int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sent, n.bytes
}
