package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentNetworkUse exercises Send, Partition/Heal and Stats from
// many goroutines at once; run with -race.
func TestConcurrentNetworkUse(t *testing.T) {
	n := New()
	const endpoints = 8
	var delivered atomic.Int64
	names := make([]string, endpoints)
	for i := range names {
		names[i] = fmt.Sprintf("node-%d", i)
		if err := n.Register(names[i], func(msg Message) ([]byte, error) {
			delivered.Add(1)
			return []byte("ack"), nil
		}); err != nil {
			t.Fatalf("Register %s: %v", names[i], err)
		}
	}

	const rounds = 50
	var wg sync.WaitGroup

	// Senders: unicast between random fixed pairs.
	for g := 0; g < endpoints; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			from, to := names[g], names[(g+1)%endpoints]
			for i := 0; i < rounds; i++ {
				reply, err := n.Send(Message{From: from, To: to, Topic: "t", Payload: []byte("ping")})
				if err != nil && !errors.Is(err, ErrPartitioned) {
					t.Errorf("Send %s->%s: %v", from, to, err)
					return
				}
				if err == nil && string(reply) != "ack" {
					t.Errorf("reply = %q", reply)
					return
				}
			}
		}(g)
	}

	// Fault injectors: partition and heal a rotating pair.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			a, b := names[i%endpoints], names[(i+3)%endpoints]
			n.Partition(a, b)
			n.Heal(a, b)
		}
	}()

	// Observers: read stats throughout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			msgs, bytes := n.Stats()
			if msgs < 0 || bytes < 0 {
				t.Errorf("negative stats: %d msgs %d bytes", msgs, bytes)
				return
			}
		}
	}()

	wg.Wait()

	// Every successful delivery was counted exactly once.
	msgs, _ := n.Stats()
	if int64(msgs) != delivered.Load() {
		t.Fatalf("Stats reports %d messages, handlers saw %d", msgs, delivered.Load())
	}
}
