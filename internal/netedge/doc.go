// Package netedge is the real network edge of the gateway: a TCP listener
// and dialer that carry the middleware wire protocol — 0xDC frames — over
// actual sockets, where everything before it ran on the in-process
// transport substrate.
//
// # Stream framing
//
// TCP is a byte stream, so each wire message rides in a stream frame:
//
//	uint32 (big endian)  length of everything that follows
//	byte                 kind: 0x01 request, 0x02 ok reply, 0x03 error reply
//	uvarint              request id (client-assigned, echoed in the reply)
//	requests only:       uvarint topic length, topic bytes
//	rest                 payload (reply text for error replies)
//
// The payload is the same bytes the in-process transport carries for the
// topic: a 0xDC request frame for gateway.submit, a 0xDC hello frame
// (full or resume) for session.open, answered by a grant frame, a bare
// token for session.close. Length prefixes are validated against the
// configured maximum before any allocation, and the payload is handed to
// the handler zero-copy from the connection's reused read buffer — the
// decode path from socket to middleware.ParseEnvelope never copies a
// submission.
//
// # Connections, backpressure, and deadlines
//
// The Server runs a sharded accept plane (several goroutines accepting on
// one listener; the kernel load-balances) and two goroutines per
// connection: a reader that decodes frames and runs the handler inline —
// preserving per-connection submission order end to end — and a writer
// draining a bounded outbound queue. The writer costs one socket write per
// flight, not per reply: having received one reply it gathers every reply
// already queued (up to 64 KiB) and writes them together, never waiting
// for more, so a lone reply leaves at once and a pipelining peer pays one
// syscall for the flight. The queue is never unbounded: when a peer stops
// draining replies the enqueue either blocks (default, propagating
// backpressure to the socket and from there to the client) or, with
// WithShedding, sheds the connection with ErrBackpressure. Reads and
// writes both carry deadlines, so a dead peer costs an idle window, not a
// leaked connection; the idle deadline is armed each time the reader is
// about to wait on the socket, not per frame, and the write deadline once
// per flight.
//
// # Session binding
//
// Every connection gets a unique transport identity, stamped on each
// request (middleware.Request.TransportID) and on every session opened
// through it (SessionManager.OpenBound): a session token minted on one
// connection is rejected with middleware.ErrSessionBound when presented
// over any other, closing the token-replay surface left open by
// transport-less sessions. When a connection dies the server's close hook
// (cmd/gateway wires SessionManager.EvictTransport) reaps its bound
// sessions immediately.
//
// The Client is the matching dialer: concurrent-safe, pipelined (many
// requests in flight over one connection, matched by request id), with a
// bounded in-flight window that blocks or sheds like the server side.
// Its callers combine their socket writes the way the server's writer
// does: each encodes its frame into the connection's batch, and the one
// that finds nobody flushing becomes the flusher — it yields once, so
// callers already runnable add their frames, then writes the batch outside
// the lock until none is left. Everyone else returns without touching the
// socket; frames leave in the order callers took the lock; a lone request
// is written at once. A write failure therefore reaches a caller through
// Wait, not through CallAsync. Neither side keeps a batch or pooled buffer
// that one large frame grew past 64 KiB. cmd/loadgen multiplexes tens of
// thousands of sessions over a small connection pool this way.
package netedge
