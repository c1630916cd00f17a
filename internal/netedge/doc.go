// Package netedge is the network edge of the gateway and its one way in: a
// TCP listener that hands every frame to middleware.Gateway.AppendWire, and
// the dialer that carries the middleware wire protocol — 0xDC frames — to
// it.
//
// # Stream framing
//
// TCP is a byte stream, so each wire message rides in a stream frame:
//
//	uint32 (big endian)  length of everything that follows
//	byte                 kind: 0x01 request, 0x02 ok reply, 0x03 error reply
//	uvarint              request id (client-assigned, echoed in the reply)
//	requests:            uvarint topic length, topic bytes
//	error replies:       uvarint label length, label bytes
//	rest                 payload (reply text for error replies)
//
// An error reply's label is "stage/reason", the
// confmw_gateway_rejected_total series the gateway counted the refusal
// under, or empty for an error it did not count; WireError unwraps to that
// row's sentinel, so errors.Is(err, middleware.ErrNoSession) holds on the
// client.
//
// The payload is what AppendWire takes for the topic: a 0xDC request frame
// for gateway.submit, a 0xDC hello frame (full or resume) for session.open,
// answered by a grant frame, a bare token for session.close. Length
// prefixes are validated against the configured maximum before any
// allocation, and the payload is handed to the handler zero-copy from the
// connection's reused read buffer — the decode path from socket to
// middleware.ParseEnvelope never copies a submission. The reply is not
// copied either: the handler appends it to the connection's output buffer,
// after the reply frame's head the reader has already written there, and
// the reader patches the length in; a refusal truncates the frame and
// starts the error frame in its place. The client copies each reply once,
// out of its read buffer into a 4 KB append-only chunk its replies are
// carved from, capacity clipped: a chunk is never rewritten, so a reply
// stays its caller's.
//
// # Connections, backpressure, and deadlines
//
// The Server runs a sharded accept plane (several goroutines accepting on
// one listener; the kernel load-balances) and one goroutine per
// connection. It reads a frame, runs the handler inline — preserving
// per-connection submission order end to end, for requests and replies
// alike — and appends the reply to the connection's output buffer. It
// writes the buffer out before any read that would wait for the peer, and
// whenever the output reaches 64 KiB; bytes that have already arrived are
// read first (on unix, by a read of the descriptor that does not wait), so
// the frames they carry join the flight. So a lone reply leaves at once, a
// pipelining peer pays one syscall for the flight, and no reply waits
// behind a frame that has only partly arrived. Nothing is queued beyond
// that buffer: when a peer stops reading its replies the reader's write
// blocks, which stops it reading requests, and through TCP backpressure
// reaches the client. The write deadline (30 s, the edge's fixed default)
// bounds that wait: a write that passes it sheds the connection, closing it and
// counting it in Sheds. Reads and writes both carry deadlines, so a dead
// peer costs an idle window, not a leaked connection; the idle deadline is
// armed each time the reader is about to wait on the socket, not per
// frame, and the write deadline once per write.
//
// # Session binding
//
// Every connection gets a unique transport identity, stamped on each
// request (middleware.Request.TransportID) and on every session opened
// through it (SessionManager.OpenBound): a session token minted on one
// connection is rejected with middleware.ErrSessionBound when presented
// over any other, closing the token-replay surface an unbound session
// leaves open. When a connection dies the server's close hook
// (cmd/gateway wires SessionManager.EvictTransport) reaps its bound
// sessions immediately.
//
// The Client is the matching dialer: concurrent-safe, pipelined (many
// requests in flight over one connection, matched by request id), with a
// bounded in-flight window: a call that finds it full waits for a slot, for
// its context to end or for the connection to fail. Its callers combine
// their socket writes: each encodes its frame into the connection's batch,
// and the one that finds nobody flushing becomes the flusher. It yields so
// that callers already runnable add their frames, and yields again for as
// long as the last yield added some and the batch is under 64 KiB; then it
// writes the batch outside the lock until none is left. There is no timer
// and no ack clock: a yield that adds nothing ends the gather, so a lone
// request is written after one yield. Everyone else returns without
// touching the socket; frames leave in the order callers took the lock. A
// write failure therefore reaches a caller through Wait, not through
// CallAsync. Neither side keeps a write buffer that one large frame grew
// past 64 KiB, and the client refuses a request frame over DefaultMaxFrame
// (ErrFrameTooBig) rather than send what the server would drop the
// connection for. A waiting call blocks on its own reply channel alone; the
// end of the context it waits under is delivered on that channel by one
// context.AfterFunc per distinct context. cmd/loadgen multiplexes tens of
// thousands of sessions over a small connection pool this way.
package netedge
