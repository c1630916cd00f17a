// Package transport is an in-memory message bus: named endpoints,
// synchronous request/reply delivery, and partition faults. Delivery is
// deterministic, which keeps the MPC model reproducible; the paper's claims
// concern information flow, not asynchrony. internal/mpc is its one caller
// (NetworkedSecureSum runs the secure-sum parties as endpoints, and its
// tests partition them).
//
// It is not a way into the gateway. Requests reach the gateway only through
// middleware.Gateway.ServeWire, which the TCP edge (internal/netedge) runs;
// the repository's fence test keeps this package out of the serving path's
// imports.
package transport
