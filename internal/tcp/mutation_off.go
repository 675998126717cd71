//go:build !auditmutation

package tcp

// mutateSkipSndNxtRaise deliberately drops onNewAck's raise of sndNxt to
// a late ACK when built with -tags auditmutation, so TestAuditMutation can
// prove the send-time audit catches acknowledged data sent again. In
// normal builds it is a compile-time false.
const mutateSkipSndNxtRaise = false
