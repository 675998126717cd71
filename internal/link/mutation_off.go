//go:build !auditmutation

package link

// mutateStartAtNow, under -tags auditmutation, starts each packet when it
// is offered, over whatever is still being sent, and
// mutateHandOffAtOffer hands a packet to its EarlySink with the clock
// reading the instant it was offered rather than its arrival, so the
// sink stamps and sends its ACK too early; the TestAuditMutation tests
// prove the link's audit catches both. Here they are compile-time false.
const (
	mutateStartAtNow     = false
	mutateHandOffAtOffer = false
)
