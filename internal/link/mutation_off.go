//go:build !auditmutation

package link

// mutateStartAtNow, under -tags auditmutation, starts each packet when it
// is offered, over whatever is still being sent, so TestAuditMutation can
// prove the link's audit catches it. Here it is a compile-time false.
const mutateStartAtNow = false
