//go:build !auditmutation

package queue

// mutateSkipDroppedBytes deliberately breaks DropTail's dropped-bytes
// accounting when built with -tags auditmutation, so the link package's
// TestAuditMutationDropAccounting can prove that the books a link keeps
// (Books) catch a real bookkeeping bug. In normal builds it is a
// compile-time false and the guarded increment costs nothing.
const mutateSkipDroppedBytes = false
