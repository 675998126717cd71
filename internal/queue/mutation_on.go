//go:build auditmutation

package queue

// mutateSkipDroppedBytes: see mutation_off.go. Under this tag DropTail
// stops counting DroppedBytes; the link's Books must notice.
const mutateSkipDroppedBytes = true
