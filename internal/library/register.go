package library

import (
	"tez/internal/security"
	"tez/internal/shuffle"
)

// RegisterShuffleOutput publishes pre-partitioned buffers with the shuffle
// service on behalf of a transport that bypasses the ordered/unordered
// outputs (e.g. the sparklike engine's bucket writer).
func RegisterShuffleOutput(svc *shuffle.Service, node string, id shuffle.OutputID, partitions [][]byte, tok ...security.Token) error {
	return svc.Register(node, id, partitions, tok...)
}
