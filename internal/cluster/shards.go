package cluster

// The rack-sharded node index. A placement never walks every node — at
// 10k nodes that walk would be the dominant cost of a scheduling pass.
// The index keeps one shard per rack with nodes sorted by (free memory
// desc, NodeID asc); the head of a shard is therefore both an O(1) "can
// anything here fit?" capacity bound and the shard's argmax for the
// least-loaded placement policy. A whole-cluster placement inspects one
// shard head per rack.
//
// Everything in this file runs on the RM loop, which owns every node's
// free capacity (Node.schedAvail) and shard position; every mutation of
// node state (allocate, stop, fail, restore) keeps the shard order and
// the cluster-wide mirrors in sync.

// rackShard holds one rack's live nodes in placement order.
type rackShard struct {
	rack  string
	nodes []*Node // sorted by (schedAvail.MemoryMB desc, ID asc)
}

// nodeLess is the shard sort order: most free memory first, NodeID as the
// deterministic tiebreak, so a shard's first fitting node is the rack's
// least-loaded one.
func nodeLess(a, b *Node) bool {
	if a.schedAvail.MemoryMB != b.schedAvail.MemoryMB {
		return a.schedAvail.MemoryMB > b.schedAvail.MemoryMB
	}
	return a.ID < b.ID
}

// insert adds n (not currently in any shard) at its sorted position.
func (s *rackShard) insert(n *Node) {
	i := len(s.nodes)
	for i > 0 && nodeLess(n, s.nodes[i-1]) {
		i--
	}
	s.nodes = append(s.nodes, nil)
	copy(s.nodes[i+1:], s.nodes[i:])
	s.nodes[i] = n
	n.shard = s
	for ; i < len(s.nodes); i++ {
		s.nodes[i].shardIdx = i
	}
}

// remove takes n out of the shard (node failure / decommission).
func (s *rackShard) remove(n *Node) {
	i := n.shardIdx
	copy(s.nodes[i:], s.nodes[i+1:])
	s.nodes = s.nodes[:len(s.nodes)-1]
	for ; i < len(s.nodes); i++ {
		s.nodes[i].shardIdx = i
	}
	n.shard = nil
}

// fix restores n's sorted position after its schedAvail changed; a single
// container charge moves a node only a short distance, so this is a local
// bubble, not a re-sort.
func (s *rackShard) fix(n *Node) {
	i := n.shardIdx
	for i > 0 && nodeLess(n, s.nodes[i-1]) {
		s.nodes[i] = s.nodes[i-1]
		s.nodes[i].shardIdx = i
		i--
	}
	for i < len(s.nodes)-1 && nodeLess(s.nodes[i+1], n) {
		s.nodes[i] = s.nodes[i+1]
		s.nodes[i].shardIdx = i
		i++
	}
	s.nodes[i] = n
	n.shardIdx = i
}

// best returns the shard's preferred fitting node, or nil. The sort order
// makes the first memory-fitting, non-excluded node the argmax; once the
// head (or any node — the order is by memory) cannot fit by memory,
// nothing deeper can, so full shards are rejected in O(1).
func (s *rackShard) best(res Resource, excluded map[NodeID]bool) *Node {
	for _, n := range s.nodes {
		if n.schedAvail.MemoryMB < res.MemoryMB {
			return nil
		}
		if res.FitsIn(n.schedAvail) && !excluded[n.ID] {
			return n
		}
	}
	return nil
}

// chargeNode places c on n: the node's containers, its free capacity
// and shard position, and the cluster-wide mirror.
func (rm *ResourceManager) chargeNode(n *Node, c *Container) {
	n.containers[c.ID] = c
	n.schedAvail = n.schedAvail.Sub(c.Resource)
	if n.shard != nil {
		n.shard.fix(n)
	}
	rm.usedTotal = rm.usedTotal.Add(c.Resource)
}

// unchargeNode reverses chargeNode if (and only if) the container is
// still on the node.
func (rm *ResourceManager) unchargeNode(n *Node, c *Container) {
	if _, held := n.containers[c.ID]; !held {
		return
	}
	delete(n.containers, c.ID)
	n.schedAvail = n.schedAvail.Add(c.Resource)
	if n.shard != nil {
		n.shard.fix(n)
	}
	rm.usedTotal = rm.usedTotal.Sub(c.Resource)
}
