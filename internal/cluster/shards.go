package cluster

// The rack-sharded node index. A placement never walks every node — at
// 10k nodes that walk, with a per-node mutex acquisition, would be the
// dominant cost of a scheduling pass. The index keeps one shard per rack
// with nodes sorted by (free memory desc, NodeID asc); the head of a shard
// is therefore both an O(1) "can anything here fit?" capacity bound and
// the shard's argmax for the least-loaded placement policy. A whole-
// cluster placement inspects one shard head per rack.
//
// Everything in this file is guarded by rm.mu. The scheduler reads the
// Node.schedAvail mirror, never n.used directly, so placement takes no
// node locks at all; every mutation of node state (allocate, stop, fail,
// restore) holds rm.mu and keeps the mirror in sync.

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

// chargeNodeLocked commits res onto n: the node's own accounting (under
// n.mu, for readers like Available) plus the scheduler mirror and shard
// position. Caller holds rm.mu.
func (rm *ResourceManager) chargeNodeLocked(n *Node, c *Container) {
	n.mu.Lock()
	n.used = n.used.Add(c.Resource)
	n.containers[c.ID] = c
	n.mu.Unlock()
	n.schedAvail = n.schedAvail.Sub(c.Resource)
	if n.shard != nil {
		n.shard.fix(n)
	}
	rm.usedTotal = rm.usedTotal.Add(c.Resource)
}

// unchargeNodeLocked reverses chargeNodeLocked if (and only if) the
// container is still registered on the node; it reports whether it was.
// Caller holds rm.mu.
func (rm *ResourceManager) unchargeNodeLocked(n *Node, c *Container) bool {
	n.mu.Lock()
	_, held := n.containers[c.ID]
	if held {
		delete(n.containers, c.ID)
		n.used = n.used.Sub(c.Resource)
	}
	n.mu.Unlock()
	if !held {
		return false
	}
	n.schedAvail = n.schedAvail.Add(c.Resource)
	if n.shard != nil {
		n.shard.fix(n)
	}
	rm.usedTotal = rm.usedTotal.Sub(c.Resource)
	return true
}
