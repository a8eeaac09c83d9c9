package cluster

import (
	"errors"
	"sync"
	"time"
)

// Container execution errors.
var (
	// ErrContainerKilled: the container was stopped (node loss,
	// preemption, release) before or while the work ran — a casualty, not
	// the work's failure.
	ErrContainerKilled   = errors.New("cluster: container killed")
	ErrContainerNotReady = errors.New("cluster: container not launched")
	ErrContainerBusy     = errors.New("cluster: container already executing")
	// ErrContainerDone: Launch on a container already stopped.
	ErrContainerDone = errors.New("cluster: container released")
	// ErrLaunchFailed: the allocation was granted but the container process
	// never came up (injected by the chaos plane); the owner should discard
	// the container and re-request.
	ErrLaunchFailed = errors.New("cluster: container launch failed")
)

// StopReason says why a container was terminated by the platform.
type StopReason int

const (
	// StopReleased: the owning application released it voluntarily.
	StopReleased StopReason = iota
	// StopPreempted: the RM preempted it for fairness.
	StopPreempted
	// StopNodeLost: its node failed or was decommissioned.
	StopNodeLost
)

func (r StopReason) String() string {
	switch r {
	case StopReleased:
		return "RELEASED"
	case StopPreempted:
		return "PREEMPTED"
	default:
		return "NODE_LOST"
	}
}

// Container is an allocated execution slot on a node. The owning
// application launches it once (paying launch overhead) and may then Exec
// work in it repeatedly — that sequential re-use is the container-reuse
// optimisation of §4.2.
type Container struct {
	ID       ContainerID
	App      AppID
	Resource Resource
	Locality Locality

	node *Node
	rm   *ResourceManager
	// tenant is the owning app's tenant, copied at allocation — the tag
	// the chaos plane scopes injected faults by.
	tenant string

	// mu orders Launch and Exec, which run on task goroutines, against a
	// stop by Release or the RM loop: the one lock in the package.
	mu        sync.Mutex
	launched  bool
	executing bool
	released  bool
	execCount int
	stop      chan struct{} // closed on kill
}

// Node returns the node hosting this container.
func (c *Container) Node() NodeID { return c.node.ID }

// Rack returns the rack of the hosting node.
func (c *Container) Rack() string { return c.node.Rack }

// ExecCount returns how many tasks have run in this container.
func (c *Container) ExecCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.execCount
}

// Killed returns a channel closed when the platform terminates the
// container (preemption or node loss) or the app releases it.
func (c *Container) Killed() <-chan struct{} { return c.stop }

// Launch starts the container process, charging ContainerLaunchOverhead.
// It is idempotent; only the first call pays. A stop that cuts the launch
// short returns ErrContainerKilled.
func (c *Container) Launch() error {
	c.mu.Lock()
	if c.released {
		c.mu.Unlock()
		return ErrContainerDone
	}
	if c.launched {
		c.mu.Unlock()
		return nil
	}
	if c.rm.cfg.Chaos.LaunchFault(string(c.node.ID), c.tenant) {
		c.mu.Unlock()
		return ErrLaunchFailed
	}
	c.launched = true
	c.mu.Unlock()
	if !c.rm.sleepInterruptible(c.rm.cfg.ContainerLaunchOverhead, c.stop) {
		return ErrContainerKilled
	}
	return nil
}

// Exec runs fn inside the container and blocks until it returns or the
// container is killed. The first execution in a fresh container pays the
// warm-up penalty. fn receives a channel that is closed when the container
// is being killed; long-running work should observe it at I/O boundaries.
//
// On a container already stopped Exec returns ErrContainerKilled. If the
// container is killed before fn returns, Exec returns ErrContainerKilled
// immediately; fn's goroutine is abandoned (a "zombie"
// task, as when a node dies under a real YARN container) and its result is
// discarded.
func (c *Container) Exec(fn func(stop <-chan struct{}) error) error {
	c.mu.Lock()
	if c.released {
		c.mu.Unlock()
		return ErrContainerKilled
	}
	if !c.launched {
		c.mu.Unlock()
		return ErrContainerNotReady
	}
	if c.executing {
		c.mu.Unlock()
		return ErrContainerBusy
	}
	c.executing = true
	first := c.execCount == 0
	c.execCount++
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		c.executing = false
		c.mu.Unlock()
	}()

	if first && c.rm.cfg.WarmupPenalty > 0 {
		if !c.rm.sleepInterruptible(c.rm.cfg.WarmupPenalty, c.stop) {
			return ErrContainerKilled
		}
	}
	node := string(c.node.ID)
	c.rm.cfg.Chaos.TaskStarted(node)
	if d := c.rm.cfg.Chaos.ExecDelay(node); d > 0 {
		if !c.rm.sleepInterruptible(d, c.stop) {
			return ErrContainerKilled
		}
	}
	if err := c.rm.cfg.Chaos.ExecFault(node, c.tenant); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- fn(c.stop) }()
	select {
	case err := <-done:
		return err
	case <-c.stop:
		return ErrContainerKilled
	}
}

// terminate closes the stop channel exactly once and reports whether this
// call did. Release calls it on the app's goroutine, the RM loop on its
// own, so c.mu orders it against Launch and Exec.
func (c *Container) terminate() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.released {
		return false
	}
	c.released = true
	close(c.stop)
	return true
}

// sleepInterruptible sleeps for d unless stop closes first; returns false
// if interrupted. Zero and negative durations return immediately.
func (rm *ResourceManager) sleepInterruptible(d time.Duration, stop <-chan struct{}) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}
