// Tenant-group scheduling tests: hard quotas at grant time, weighted
// fair-share preemption between tenants, and the starvation-threshold
// gate.
package cluster

import (
	"slices"
	"testing"
	"time"
)

// TestTenantQuota: a tenant's apps collectively stop receiving grants at
// the quota even with pending demand, other apps absorb the rest, and
// raising the quota releases the withheld demand.
func TestTenantQuota(t *testing.T) {
	rm := New(testConfig()) // 4 nodes × 4096MB = 16384 total
	defer rm.Stop()
	rm.SetTenant("capped", 1, 8192)

	capped := rm.SubmitTenant("capped-app", "capped")
	defer capped.Unregister()
	for i := 0; i < 16; i++ {
		capped.Request(&ContainerRequest{Resource: Resource{1024, 1}})
	}
	deadline := time.Now().Add(time.Second)
	for capped.Allocated().MemoryMB < 8192 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Give the scheduler time to (wrongly) grant past the quota.
	time.Sleep(20 * time.Millisecond)
	if got := capped.Allocated().MemoryMB; got != 8192 {
		t.Fatalf("capped tenant holds %d MB, want exactly quota 8192", got)
	}
	if alloc, quota := rm.TenantUsage("capped"); alloc != 8192 || quota != 8192 {
		t.Fatalf("TenantUsage = (%d, %d), want (8192, 8192)", alloc, quota)
	}
	if pending := capped.PendingRequests(); pending != 8 {
		t.Fatalf("pending = %d, want 8 withheld by quota", pending)
	}

	// The withheld capacity is available to everyone else.
	other := rm.Submit("other")
	defer other.Unregister()
	for i := 0; i < 8; i++ {
		other.Request(&ContainerRequest{Resource: Resource{1024, 1}})
	}
	deadline = time.Now().Add(time.Second)
	for other.Allocated().MemoryMB < 8192 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := other.Allocated().MemoryMB; got != 8192 {
		t.Fatalf("untenanted app got %d MB alongside the capped tenant, want 8192", got)
	}

	// Lifting the quota lets the tenant's queued demand proceed once
	// capacity frees.
	other.Unregister()
	rm.SetTenant("capped", 1, 0)
	deadline = time.Now().Add(time.Second)
	for capped.Allocated().MemoryMB < 16384 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := capped.Allocated().MemoryMB; got != 16384 {
		t.Fatalf("after quota lift: %d MB, want 16384", got)
	}
}

// TestTenantWeightedPreemption: when a high-weight tenant starves, the
// preemptor computes weighted shares across tenants and claws back the
// over-share tenant's newest containers — beyond the 50/50 split that
// unweighted fairness would allow.
func TestTenantWeightedPreemption(t *testing.T) {
	cfg := testConfig()
	cfg.FairPreemption = true
	cfg.PreemptionInterval = time.Millisecond
	rm := New(cfg)
	defer rm.Stop()
	rm.SetTenant("hog", 1, 0)
	rm.SetTenant("vip", 3, 0)

	hog := rm.SubmitTenant("hog-app", "hog")
	defer hog.Unregister()
	for i := 0; i < 16; i++ {
		hog.Request(&ContainerRequest{Resource: Resource{1024, 1}})
	}
	deadline := time.Now().Add(time.Second)
	for hog.Allocated().MemoryMB < 16384 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	vip := rm.SubmitTenant("vip-app", "vip")
	defer vip.Unregister()
	for i := 0; i < 16; i++ {
		vip.Request(&ContainerRequest{Resource: Resource{1024, 1}})
	}

	// Weighted shares over 16384 MB: vip (w=3) 12288, hog (w=1) 4096.
	// Unweighted fairness would stop at 8192 — crossing it proves the
	// weights drive preemption.
	deadline = time.Now().Add(2 * time.Second)
	for vip.Allocated().MemoryMB < 12288 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := vip.Allocated().MemoryMB; got < 12288 {
		t.Fatalf("vip (weight 3) holds %d MB, want its 12288 weighted share", got)
	}
	if got := hog.Allocated().MemoryMB; got > 4096 {
		t.Fatalf("hog (weight 1) still holds %d MB, want ≤ its 4096 weighted share", got)
	}
}

// TestPreemptionStarvationThreshold: with a starvation threshold set,
// momentary imbalance does not preempt — only sustained starvation does.
func TestPreemptionStarvationThreshold(t *testing.T) {
	cfg := testConfig()
	cfg.FairPreemption = true
	cfg.PreemptionInterval = time.Millisecond
	cfg.PreemptionStarvation = 100 * time.Millisecond
	rm := New(cfg)
	defer rm.Stop()

	hog := rm.SubmitTenant("hog-app", "hog")
	defer hog.Unregister()
	for i := 0; i < 4; i++ {
		hog.Request(&ContainerRequest{Resource: Resource{4096, 4}})
	}
	deadline := time.Now().Add(time.Second)
	for hog.Allocated().MemoryMB < 16384 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	late := rm.SubmitTenant("late-app", "late")
	defer late.Unregister()
	late.Request(&ContainerRequest{Resource: Resource{4096, 4}})

	// Inside the threshold window nothing may be preempted.
	time.Sleep(50 * time.Millisecond)
	if got := hog.Allocated().MemoryMB; got != 16384 {
		t.Fatalf("preempted %d MB before the starvation threshold elapsed", 16384-got)
	}
	// Past the threshold the starved tenant gets its share.
	waitEvent(t, late, 2*time.Second, func(e Event) bool { _, ok := e.(AllocatedEvent); return ok })
}

// TestPreemptionVictimsNewestFirst: a preemption round takes the highest
// container IDs — the newest grants — of each over-share group, and the
// most over-share group pays the most.
func TestPreemptionVictimsNewestFirst(t *testing.T) {
	cfg := testConfig() // 4 nodes × 4096MB = 16384 total
	cfg.ScheduleInterval = time.Hour
	rm := New(cfg)
	defer rm.Stop()

	grant := func(a *Application, n int) {
		for i := 0; i < n; i++ {
			a.Request(&ContainerRequest{Resource: Resource{1024, 1}})
		}
		rm.ScheduleNow()
		if got := a.HeldContainers(); got != n {
			t.Fatalf("%s holds %d containers, want %d", a.Name, got, n)
		}
	}
	big := rm.Submit("big") // containers 1..10
	defer big.Unregister()
	grant(big, 10)
	small := rm.Submit("small") // containers 11..16
	defer small.Unregister()
	grant(small, 6)
	late := rm.Submit("late")
	defer late.Unregister()
	late.Request(&ContainerRequest{Resource: Resource{1024, 1}})

	// Three active groups share 16384 MB: 5461 each. big is 4779 MB over
	// and loses five containers; small is 683 MB over and loses one.
	onLoop(rm, rm.maybePreempt)
	preempted := func(a *Application) []ContainerID {
		var ids []ContainerID
		for ev, ok := a.Events().TryGet(); ok; ev, ok = a.Events().TryGet() {
			if e, stop := ev.(ContainerStoppedEvent); stop && e.Reason == StopPreempted {
				ids = append(ids, e.ContainerID)
			}
		}
		slices.Sort(ids)
		return ids
	}
	if got, want := preempted(big), []ContainerID{6, 7, 8, 9, 10}; !slices.Equal(got, want) {
		t.Fatalf("big lost containers %v, want %v", got, want)
	}
	if got, want := preempted(small), []ContainerID{16}; !slices.Equal(got, want) {
		t.Fatalf("small lost containers %v, want %v", got, want)
	}
}
