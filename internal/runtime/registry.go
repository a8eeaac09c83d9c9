package runtime

import "sync"

// Lifetime scopes an object-registry entry (§4.2, Shared Object Registry).
type Lifetime int

const (
	// LifetimeVertex entries are visible only to tasks of the inserting
	// vertex within the same DAG.
	LifetimeVertex Lifetime = iota
	// LifetimeDAG entries are visible to all tasks of the inserting DAG.
	LifetimeDAG
	// LifetimeSession entries live as long as the container's session.
	LifetimeSession
)

// ObjectRegistry is the per-container in-memory object cache that extends
// the benefit of container reuse to the application: a task populates it
// (e.g. the hash table of a broadcast join) and subsequent tasks running in
// the same container skip the recomputation.
type ObjectRegistry struct {
	mu      sync.Mutex
	entries map[string]regEntry
}

type regEntry struct {
	value    any
	lifetime Lifetime
	dag      string
	vertex   string
}

// NewObjectRegistry returns an empty registry (one per container).
func NewObjectRegistry() *ObjectRegistry {
	return &ObjectRegistry{entries: make(map[string]regEntry)}
}

// Add caches value under key with the given lifetime, scoped by the
// caller's attempt metadata. It returns the previous value, if any.
func (r *ObjectRegistry) Add(lt Lifetime, meta Meta, key string, value any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	prev, _ := r.getLocked(meta, key)
	r.entries[key] = regEntry{value: value, lifetime: lt, dag: meta.DAG, vertex: meta.Vertex}
	return prev
}

// Get returns the cached value for key if the caller's scope matches the
// entry's lifetime.
func (r *ObjectRegistry) Get(meta Meta, key string) (any, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.getLocked(meta, key)
}

func (r *ObjectRegistry) getLocked(meta Meta, key string) (any, bool) {
	e, ok := r.entries[key]
	if !ok {
		return nil, false
	}
	switch e.lifetime {
	case LifetimeVertex:
		if e.dag != meta.DAG || e.vertex != meta.Vertex {
			return nil, false
		}
	case LifetimeDAG:
		if e.dag != meta.DAG {
			return nil, false
		}
	}
	return e.value, true
}

// Delete explicitly evicts key if the caller's scope can see it (the same
// visibility rule as Get), returning the evicted value. Long-running
// session workloads use it to bound what container reuse accumulates:
// framework sweeps only run at vertex/DAG end, and session-lifetime
// entries are never swept at all — an iterative driver caching per-step
// state must retire superseded steps itself.
func (r *ObjectRegistry) Delete(meta Meta, key string) (any, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.getLocked(meta, key)
	if !ok {
		return nil, false
	}
	delete(r.entries, key)
	return v, true
}

// SweepDAG evicts entries scoped to a completed DAG (the framework-managed
// lifecycle of §4.2). Session entries survive.
func (r *ObjectRegistry) SweepDAG(dag string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, e := range r.entries {
		if e.lifetime != LifetimeSession && e.dag == dag {
			delete(r.entries, k)
		}
	}
}

// SweepVertex evicts vertex-lifetime entries of a completed vertex.
func (r *ObjectRegistry) SweepVertex(dag, vertex string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, e := range r.entries {
		if e.lifetime == LifetimeVertex && e.dag == dag && e.vertex == vertex {
			delete(r.entries, k)
		}
	}
}

// Len reports the number of cached entries.
func (r *ObjectRegistry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// VertexObject returns what build made for the task's vertex in this
// container: the vertex's first task in the container builds it, and the
// container's registry keeps it for the rest of the vertex's tasks there
// until SweepVertex retires it (§4.2). It is how a task decodes a payload
// once per (container, vertex) instead of once per task; the object is
// shared, so nothing may write through it. Without a registry every task
// builds its own.
func VertexObject[T any](ctx *Context, kind string, build func() (T, error)) (T, error) {
	reg := ctx.Services.Registry
	key := kind + "/" + ctx.Meta.DAG + "/" + ctx.Meta.Vertex
	if reg != nil {
		if v, ok := reg.Get(ctx.Meta, key); ok {
			return v.(T), nil
		}
	}
	v, err := build()
	if err == nil && reg != nil {
		reg.Add(LifetimeVertex, ctx.Meta, key, v)
	}
	return v, err
}
