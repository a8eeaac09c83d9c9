// Package plugin provides named descriptors with opaque binary payloads —
// the Tez configuration mechanism (§3.2, "IPO Configuration"): every
// application-supplied entity (processor, input, output, edge manager,
// vertex manager, initializer, committer) is specified in the DAG as a
// descriptor whose name selects an implementation and whose payload
// configures (or effectively injects) the application code.
//
// The JVM loads such entities by class name; Go has no dynamic class
// loading, so implementations register factories in a process-wide registry
// keyed by (kind, name). Payloads are encoded by Encode: a type that
// implements encoding.BinaryMarshaler and BinaryUnmarshaler (see wire.go)
// speaks for itself, everything else goes through encoding/gob.
package plugin

import (
	"bytes"
	"encoding"
	"encoding/gob"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind partitions the registry namespace.
type Kind string

// Registry kinds for every pluggable Tez entity.
const (
	KindProcessor     Kind = "processor"
	KindInput         Kind = "input"
	KindOutput        Kind = "output"
	KindEdgeManager   Kind = "edgemanager"
	KindVertexManager Kind = "vertexmanager"
	KindInitializer   Kind = "initializer"
	KindCommitter     Kind = "committer"
)

// Descriptor names an implementation plus its opaque configuration. The
// zero Descriptor means "unset".
type Descriptor struct {
	Name    string
	Payload []byte
}

// IsZero reports whether the descriptor is unset.
func (d Descriptor) IsZero() bool { return d.Name == "" }

// Desc builds a descriptor, encoding payload with Encode (nil payload
// allowed).
func Desc(name string, payload any) Descriptor {
	d := Descriptor{Name: name}
	if payload != nil {
		d.Payload = MustEncode(payload)
	}
	return d
}

var (
	regMu    sync.RWMutex
	registry = map[Kind]map[string]any{}
)

// Register installs a factory for (kind, name). Factories are usually
// registered from init functions; re-registration replaces (tests).
// The factory is a func() T for the consuming package's entity type T,
// which is what New asserts.
func Register(kind Kind, name string, factory any) {
	regMu.Lock()
	defer regMu.Unlock()
	m := registry[kind]
	if m == nil {
		m = map[string]any{}
		registry[kind] = m
	}
	m[name] = factory
}

// New instantiates the implementation registered for (kind, d.Name). T is
// the entity's interface in the consuming package; its factories are
// registered as func() T.
func New[T any](kind Kind, d Descriptor) (T, error) {
	regMu.RLock()
	f, ok := registry[kind][d.Name]
	regMu.RUnlock()
	var zero T
	if !ok {
		return zero, fmt.Errorf("plugin: no %s registered as %q", kind, d.Name)
	}
	factory, ok := f.(func() T)
	if !ok {
		return zero, fmt.Errorf("plugin: %s %q has factory type %T", kind, d.Name, f)
	}
	return factory(), nil
}

// Names lists registered names for a kind, sorted (diagnostics).
func Names(kind Kind) []string {
	regMu.RLock()
	defer regMu.RUnlock()
	var out []string
	for n := range registry[kind] {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Encode encodes a payload. The Go type decides how, and Decode decides the
// same way, so the two always agree: a type with MarshalBinary encodes
// itself (the hand-written codecs of the per-task, per-partition and
// per-fetch payloads); any other type is gob-encoded, which costs a fresh
// type description and a compiled decode engine per payload and is meant
// for the cold, deep or application-defined ones.
func Encode(v any) ([]byte, error) {
	if m, ok := v.(encoding.BinaryMarshaler); ok {
		b, err := m.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("plugin: encode %T: %w", v, err)
		}
		return b, nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("plugin: encode %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// MustEncode is Encode, panicking on error (payload structs are
// program-defined, so failure is a bug).
func MustEncode(v any) []byte {
	b, err := Encode(v)
	if err != nil {
		panic(err)
	}
	return b
}

// Decode decodes data into out (a pointer): through out's UnmarshalBinary
// when it has one, through gob otherwise.
func Decode(data []byte, out any) error {
	var err error
	if u, ok := out.(encoding.BinaryUnmarshaler); ok {
		err = u.UnmarshalBinary(data)
	} else {
		gobDecodes.Add(1)
		err = gob.NewDecoder(bytes.NewReader(data)).Decode(out)
	}
	if err != nil {
		return fmt.Errorf("plugin: decode into %T: %w", out, err)
	}
	return nil
}

var gobDecodes atomic.Int64

// GobDecodes returns how many payloads this process has decoded through
// gob — each one a decoder built from nothing. Tests use it to hold the
// count to O(vertices × containers) per session, never O(tasks),
// O(fetches) or O(DAGs).
func GobDecodes() int64 { return gobDecodes.Load() }
