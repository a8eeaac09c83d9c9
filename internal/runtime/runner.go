package runtime

import (
	"fmt"

	"tez/internal/event"
	"tez/internal/mailbox"
	"tez/internal/plugin"
)

// IOSpec describes one logical input or output of a task: its name (the
// peer vertex for edges, the source/sink name otherwise), the IO class
// descriptor, and the physical fan-in/out computed by the edge manager.
type IOSpec struct {
	Name          string
	Descriptor    plugin.Descriptor
	PhysicalCount int
}

// TaskSpec is everything a container needs to execute one task attempt.
// It is assembled by the AM from the (possibly runtime-reconfigured) DAG.
type TaskSpec struct {
	Meta      Meta
	Processor plugin.Descriptor
	Inputs    []IOSpec
	Outputs   []IOSpec
}

// TaskRunner executes one task attempt inside a container: it instantiates
// the processor and IO objects from the registry, initialises them with
// their opaque payloads, pumps incoming control events to the right input,
// runs the processor, then closes outputs and forwards their completion
// events to the AM.
type TaskRunner struct {
	Spec     TaskSpec
	Services Services
	// Incoming carries AM→task events (routed DataMovement etc.). The
	// runner closes it when the attempt finishes.
	Incoming *mailbox.Mailbox[event.Event]
	// Emit sends task→AM events.
	Emit func(event.Event)
}

// Run executes the attempt. A returned *InputReadError (possibly wrapped)
// has already been reported to the AM as an event.InputReadError.
func (r *TaskRunner) Run(stop <-chan struct{}) (err error) {
	defer r.Incoming.Close()
	defer func() {
		if err != nil {
			if ire, ok := AsInputReadError(err); ok {
				r.Emit(event.InputReadError{
					Vertex:     r.Spec.Meta.Vertex,
					Task:       r.Spec.Meta.Task,
					InputName:  ire.InputName,
					SrcVertex:  ire.SrcVertex,
					SrcTask:    ire.SrcTask,
					SrcAttempt: ire.SrcAttempt,
					Reason:     ire.Error(),
				})
			}
		}
	}()

	proc, err := plugin.New[Processor](plugin.KindProcessor, r.Spec.Processor)
	if err != nil {
		return err
	}
	inputs := make(map[string]Input, len(r.Spec.Inputs))
	outputs := make(map[string]Output, len(r.Spec.Outputs))

	// Inputs are closed on every exit path: a shuffle input's fetcher pool
	// and the runs it fetched live until Close, and stop is the container's
	// kill channel, not the attempt's, so in a reused container nothing
	// else would release them. Inputs and outputs are started and closed
	// in spec order, never map order, so the events a task announces and
	// the error it reports do not vary from run to run.
	inputsClosed := false
	closeInputs := func() error {
		if inputsClosed {
			return nil
		}
		inputsClosed = true
		var first error
		for _, spec := range r.Spec.Inputs {
			in, ok := inputs[spec.Name] // absent when initialization stopped short
			if !ok {
				continue
			}
			if err := in.Close(); err != nil && first == nil {
				first = fmt.Errorf("close input %s: %w", spec.Name, err)
			}
		}
		return first
	}
	// An exit that did not reach the close below is already failing; its
	// error is the one to report.
	defer func() { _ = closeInputs() }()

	newCtx := func(name string, payload []byte, phys int) *Context {
		return &Context{
			Meta:          r.Spec.Meta,
			Services:      r.Services,
			Payload:       payload,
			Name:          name,
			PhysicalCount: phys,
			Emit:          r.Emit,
			Stop:          stop,
		}
	}

	if err := proc.Initialize(newCtx("", r.Spec.Processor.Payload, 0)); err != nil {
		return fmt.Errorf("initialize processor: %w", err)
	}
	for _, spec := range r.Spec.Inputs {
		in, err := plugin.New[Input](plugin.KindInput, spec.Descriptor)
		if err != nil {
			return err
		}
		if err := in.Initialize(newCtx(spec.Name, spec.Descriptor.Payload, spec.PhysicalCount)); err != nil {
			return fmt.Errorf("initialize input %s: %w", spec.Name, err)
		}
		inputs[spec.Name] = in
	}
	for _, spec := range r.Spec.Outputs {
		out, err := plugin.New[Output](plugin.KindOutput, spec.Descriptor)
		if err != nil {
			return err
		}
		if err := out.Initialize(newCtx(spec.Name, spec.Descriptor.Payload, spec.PhysicalCount)); err != nil {
			return fmt.Errorf("initialize output %s: %w", spec.Name, err)
		}
		outputs[spec.Name] = out
	}

	// Event pump: deliver routed events to the addressed input. The pump
	// exits when Incoming is closed (by us, at attempt end, or by the AM).
	pumpDone := make(chan struct{})
	go func() {
		defer close(pumpDone)
		for {
			ev, ok := r.Incoming.Get()
			if !ok {
				return
			}
			name := inputNameOf(ev)
			if in, ok := inputs[name]; ok {
				// Input event handlers are required to be non-blocking
				// and error-free on routed events; a handler error is a
				// contract bug surfaced via the task's own read path.
				_ = in.HandleEvent(ev)
			}
		}
	}()
	defer func() { r.Incoming.Close(); <-pumpDone }()

	for _, spec := range r.Spec.Inputs {
		if err := inputs[spec.Name].Start(); err != nil {
			return fmt.Errorf("start input %s: %w", spec.Name, err)
		}
	}

	if err := proc.Run(inputs, outputs); err != nil {
		return err
	}
	if err := proc.Close(); err != nil {
		return fmt.Errorf("close processor: %w", err)
	}
	if err := closeInputs(); err != nil {
		return err
	}
	for _, spec := range r.Spec.Outputs {
		events, err := outputs[spec.Name].Close()
		if err != nil {
			return fmt.Errorf("close output %s: %w", spec.Name, err)
		}
		for _, ev := range events {
			r.Emit(ev)
		}
	}
	return nil
}

// inputNameOf extracts the addressed input name from a routed event.
func inputNameOf(ev event.Event) string {
	switch e := ev.(type) {
	case event.DataMovement:
		return e.TargetInput
	case event.RootInputDataInformation:
		return e.InputName
	case event.InputFailed:
		return e.TargetInput
	default:
		return ""
	}
}
