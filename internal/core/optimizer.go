package core

import (
	"repro/internal/synth"
	"repro/internal/variation"
)

// Optimizer is the unified interface every sizing backend implements.
// Run sizes the design in place under the shared Options machinery
// (ctx cancellation, Workers, checkpoint/resume) and reports the run as
// a Result. The backends form a fixed table; Name is the spelling the
// -optimizer CLI flags and sstad's wire-level "optimizer" field accept.
type Optimizer interface {
	Name() string
	Run(d *synth.Design, vm *variation.Model, opts Options) (*Result, error)
}

// DefaultOptimizer is the backend selected when no name is given — the
// paper's StatisticalGreedy. Every selection surface (RunOptions, the
// CLIs, sstad's memo key) normalizes the empty name to this one, so "no
// preference" and an explicit request for the default are the same run
// and share cached results.
const DefaultOptimizer = "statgreedy"

// backend is one row of the optimizer table: a name and the exported
// entry point it runs, so a backend and its direct call are the same
// code path.
type backend struct {
	name string
	run  func(d *synth.Design, vm *variation.Model, opts Options) (*Result, error)
}

func (b backend) Name() string { return b.name }
func (b backend) Run(d *synth.Design, vm *variation.Model, opts Options) (*Result, error) {
	return b.run(d, vm, opts)
}

// backends is the optimizer table, sorted by name.
var backends = []backend{
	{"meandelay", MeanDelayGreedy},
	{"recoverarea", RecoverArea},
	{"sensitivity", SensitivitySizer},
	{DefaultOptimizer, StatisticalGreedy},
}

// LookupOptimizer resolves a backend name; the empty name resolves to
// DefaultOptimizer.
func LookupOptimizer(name string) (Optimizer, bool) {
	if name == "" {
		name = DefaultOptimizer
	}
	for _, b := range backends {
		if b.name == name {
			return b, true
		}
	}
	return nil, false
}

// Optimizers returns the backend names, sorted — the stable
// enumeration the differential harness iterates and the CLIs print.
func Optimizers() []string {
	names := make([]string, len(backends))
	for i, b := range backends {
		names[i] = b.name
	}
	return names
}
