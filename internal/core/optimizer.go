package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/synth"
	"repro/internal/variation"
)

// Optimizer is the unified interface every sizing backend implements.
// Run sizes the design in place under the shared Options machinery
// (ctx cancellation, Workers, checkpoint/resume) and
// reports the run as a Result. Backends register themselves in the
// package registry under their canonical Name, which is also the
// spelling the -optimizer CLI flags and sstad's wire-level "optimizer"
// field accept.
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

var (
	registryMu sync.RWMutex
	registry   = map[string]Optimizer{}
)

// RegisterOptimizer adds a backend to the registry; registering a
// duplicate or empty name panics (registration happens at init time, so
// a collision is a programming error, not a runtime condition).
func RegisterOptimizer(o Optimizer) {
	name := o.Name()
	if name == "" {
		panic("core: optimizer with empty name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("core: duplicate optimizer %q", name))
	}
	registry[name] = o
}

// LookupOptimizer resolves a backend name; the empty name resolves to
// DefaultOptimizer.
func LookupOptimizer(name string) (Optimizer, bool) {
	if name == "" {
		name = DefaultOptimizer
	}
	registryMu.RLock()
	defer registryMu.RUnlock()
	o, ok := registry[name]
	return o, ok
}

// Optimizers returns the registered backend names, sorted — the stable
// enumeration the differential harness iterates and the CLIs print.
func Optimizers() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// The three historical optimizers, ported onto the interface as thin
// delegations to their exported functions: the port and the direct call
// are the same code path, so they are bit-identical by construction
// (and pinned so by internal/difftest's equivalence tests).

type statGreedyBackend struct{}

func (statGreedyBackend) Name() string { return DefaultOptimizer }
func (statGreedyBackend) Run(d *synth.Design, vm *variation.Model, opts Options) (*Result, error) {
	return StatisticalGreedy(d, vm, opts)
}

type meanDelayBackend struct{}

func (meanDelayBackend) Name() string { return "meandelay" }
func (meanDelayBackend) Run(d *synth.Design, vm *variation.Model, opts Options) (*Result, error) {
	return MeanDelayGreedy(d, vm, opts)
}

// recoverAreaBackend adapts the area-recovery pass, whose direct call
// takes the slack fraction as an explicit argument, onto the interface:
// Run reads it from Options.SlackFrac (0 = 0.01).
type recoverAreaBackend struct{}

func (recoverAreaBackend) Name() string { return "recoverarea" }
func (recoverAreaBackend) Run(d *synth.Design, vm *variation.Model, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	res, _, err := recoverArea(d, vm, opts, opts.slackFrac(), newStatAnalyzer(d, vm, opts))
	return res, err
}

type sensitivityBackend struct{}

func (sensitivityBackend) Name() string { return "sensitivity" }
func (sensitivityBackend) Run(d *synth.Design, vm *variation.Model, opts Options) (*Result, error) {
	return SensitivitySizer(d, vm, opts)
}

func init() {
	RegisterOptimizer(statGreedyBackend{})
	RegisterOptimizer(meanDelayBackend{})
	RegisterOptimizer(recoverAreaBackend{})
	RegisterOptimizer(sensitivityBackend{})
}
