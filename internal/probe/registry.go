package probe

import "fmt"

type metric struct {
	name string
	fn   func() float64
}

// Registry holds the run's metrics: named functions over state their
// owners keep, never storage of its own. Registration order is the
// iteration order everywhere (snapshot columns, exports), which keeps
// every artifact deterministic; names must be unique. A nil *Registry
// accepts registrations as no-ops.
type Registry struct {
	metrics []metric
	index   map[string]int // name -> metrics index, duplicate detection only
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]int)}
}

func (r *Registry) register(m metric) {
	if _, dup := r.index[m.name]; dup {
		panic(fmt.Sprintf("probe: metric %q registered twice", m.name))
	}
	r.index[m.name] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

// CounterFunc registers a monotonic count its owner keeps, under the given
// hierarchical name (e.g. "router.5.sa_grants"): fn is invoked at every
// sampling window to read it. Otherwise it is a Gauge, with the same
// contract for fn. No-op on a nil registry.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	if r == nil {
		return
	}
	r.register(metric{name: name, fn: func() float64 { return float64(fn()) }})
}

// Gauge registers a sampled metric: fn is invoked at every sampling
// window to read the current value (e.g. buffered flits, queue depth, a
// component's cumulative event count). fn must be deterministic and must
// not change simulated state; it may settle accounting its owner keeps
// lazily (router.Router.Counts charges a sleeping router's stall cycles
// when read), because that only brings forward what the owner's next tick
// would book. No-op on a nil registry.
func (r *Registry) Gauge(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(metric{name: name, fn: fn})
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.metrics)
}

// Names returns the metric names in registration order.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	names := make([]string, len(r.metrics))
	for i, m := range r.metrics {
		names[i] = m.name
	}
	return names
}

// snapshot appends the current value of every metric, in registration
// order, to dst and returns it.
func (r *Registry) snapshot(dst []float64) []float64 {
	for _, m := range r.metrics {
		dst = append(dst, m.fn())
	}
	return dst
}
