package probe

import (
	"encoding/csv"
	"io"
	"strconv"
)

// Sampler snapshots every registered metric every K simulated cycles. It
// implements sim.Ticker and is registered in the engine's Collect phase
// by fabric.Network.InstallProbe, so samples observe a consistent
// end-of-cycle view. Rows accumulate in memory (a 15k-cycle run sampled
// every 256 cycles is ~60 rows) and are exported as CSV, the record's
// metrics.csv.
type Sampler struct {
	reg    *Registry
	every  uint64
	cycles []uint64
	rows   [][]float64
	last   uint64
	any    bool
}

func newSampler(reg *Registry, every uint64) *Sampler {
	return &Sampler{reg: reg, every: every}
}

// Tick implements sim.Ticker.
func (s *Sampler) Tick(cycle uint64) {
	if cycle%s.every == 0 {
		s.sample(cycle)
	}
}

// Flush takes a final sample at the given cycle unless one was already
// taken there.
func (s *Sampler) Flush(cycle uint64) {
	if s.any && s.last == cycle {
		return
	}
	s.sample(cycle)
}

func (s *Sampler) sample(cycle uint64) {
	s.cycles = append(s.cycles, cycle)
	s.rows = append(s.rows, s.reg.snapshot(make([]float64, 0, s.reg.Len())))
	s.last = cycle
	s.any = true
}

// Rows returns the number of samples taken.
func (s *Sampler) Rows() int {
	if s == nil {
		return 0
	}
	return len(s.rows)
}

// Row returns sample i (0 <= i < Rows): its cycle and its values in
// registration order. Rows are retained for the whole run and never
// rewritten, so the slice may be kept but must not be modified.
func (s *Sampler) Row(i int) (cycle uint64, values []float64) {
	return s.cycles[i], s.rows[i]
}

// Names returns the metric names aligned with every row's values.
func (s *Sampler) Names() []string {
	if s == nil {
		return nil
	}
	return s.reg.Names()
}

// formatValue renders a sample value deterministically: the shortest
// decimal form without an exponent, so integral values (the common case
// — counters and occupancy gauges) print as plain integers.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// WriteCSV writes the sampled time-series as CSV: a "cycle" column
// followed by one column per metric in registration order.
func (s *Sampler) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"cycle"}, s.reg.Names()...)
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for i, row := range s.rows {
		rec = rec[:0]
		rec = append(rec, strconv.FormatUint(s.cycles[i], 10))
		for _, v := range row {
			rec = append(rec, formatValue(v))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
