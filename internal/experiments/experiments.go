// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI). Each experiment is a function from Options to a
// Rendered result (typed rows flattened to strings); the cmd/tables binary
// and the repository benchmarks are thin wrappers around this package.
//
// Experiment ids: table1, table2, table3, table4, fig3, fig4, fig5, fig6
// (the paper's evaluation) plus the extensions crdsa, energy, estimators,
// noise and progress. See DESIGN.md for the per-experiment index and
// EXPERIMENTS.md for the paper-versus-measured record.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/plot"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/runpool"
)

// Options control an experiment run.
type Options struct {
	// Runs overrides the Monte-Carlo repetition count (0 = per-experiment
	// default: 100 for the tables, 20 for the simulation figures, exact
	// analytics for fig3/fig4).
	Runs int
	// Seed selects the deterministic seed (0 = 1).
	Seed uint64
	// TxModel selects the transmission model (0 = binomial fast model).
	TxModel protocol.TxModel
	// Progress, when non-nil, receives one line per completed data point.
	// Writes are serialized; under Workers > 1 lines may arrive out of
	// data-point order.
	Progress io.Writer
	// Sizes overrides the population grid of table1 (nil = the paper's
	// 1000..20000 step 1000).
	Sizes []int
	// Workers bounds the concurrency of an experiment: data points run on
	// up to Workers goroutines and every campaign inherits it as
	// sim.Config.Workers. 0 or 1 = fully sequential. Tables and figures
	// are deterministic for any worker count — each data point owns its
	// output slot, and the campaigns themselves merge deterministically.
	Workers int
}

func (o Options) withDefaults(defaultRuns int) Options {
	if o.Runs <= 0 {
		o.Runs = defaultRuns
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TxModel == 0 {
		o.TxModel = protocol.TxBinomial
	}
	return o
}

// progressMu serializes progress lines: data points of a parallel
// experiment report completion from their worker goroutines.
var progressMu sync.Mutex

func (o Options) progressf(format string, args ...any) {
	if o.Progress != nil {
		progressMu.Lock()
		defer progressMu.Unlock()
		fmt.Fprintf(o.Progress, format, args...)
	}
}

// points runs fn(0), ..., fn(n-1) on the campaigns' ordered-merge pool
// with up to o.Workers goroutines; each fn must write its result into the
// per-index slot it owns. The error returned is the lowest failing
// index's — the same error a sequential pass would hit first, for any
// worker count.
func (o Options) points(n int, fn func(i int) error) error {
	_, _, err := runpool.Run(n, o.Workers, nil, func() runpool.Func[struct{}] {
		return func(i int, _ obs.Tracer) (struct{}, error) { return struct{}{}, fn(i) }
	}, nil)
	return err
}

// Rendered is an experiment's output in displayable form.
type Rendered struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Notes record deviations, parameters and reading hints.
	Notes []string
	// Series carries the figure experiments' numeric curves for plotting;
	// empty for the tables.
	Series []plot.Series
}

// WritePlot renders the experiment's numeric series as an ASCII chart; it
// is an error for experiments without series (the tables).
func (r Rendered) WritePlot(w io.Writer) error {
	if len(r.Series) == 0 {
		return fmt.Errorf("experiments: %s has no plottable series", r.ID)
	}
	return plot.Render(w, fmt.Sprintf("%s — %s", strings.ToUpper(r.ID), r.Title), r.Series, 72, 24)
}

// WriteText renders the experiment as an aligned text table.
func (r Rendered) WriteText(w io.Writer) error {
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s — %s\n", strings.ToUpper(r.ID), r.Title); err != nil {
		return err
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%*s", widths[i], c)
		}
		return strings.Join(parts, "  ")
	}
	header := line(r.Header)
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", len(header))); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV renders the experiment as CSV (header row first).
func (r Rendered) WriteCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		quoted := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			quoted[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(quoted, ","))
		return err
	}
	if err := writeRow(r.Header); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// runner is an experiment entry point.
type runner func(Options) (Rendered, error)

var registry = map[string]runner{
	"table1": Table1,
	"table2": Table2,
	"table3": Table3,
	"table4": Table4,
	"fig3":   Fig3,
	"fig4":   Fig4,
	"fig5":   Fig5,
	"fig6":   Fig6,
	// Extension experiments beyond the paper's evaluation.
	"crdsa":      CRDSA,
	"energy":     Energy,
	"estimators": Estimators,
	"noise":      Noise,
	"progress":   Progress,
}

// IDs returns the known experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given id.
func Run(id string, opts Options) (Rendered, error) {
	r, ok := registry[strings.ToLower(strings.TrimSpace(id))]
	if !ok {
		return Rendered{}, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	return r(opts)
}

// sizeOr returns the first population override from opts.Sizes, or def.
func (o Options) sizeOr(def int) int {
	if len(o.Sizes) > 0 && o.Sizes[0] > 0 {
		return o.Sizes[0]
	}
	return def
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
func d0(v float64) string { return fmt.Sprintf("%.0f", v) }
