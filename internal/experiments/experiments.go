// Package experiments regenerates every table and figure of the paper's
// evaluation. Each generator returns a Table (headers + rows + notes) that
// cmd/oscar-bench prints and bench_test.go exercises; EXPERIMENTS.md records
// paper-versus-measured values.
//
// Config.Quick scales instance counts and qubit sizes down to what a
// laptop-class machine runs in seconds; full mode uses the paper's sizes
// where the simulator substrates make that feasible.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Config controls experiment scale and determinism.
type Config struct {
	// Seed drives every random choice; runs are deterministic given it.
	Seed int64
	// Workers bounds parallel circuit evaluation and solver sharding
	// (0 = GOMAXPROCS).
	Workers int
	// Quick reduces instance counts and qubit sizes for fast runs.
	Quick bool
}

// Table is a formatted experiment result.
type Table struct {
	// ID is the paper artifact it reproduces, e.g. "table2" or "fig4".
	ID string
	// Title describes the experiment.
	Title string
	// Headers and Rows hold the tabular payload.
	Headers []string
	Rows    [][]string
	// Notes records caveats (substitutions, scaled-down sizes).
	Notes string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Generator produces one experiment table.
type Generator func(Config) (*Table, error)

// Registry maps experiment IDs to their generators.
func Registry() map[string]Generator {
	return map[string]Generator{
		"table1":      Table1,
		"table2":      Table2,
		"table3":      Table3,
		"table4":      Table4,
		"table5":      Table5,
		"table6":      Table6,
		"fig2":        Fig2,
		"fig4":        Fig4,
		"fig5":        Fig5,
		"fig6":        Fig6,
		"fig8":        Fig8,
		"fig9":        Fig9,
		"fig10":       Fig10,
		"fig11":       Fig11,
		"fig12":       Fig12,
		"fig13":       Fig13,
		"speedup":     Speedup,
		"eager":       Eager,
		"fleet":       Fleet,
		"adversarial": Adversarial,
		"surrogate":   SurrogateP2,
	}
}

// IDs returns the registered experiment IDs in sorted order.
func IDs() []string {
	reg := Registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// f formats a float compactly for table cells.
func f(v float64) string { return fmt.Sprintf("%.4f", v) }

// f2 formats with 2 decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.3g%%", 100*v) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func quartile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := lo
	if lo+1 < len(s) {
		hi = lo + 1
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
