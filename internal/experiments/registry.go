package experiments

import "fmt"

// Driver pairs one artifact ID with its regeneration function.
type Driver struct {
	// ID is the artifact name, e.g. "Table VIII" or "Planner".
	ID string
	// Fn regenerates the artifact at the given scale.
	Fn func(Scale) (*Result, error)
}

// Drivers returns every artifact driver in canonical presentation order.
// This slice is the single ordering authority: cmd/ocelot-bench iterates
// it and All runs it, so their output is deterministic run-to-run.
// Append new artifacts at the end; never reorder existing entries.
func Drivers() []Driver {
	return []Driver{
		{"Table I", TableI},
		{"Table II", TableII},
		{"Fig 4", Fig4},
		{"Fig 5", Fig5},
		{"Fig 6", Fig6},
		{"Fig 7", Fig7},
		{"Fig 8", Fig8},
		{"Fig 9", Fig9},
		{"Table V", TableV},
		{"Table VI", TableVI},
		{"Table VII", TableVII},
		{"Fig 12", Fig12},
		{"Fig 13", Fig13},
		{"Fig 14", Fig14},
		{"Fig 15", Fig15},
		{"Table VIII", TableVIII},
		{"Fig 16", Fig16},
		{"Planner", Planner},
	}
}

// All runs every registered driver in canonical order, returning results
// keyed by artifact ID in presentation order.
func All(scale Scale) ([]*Result, error) {
	drivers := Drivers()
	out := make([]*Result, 0, len(drivers))
	for _, d := range drivers {
		r, err := d.Fn(scale)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", d.ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}
