package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the figure goldens under testdata/ from this run")

// TestFigureGoldens holds the paper artifacts to checked-in bytes: each
// case renders exactly what its cmd/ main prints (the same Run and Format
// calls on the same configuration) and must match its golden file under
// testdata/. Run with -update to rewrite the files after a deliberate
// change to a figure.
func TestFigureGoldens(t *testing.T) {
	table1 := func(extended bool) func() (string, error) {
		return func() (string, error) {
			cfg := DefaultTable1Config()
			cfg.Extended = extended
			r, err := RunTable1(cfg)
			if err != nil {
				return "", err
			}
			return FormatTable1(cfg, r), nil
		}
	}
	fig5 := func(requests int, hours float64) func() (string, error) {
		return func() (string, error) {
			cfg := DefaultFig5Config()
			if requests > 0 {
				cfg.Requests, cfg.HorizonHours = requests, hours
			}
			r, err := RunFig5(cfg)
			if err != nil {
				return "", err
			}
			return FormatFig5(r), nil
		}
	}
	for _, c := range []struct {
		file   string // golden under testdata/, named after the command line
		render func() (string, error)
	}{
		{"table1.golden", table1(false)},
		{"table1-extended.golden", table1(true)},
		{"fig5.golden", fig5(0, 0)},
		{"fig5-requests400-hours80.golden", fig5(400, 80)},
	} {
		t.Run(c.file, func(t *testing.T) {
			got, err := c.render()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", c.file)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}
