package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// Golden regression: the simulation is a pure function of its inputs,
// so these experiment outputs must match the recorded files byte for
// byte. Regenerate deliberately with:
//
//	go test ./internal/experiments -run Golden -update
//
// after any intentional model or calibration change.
func TestGoldenOutputs(t *testing.T) {
	o := Quick()
	for _, name := range []string{"fig2", "fig3", "fig4", "tab1", "tab2", "classes", "fig6", "fig7", "fig8", "scalepar", "ablate", "scale", "amr", "counters"} {
		name := name
		t.Run(name, func(t *testing.T) {
			out, err := Run(name, o)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if string(want) != out {
				t.Errorf("%s output drifted from golden.\n--- golden ---\n%s\n--- got ---\n%s",
					name, want, out)
			}
		})
	}
}
