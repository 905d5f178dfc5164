package experiments

import (
	"os"
	"strings"
	"testing"
)

// TestGoldenSubset regenerates four exhibits at the report's seed and
// compares each table with its block in results_fast.txt, byte for byte.
// The four cover every cell kind that is not a RunBench throughput cell:
// Table 1 and Fig. 12 build a communication layer and stop (setup-only),
// Fig. 14(a) runs TPC-H through its DAG plans, ext-dag runs the multi-stage
// plan. make results-check regenerates the whole report.
func TestGoldenSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	raw, err := os.ReadFile("../../results_fast.txt")
	if err != nil {
		t.Fatal(err)
	}
	blocks := strings.Split(string(raw), "\n\n")
	golden := func(id string) string {
		for _, b := range blocks {
			if strings.HasPrefix(b, id+" — ") {
				return b + "\n"
			}
		}
		return ""
	}
	for _, name := range []string{"table1", "fig12", "fig14a", "ext-dag"} {
		for _, tb := range exhibitTables(t, name, Options{Seed: 42}) {
			want := golden(tb.ID)
			if want == "" {
				t.Errorf("%s: no block for %q in results_fast.txt", name, tb.ID)
				continue
			}
			if got := tb.Format(); got != want {
				t.Errorf("%s: %s differs from results_fast.txt\ngot:\n%s\nwant:\n%s", name, tb.ID, got, want)
			}
		}
	}
}
