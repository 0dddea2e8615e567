package bench

import (
	"strconv"
	"strings"
	"testing"
)

func TestAllExperimentsRegistered(t *testing.T) {
	exps := All()
	if len(exps) != 13 {
		t.Fatalf("registered %d experiments, want 13", len(exps))
	}
	for i, e := range exps {
		if e.Run == nil || e.ID == "" || e.Title == "" {
			t.Fatalf("experiment %d incomplete: %+v", i, e)
		}
	}
	// Sorted E1..E13.
	if exps[0].ID != "E1" || exps[12].ID != "E13" {
		t.Fatalf("order: first=%s last=%s", exps[0].ID, exps[19].ID)
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E5"); !ok {
		t.Fatal("E5 missing")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("phantom experiment")
	}
}

// TestLightExperimentsProduceTables executes the cheap experiments end to
// end; the heavy ones (E1, E2, E5, E12) run in -short mode only via the
// harness binary and root benchmarks.
func TestLightExperimentsProduceTables(t *testing.T) {
	light := []string{"E3", "E4", "E6", "E7", "E10", "E11"}
	if testing.Short() {
		light = []string{"E4", "E6"}
	}
	for _, id := range light {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		tbl := e.Run()
		if tbl.NumRows() == 0 {
			t.Fatalf("%s produced an empty table", id)
		}
		out := tbl.String()
		if !strings.Contains(out, id) {
			t.Errorf("%s table missing its id in the title:\n%s", id, out)
		}
	}
}

func TestE4ShowsCrossover(t *testing.T) {
	out := E4Offload().String()
	if !strings.Contains(out, "<-- best") {
		t.Fatalf("no chosen placements marked:\n%s", out)
	}
	// 3G must choose local, LAN must not.
	lines := strings.Split(out, "\n")
	var lanBest, threeGBest string
	for _, l := range lines {
		if !strings.Contains(l, "<-- best") {
			continue
		}
		if strings.HasPrefix(l, "lan") {
			lanBest = l
		}
		if strings.HasPrefix(l, "3g") {
			threeGBest = l
		}
	}
	if !strings.Contains(threeGBest, "local") {
		t.Errorf("3G best not local: %q", threeGBest)
	}
	if strings.Contains(lanBest, "local") {
		t.Errorf("LAN best is local: %q", lanBest)
	}
}

func TestE7ContextBeatsPopularity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tbl := E7Recommend()
	out := tbl.String()
	// Parse HR@10 per model from the table text.
	hr := map[string]float64{}
	for _, l := range strings.Split(out, "\n") {
		fields := strings.Fields(l)
		if len(fields) >= 2 {
			switch fields[0] {
			case "popularity", "item-cf", "item-cf+context":
				if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
					hr[fields[0]] = v
				}
			}
		}
	}
	if hr["item-cf+context"] <= hr["popularity"] {
		t.Fatalf("context HR %.3f not above popularity %.3f\n%s",
			hr["item-cf+context"], hr["popularity"], out)
	}
}
