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
		t.Fatalf("order: first=%s last=%s", exps[0].ID, exps[len(exps)-1].ID)
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

// TestE9SharedBeatsLineOfSight pins the x-ray vision result (§4): at every
// penetration, vehicles sharing positions through the cloud detect more
// conflict pairs than line-of-sight alone, and shared recall rises with
// penetration. The run is seeded, so the table is fixed.
func TestE9SharedBeatsLineOfSight(t *testing.T) {
	out := E9Traffic().String()
	detected := map[string]map[string]int{}
	recall := map[string]float64{}
	var penetrations []string
	for _, l := range strings.Split(out, "\n") {
		fields := strings.Fields(l)
		if len(fields) != 6 || !strings.HasSuffix(fields[0], "%") {
			continue
		}
		pen, mode := fields[0], fields[1]
		n, err1 := strconv.Atoi(fields[3])
		r, err2 := strconv.ParseFloat(fields[4], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparsable row %q", l)
		}
		if detected[pen] == nil {
			detected[pen] = map[string]int{}
			penetrations = append(penetrations, pen)
		}
		detected[pen][mode] = n
		if mode == "cloud-shared" {
			recall[pen] = r
		}
	}
	if len(penetrations) != 3 || penetrations[0] != "30%" || penetrations[1] != "60%" || penetrations[2] != "100%" {
		t.Fatalf("penetration column = %v, want [30%% 60%% 100%%]\n%s", penetrations, out)
	}
	for _, pen := range penetrations {
		if shared, los := detected[pen]["cloud-shared"], detected[pen]["line-of-sight"]; shared <= los {
			t.Errorf("%s: cloud-shared detected %d, not above line-of-sight %d\n%s", pen, shared, los, out)
		}
	}
	if !(recall["30%"] < recall["60%"] && recall["60%"] < recall["100%"]) {
		t.Fatalf("cloud-shared recall %v does not rise with penetration\n%s", recall, out)
	}
}

// TestE10RecallRisesWithEpsilon pins the paper's privacy/utility trade-off
// (§4.3): under planar-Laplace perturbation, the recall of the true 10
// nearest POIs rises strictly as ε grows (weaker privacy). The run is
// seeded, so the recall column is fixed.
func TestE10RecallRisesWithEpsilon(t *testing.T) {
	out := E10Privacy().String()
	var eps, recall []float64
	for _, l := range strings.Split(out, "\n") {
		fields := strings.Fields(l)
		if len(fields) < 3 || fields[0] != "planar-laplace" {
			continue
		}
		e, err1 := strconv.ParseFloat(fields[1], 64)
		r, err2 := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparsable row %q", l)
		}
		eps, recall = append(eps, e), append(recall, r)
	}
	if len(eps) != 3 || eps[0] != 0.005 || eps[1] != 0.02 || eps[2] != 0.1 {
		t.Fatalf("planar-laplace ε column = %v, want [0.005 0.02 0.1]\n%s", eps, out)
	}
	if !(recall[0] < recall[1] && recall[1] < recall[2]) {
		t.Fatalf("10-NN recall %v does not rise strictly with ε %v\n%s", recall, eps, out)
	}
}
