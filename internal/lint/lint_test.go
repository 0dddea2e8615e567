package lint

import (
	"go/token"
	"strings"
	"sync"
	"testing"
)

// The golden fixtures under testdata/mod form their own module ("fixture")
// with a bad/clean package pair per analyzer. All fixture packages are
// linted in one Run (one stdlib parse) and each test filters by directory.
var (
	fixtureOnce     sync.Once
	fixtureFindings []Finding
	fixtureErr      error
)

func fixtureResults(t *testing.T) []Finding {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureFindings, fixtureErr = Run("testdata/mod", nil)
	})
	if fixtureErr != nil {
		t.Fatalf("Run(testdata/mod): %v", fixtureErr)
	}
	return fixtureFindings
}

// findingsIn returns the fixture findings whose file lives in the named
// fixture package directory.
func findingsIn(t *testing.T, dir string) []Finding {
	t.Helper()
	var out []Finding
	for _, f := range fixtureResults(t) {
		if strings.Contains(f.Pos.Filename, "/"+dir+"/") {
			out = append(out, f)
		}
	}
	return out
}

// expectFindings asserts the package produced exactly the expected findings:
// one per substring, all from the named analyzer.
func expectFindings(t *testing.T, dir, analyzer string, substrings []string) {
	t.Helper()
	got := findingsIn(t, dir)
	if len(got) != len(substrings) {
		for _, f := range got {
			t.Logf("  %s", f)
		}
		t.Fatalf("%s: got %d findings, want %d", dir, len(got), len(substrings))
	}
	for _, f := range got {
		if f.Analyzer != analyzer {
			t.Errorf("%s: finding from analyzer %q, want %q: %s", dir, f.Analyzer, analyzer, f)
		}
	}
	for _, want := range substrings {
		n := 0
		for _, f := range got {
			if strings.Contains(f.Message, want) {
				n++
			}
		}
		if n != 1 {
			for _, f := range got {
				t.Logf("  %s", f)
			}
			t.Fatalf("%s: substring %q matched %d findings, want 1", dir, want, n)
		}
	}
}

func expectQuiet(t *testing.T, dir string) {
	t.Helper()
	for _, f := range findingsIn(t, dir) {
		t.Errorf("%s: unexpected finding: %s", dir, f)
	}
}

func TestHotpathFires(t *testing.T) {
	expectFindings(t, "hotpath_bad", "hotpath", []string{
		"map literal allocates",
		"slice literal allocates",
		"&composite literal allocates",
		"make allocates",
		"new allocates",
		`append grows un-presized local slice "acc"`,
		`closure captures "n"`,
		"fmt.Println allocates",
		"string concatenation allocates",
		"string conversion copies",
		"boxes into interface",
	})
}

func TestHotpathQuiet(t *testing.T) {
	expectQuiet(t, "hotpath_clean")
}

func TestLockorderFires(t *testing.T) {
	expectFindings(t, "lockorder_bad", "lockorder", []string{
		"net.Conn call g.conn.Write while a mutex is held",
		"time.Sleep while a mutex is held",
		`send on unbuffered channel "ch"`,
		"g.mu.Lock() has no matching Unlock",
	})
}

func TestLockorderQuiet(t *testing.T) {
	expectQuiet(t, "lockorder_clean")
}

func TestMetricscacheFires(t *testing.T) {
	expectFindings(t, "metricscache_bad", "metricscache", []string{
		`Registry.Counter("bad.loop") resolved inside a loop`,
		`Registry.Histogram("bad.hot") resolved inside an //arbd:hotpath function`,
	})
}

func TestMetricscacheQuiet(t *testing.T) {
	expectQuiet(t, "metricscache_clean")
}

func TestWirepinFires(t *testing.T) {
	expectFindings(t, "wire_bad", "wirepin", []string{
		"MsgType value 2 is used by both MsgBeta and MsgDup",
		"MsgBeta pinned as 9 but compiles to 2",
		"MsgGamma (= 3) is not pinned",
		"MsgDup (= 2) is not pinned",
		"switch over MsgType misses MsgGamma",
		"switch over MsgType misses MsgDup",
		"protocol version constant ProtoV2 is not exercised",
	})
}

func TestWirepinQuiet(t *testing.T) {
	expectQuiet(t, "wire_clean")
}

func TestDispatchFires(t *testing.T) {
	expectFindings(t, "dispatch_bad", "wirepin", []string{
		"dispatch switch in serve misses MsgBeta",
		"//arbd:dispatch function chain has no switch over MsgType",
	})
}

func TestDispatchQuiet(t *testing.T) {
	expectQuiet(t, "dispatch_clean")
}

func TestDeadexportFires(t *testing.T) {
	expectFindings(t, "deadexport_bad", "deadexport", []string{
		"exported func Unused has no caller outside tests",
		"exported func Recurse has",
		"exported type Orphan has",
		"exported method Orphan.Grow has",
		"exported var Stale has",
	})
}

func TestDeadexportQuiet(t *testing.T) {
	expectQuiet(t, "deadexport_clean")
	// Linting one package still counts callers everywhere in the program,
	// the nested module included.
	findings, err := Run("testdata/mod", []string{"./internal/deadexport_clean"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding: %s", f)
	}
}

// TestDeadexportReproUseIsDead: a serving export that only internal/repro
// calls is reported; one that a serving package calls too is not.
func TestDeadexportReproUseIsDead(t *testing.T) {
	expectFindings(t, "deadexport_repro", "deadexport", []string{
		"exported func ReproOnly has no caller outside tests and internal/repro",
	})
}

func TestBoundaryFires(t *testing.T) {
	expectFindings(t, "boundary_bad", "boundary", []string{
		"fixture/boundary_bad imports fixture/internal/repro/x",
	})
}

// TestBoundaryQuiet: reproduction itself, cmd/arbd-bench and examples may
// import internal/repro.
func TestBoundaryQuiet(t *testing.T) {
	for _, dir := range []string{"internal/repro/x", "cmd/arbd-bench", "examples/demo"} {
		expectQuiet(t, dir)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{
		Pos:      token.Position{Filename: "internal/wire/codec.go", Line: 42},
		Analyzer: "wirepin",
		Message:  "something moved",
	}
	const want = "internal/wire/codec.go:42: [wirepin] something moved"
	if got := f.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestRepoIsLintClean is the self-check: the suite must report zero findings
// on the repository itself. This pins every violation fixed in this PR — a
// reintroduced hot-path allocation, registry lookup, or lock-held write
// fails this test before it fails CI's arbd-lint step.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repo; skipped in -short")
	}
	findings, err := Run("../..", nil)
	if err != nil {
		t.Fatalf("Run(repo root): %v", err)
	}
	for _, f := range findings {
		t.Errorf("repo not lint-clean: %s", f)
	}
}
