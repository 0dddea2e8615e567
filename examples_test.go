package arbd

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestExamplesRun builds every program under examples/ and runs each to
// completion: an example that deadlocks (retail's re-ranker once called
// back into the session rendering its frame) or exits non-zero fails here
// instead of in front of a reader.
func TestExamplesRun(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH to build the examples with")
	}
	examples, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	build := exec.Command(goTool, "build", "-o", bin+string(filepath.Separator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	ran := 0
	for _, e := range examples {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			out, err := exec.CommandContext(ctx, filepath.Join(bin, name)).CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("still running after a minute (deadlocked?); output so far:\n%s", out)
			}
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
		})
		ran++
	}
	if ran == 0 {
		t.Fatal("no example found under examples/")
	}
}
