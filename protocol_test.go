package arbd

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestProtocolInvariantsAreTested keeps PROTOCOL.md §6 executable: every
// test it names as the check of an invariant exists in the repo.
func TestProtocolInvariantsAreTested(t *testing.T) {
	section := markdownSection(t, "PROTOCOL.md", "## 6.")
	named := regexp.MustCompile("`(Test[A-Za-z0-9_]+)`").FindAllStringSubmatch(section, -1)
	if len(named) == 0 {
		t.Fatal("PROTOCOL.md §6 names no test")
	}

	defined := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		for name := range file.Scope.Objects {
			defined[name] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range named {
		if !defined[m[1]] {
			t.Errorf("PROTOCOL.md §6 names %s, which no test file defines", m[1])
		}
	}
}
