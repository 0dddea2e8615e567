package arbd

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCINamedTestsExist keeps the CI workflow's named test steps honest: a
// `go test -run 'A|B' pkgs` step whose pattern matches no test passes
// silently, so every alternation term of every -run (and literal -fuzz)
// pattern in .github/workflows/ci.yml must match at least one test function
// of the packages that command names. `^$` and shell-substituted patterns
// are skipped.
func TestCINamedTestsExist(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, line := range strings.Split(string(ci), "\n") {
		args := shellWords(line)
		i := indexPair(args, "go", "test")
		if i < 0 {
			continue
		}
		var patterns, pkgs []string
		for j := i + 2; j < len(args); j++ {
			a := args[j]
			switch {
			case a == "-run" && j+1 < len(args):
				j++
				patterns = append(patterns, args[j])
			case strings.HasPrefix(a, "-run="), strings.HasPrefix(a, "-fuzz="):
				patterns = append(patterns, a[strings.Index(a, "=")+1:])
			case strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, a)
			}
		}
		for _, pat := range patterns {
			if pat == "^$" || strings.Contains(strings.TrimSuffix(pat, "$"), "$") {
				continue
			}
			names := testNames(t, pkgs)
			for _, term := range strings.Split(pat, "|") {
				re, err := regexp.Compile(strings.SplitN(term, "/", 2)[0])
				if err != nil {
					t.Fatalf("ci.yml: bad pattern %q in %q: %v", term, line, err)
				}
				found := false
				for _, name := range names {
					if re.MatchString(name) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("ci.yml runs %q in %v, which no test there matches", term, pkgs)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("ci.yml: no named test pattern found")
	}
}

// shellWords splits a shell command line on blanks, honouring single and
// double quotes — enough for the workflow's go test lines.
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	var quote rune
	in := false
	for _, r := range line {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, in = r, true
		case r == ' ' || r == '\t':
			if in {
				words = append(words, cur.String())
				cur.Reset()
				in = false
			}
		default:
			cur.WriteRune(r)
			in = true
		}
	}
	if in {
		words = append(words, cur.String())
	}
	return words
}

// indexPair returns the index of the first a immediately followed by b.
func indexPair(words []string, a, b string) int {
	for i := 0; i+1 < len(words); i++ {
		if words[i] == a && words[i+1] == b {
			return i
		}
	}
	return -1
}

// testNames returns the top-level Test and Fuzz functions declared in the
// packages' test files; a "./x/..." package includes everything below x.
func testNames(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	for _, pkg := range pkgs {
		dir, recursive := strings.CutSuffix(strings.TrimSuffix(pkg, "/"), "/...")
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != dir && (!recursive || d.Name() == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, "_test.go") {
				return nil
			}
			file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			for name := range file.Scope.Objects {
				if strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Fuzz") {
					names = append(names, name)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}
