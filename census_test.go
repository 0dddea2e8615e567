package arbd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"arbd/internal/core"
	"arbd/internal/render"
	"arbd/internal/server"
)

// maxKnobs is the ceiling on exported option-struct fields: raising it
// needs a caller outside the tests that sets the new value.
const maxKnobs = 5

// TestKnobCensus holds README's Options table to the code: every exported
// field of an option struct and every flag of a command has a row naming
// who sets it, and every row names a knob that exists.
func TestKnobCensus(t *testing.T) {
	documented := readmeKnobs(t)

	actual := map[string]bool{}
	fields := 0
	for _, v := range []any{
		server.SchedulerConfig{}, server.ShardOptions{}, server.RouterOptions{},
		server.DialOptions{}, server.SubscribeOptions{},
		render.LayoutOptions{}, core.Config{},
	} {
		typ := reflect.TypeOf(v)
		knob := typ.String() // e.g. "server.ShardOptions"
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				actual[knob+" "+f.Name] = true
				fields++
			}
		}
	}
	if fields > maxKnobs {
		t.Errorf("%d exported option fields, want at most %d", fields, maxKnobs)
	}
	for cmd, flags := range commandFlags(t) {
		for _, f := range flags {
			actual[cmd+" -"+f] = true
		}
	}

	for _, k := range sortedKeys(actual) {
		if setter, ok := documented[k]; !ok {
			t.Errorf("%s is not in README's Options table", k)
		} else if setter == "" {
			t.Errorf("%s: README's Options table names nobody who sets it", k)
		}
	}
	for _, k := range sortedKeys(documented) {
		if !actual[k] {
			t.Errorf("README's Options table lists %s, which does not exist", k)
		}
	}
}

// readmeKnobs maps "<knob> <value>" to the "Set by" cell of each row of
// README's Options table.
func readmeKnobs(t *testing.T) map[string]string {
	t.Helper()
	section := markdownSection(t, "README.md", "## Options")
	row := regexp.MustCompile("^\\| `([^`]+)` \\| `([^`]+)` \\| ([^|]*) \\|")
	knobs := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			knobs[m[1]+" "+m[2]] = strings.TrimSpace(m[3])
		}
	}
	if len(knobs) == 0 {
		t.Fatal("README's Options table has no rows")
	}
	return knobs
}

// commandFlags parses every command's main.go and returns the flags it
// defines through the flag package, by command name.
func commandFlags(t *testing.T) map[string][]string {
	t.Helper()
	mains, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no commands found: %v", err)
	}
	out := map[string][]string{}
	for _, path := range mains {
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		cmd := filepath.Base(filepath.Dir(path))
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			nameArg := call.Args[0] // flag.Int("name", …)
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				nameArg = call.Args[1] // flag.IntVar(&v, "name", …)
			}
			if lit, ok := nameArg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				out[cmd] = append(out[cmd], name)
			}
			return true
		})
	}
	return out
}

// markdownSection returns the text of the section of path that starts with
// the heading line and runs to the next heading of the same level.
func markdownSection(t *testing.T, path, heading string) string {
	t.Helper()
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "\n"+heading)
	if !ok {
		t.Fatalf("%s has no %q section", path, heading)
	}
	level := heading[:strings.IndexByte(heading, ' ')+1]
	section, _, _ := strings.Cut(rest, "\n"+level)
	return section
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
