// Package lint implements arbd-lint, the repository's custom static-analysis
// suite. Eight PRs of hot-path, wire-protocol, and locking work produced a
// set of invariants that used to live only in review folklore; this package
// machine-checks them on every commit:
//
//   - hotpath: functions annotated //arbd:hotpath must not contain
//     allocating constructs (map/slice literals, make/new, un-presized
//     append growth, capturing closures, fmt.* calls, string concat or
//     string<->[]byte conversions, interface boxing at call sites).
//     Escape hatch: //arbd:alloc-ok <reason> on or above the line.
//   - wirepin: every exported wire.MsgType constant is pinned (value and
//     all) in the package's pin test, values are unique, proto-version
//     constants are exercised by tests, and switches over MsgType inside
//     the declaring package are exhaustive — as is, in any package, every
//     MsgType switch of a function annotated //arbd:dispatch (the serving
//     loop: each message type is decided on every role).
//   - lockorder: no net.Conn calls, unbuffered channel sends, or
//     time.Sleep while a sync.Mutex/RWMutex locked in the same function
//     is held, and every Lock has a matching Unlock in the function.
//     Escape hatch: //arbd:lock-ok <reason>.
//   - metricscache: metrics.Registry.Counter/Gauge/Histogram lookups
//     inside loops or //arbd:hotpath functions are errors — handles must
//     be resolved once at construction (PR 8's 52.6->6.0 ns audit).
//     Escape hatch: //arbd:metrics-ok <reason>.
//
// The suite is stdlib-only (go/ast, go/parser, go/types, go/token): no
// network, no third-party analysis frameworks, so it runs anywhere the Go
// toolchain does. cmd/arbd-lint is the CLI driver; the golden fixtures
// under testdata/mod prove each analyzer fires and stays quiet.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one reported invariant violation.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the file:line: [analyzer] message form the
// CLI prints and CI greps.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// escapeDirective names the //arbd:<kind> comment that silences an
// analyzer's finding on its own line or the line above.
var escapeDirective = map[string]string{
	"hotpath":      "alloc-ok",
	"lockorder":    "lock-ok",
	"metricscache": "metrics-ok",
	"wirepin":      "wirepin-ok",
}

// Run lints every package under root matching the patterns (Go-style
// "./..."-style prefixes; nil or "./..." means everything) and returns the
// surviving findings sorted by position. root must contain a go.mod naming
// the module the packages import each other through.
func Run(root string, patterns []string) ([]Finding, error) {
	l, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.loadAll(patterns)
	if err != nil {
		return nil, err
	}
	var all []Finding
	for _, p := range pkgs {
		dirs := collectDirectives(l.fset, p)
		all = append(all, analyzeHotpath(l.fset, p, dirs)...)
		all = append(all, analyzeWirepin(l.fset, p)...)
		all = append(all, analyzeLockorder(l.fset, p)...)
		all = append(all, analyzeMetricscache(l.fset, p, dirs)...)
	}
	all = filterEscaped(all, l.fset, pkgs)
	sort.Slice(all, func(i, j int) bool {
		if all[i].Pos.Filename != all[j].Pos.Filename {
			return all[i].Pos.Filename < all[j].Pos.Filename
		}
		if all[i].Pos.Line != all[j].Pos.Line {
			return all[i].Pos.Line < all[j].Pos.Line
		}
		return all[i].Message < all[j].Message
	})
	return all, nil
}

// directives indexes //arbd:* comments by file and line.
type directives struct {
	// byLine maps filename -> line -> set of directive kinds on that line.
	byLine map[string]map[int]map[string]bool
}

// collectDirectives gathers every //arbd:<kind> comment in the package
// (test files included, so escapes work in pin tests too).
func collectDirectives(fset *token.FileSet, p *pkgInfo) *directives {
	d := &directives{byLine: make(map[string]map[int]map[string]bool)}
	files := append([]*ast.File{}, p.files...)
	files = append(files, p.testFiles...)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, "arbd:") {
					continue
				}
				kind := strings.TrimPrefix(text, "arbd:")
				if i := strings.IndexAny(kind, " \t"); i >= 0 {
					kind = kind[:i]
				}
				pos := fset.Position(c.Pos())
				lines := d.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					d.byLine[pos.Filename] = lines
				}
				kinds := lines[pos.Line]
				if kinds == nil {
					kinds = make(map[string]bool)
					lines[pos.Line] = kinds
				}
				kinds[kind] = true
			}
		}
	}
	return d
}

// has reports whether the directive kind appears on the given file line.
func (d *directives) has(file string, line int, kind string) bool {
	return d.byLine[file][line][kind]
}

// escaped reports whether a finding at pos is silenced by its analyzer's
// escape directive on the same line or the line above.
func (d *directives) escaped(pos token.Position, analyzer string) bool {
	kind, ok := escapeDirective[analyzer]
	if !ok {
		return false
	}
	return d.has(pos.Filename, pos.Line, kind) || d.has(pos.Filename, pos.Line-1, kind)
}

// filterEscaped drops findings annotated away with escape directives. It
// re-collects directives per package because findings carry no package
// back-pointer.
func filterEscaped(all []Finding, fset *token.FileSet, pkgs []*pkgInfo) []Finding {
	merged := &directives{byLine: make(map[string]map[int]map[string]bool)}
	for _, p := range pkgs {
		d := collectDirectives(fset, p)
		for file, lines := range d.byLine {
			if merged.byLine[file] == nil {
				merged.byLine[file] = lines
				continue
			}
			for line, kinds := range lines {
				merged.byLine[file][line] = kinds
			}
		}
	}
	kept := all[:0]
	for _, f := range all {
		if !merged.escaped(f.Pos, f.Analyzer) {
			kept = append(kept, f)
		}
	}
	return kept
}

// funcHasDirective reports whether the function's doc comment carries the
// //arbd:<kind> directive.
func funcHasDirective(fd *ast.FuncDecl, kind string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if text == "arbd:"+kind || strings.HasPrefix(text, "arbd:"+kind+" ") {
			return true
		}
	}
	return false
}
