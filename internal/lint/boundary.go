package lint

import (
	"fmt"
	"go/token"
	"strconv"
	"strings"
)

// analyzeBoundary keeps paper reproduction out of the serving system: no
// non-test file outside internal/repro/..., cmd/arbd-bench and
// examples/... imports internal/repro/.... Naming the three allowed
// importers, rather than the serving packages, means a new serving package
// is fenced off without editing this list.
func analyzeBoundary(fset *token.FileSet, p *pkgInfo, module string) []Finding {
	if inRepro(p.importPath, module) || p.importPath == module+"/cmd/arbd-bench" ||
		strings.HasPrefix(p.importPath, module+"/examples/") {
		return nil
	}
	var out []Finding
	for _, file := range p.files {
		for _, spec := range file.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil || !inRepro(path, module) {
				continue
			}
			out = append(out, Finding{
				Pos:      fset.Position(spec.Pos()),
				Analyzer: "boundary",
				Message: fmt.Sprintf("%s imports %s; only internal/repro/..., cmd/arbd-bench and examples/... may import paper reproduction",
					p.importPath, path),
			})
		}
	}
	return out
}

// inRepro reports whether the import path lies under the module's
// internal/repro.
func inRepro(importPath, module string) bool {
	repro := module + "/internal/repro"
	return importPath == repro || strings.HasPrefix(importPath, repro+"/")
}
