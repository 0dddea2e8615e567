package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
)

// analyzeWirepin enforces the wire-protocol pinning contract on any package
// that declares a defined integer type named MsgType:
//
//   - every exported MsgType constant must appear in the package's pin
//     test (a composite literal assigned to an identifier named `pinned`)
//     with a value matching its compiled value
//   - pinned and declared values must be unique — a retired number is
//     never reused
//   - every switch over MsgType in the declaring package must be
//     exhaustive over the exported constants (String(), codec dispatch)
//   - every exported Proto* version constant must be exercised by the
//     package's tests
//
// and, on every package, the dispatch contract: a function annotated
// //arbd:dispatch must switch over a MsgType (wherever it is declared) and
// name every exported constant in each such switch — the serving loop
// decides every message type on every role, so a new type cannot be
// handled on one and forgotten on the other.
func analyzeWirepin(fset *token.FileSet, p *pkgInfo) []Finding {
	if p.pkg == nil {
		return nil
	}
	var out []Finding
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, Finding{
			Pos:      fset.Position(pos),
			Analyzer: "wirepin",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	checkDispatch(p, report)
	scope := p.pkg.Scope()
	tn, ok := scope.Lookup("MsgType").(*types.TypeName)
	if !ok {
		return out
	}
	named, ok := tn.Type().(*types.Named)
	if !ok || !isMsgType(named) {
		return out
	}

	// Declared exported constants of type MsgType, with compiled values.
	declared := make(map[string]int64)
	declaredPos := make(map[string]token.Pos)
	valueOwner := make(map[int64]string)
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		v, ok := constant.Int64Val(c.Val())
		if !ok {
			continue
		}
		if !c.Exported() {
			continue // sentinels like maxMsgType are not wire values
		}
		declared[name] = v
		declaredPos[name] = c.Pos()
		if prev, dup := valueOwner[v]; dup {
			report(c.Pos(), "MsgType value %d is used by both %s and %s — wire values must be unique", v, prev, name)
		}
		valueOwner[v] = name
	}
	if len(declared) == 0 {
		return out
	}

	// The pin table from the package's test files.
	pins, pinPos := pinTable(p.testFiles)
	if pins == nil {
		report(tn.Pos(), "package declares MsgType but no pin test found (a `pinned := []struct{...}{...}` table in a _test.go file)")
	} else {
		pinnedVals := make(map[int64]string)
		for name, v := range pins {
			if prev, dup := pinnedVals[v]; dup && prev != name {
				report(pinPos[name], "pin table reuses value %d for both %s and %s", v, prev, name)
			}
			pinnedVals[v] = name
			dv, ok := declared[name]
			if !ok {
				report(pinPos[name], "pin table entry %s has no matching declared MsgType constant", name)
				continue
			}
			if dv != v {
				report(pinPos[name], "%s pinned as %d but compiles to %d — wire values must not move", name, v, dv)
			}
		}
		for name, v := range declared {
			if _, ok := pins[name]; !ok {
				report(declaredPos[name], "MsgType constant %s (= %d) is not pinned in the pin test; add it and a PROTOCOL.md row", name, v)
			}
		}
	}

	// Exhaustive switches over MsgType in the declaring package.
	for _, file := range p.files {
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tagT := p.info.TypeOf(sw.Tag)
			if tagT == nil || !types.Identical(tagT, named) {
				return true
			}
			covered := casesNamed(sw)
			for name := range declared {
				if !covered[name] {
					report(sw.Pos(), "switch over MsgType misses %s; codec switches must be exhaustive", name)
				}
			}
			return true
		})
	}

	// Proto* version constants must be exercised by tests.
	protoConsts := make(map[string]token.Pos)
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if ok && c.Exported() && len(name) > 5 && name[:5] == "Proto" {
			protoConsts[name] = c.Pos()
		}
	}
	if len(protoConsts) > 0 {
		testIdents := make(map[string]bool)
		for _, f := range p.testFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					testIdents[id.Name] = true
				}
				return true
			})
		}
		for name, pos := range protoConsts {
			if !testIdents[name] {
				report(pos, "protocol version constant %s is not exercised by any test in the package", name)
			}
		}
	}

	return out
}

// isMsgType reports whether named is a defined integer type called MsgType.
func isMsgType(named *types.Named) bool {
	b, ok := named.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0 && named.Obj().Name() == "MsgType"
}

// casesNamed collects the constant names a switch's case clauses list,
// bare (MsgX) or qualified (wire.MsgX).
func casesNamed(sw *ast.SwitchStmt) map[string]bool {
	covered := make(map[string]bool)
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			switch e := e.(type) {
			case *ast.Ident:
				covered[e.Name] = true
			case *ast.SelectorExpr:
				covered[e.Sel.Name] = true
			}
		}
	}
	return covered
}

// checkDispatch checks //arbd:dispatch functions: each must contain a
// switch over a MsgType, and every such switch must name every exported
// constant of that type.
func checkDispatch(p *pkgInfo, report func(pos token.Pos, format string, args ...any)) {
	for _, file := range p.files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !funcHasDirective(fd, "dispatch") {
				continue
			}
			switches := 0
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok || sw.Tag == nil {
					return true
				}
				named, ok := p.info.TypeOf(sw.Tag).(*types.Named)
				if !ok || !isMsgType(named) || named.Obj().Pkg() == nil {
					return true
				}
				switches++
				covered := casesNamed(sw)
				scope := named.Obj().Pkg().Scope()
				for _, name := range scope.Names() {
					c, ok := scope.Lookup(name).(*types.Const)
					if ok && c.Exported() && types.Identical(c.Type(), named) && !covered[name] {
						report(sw.Pos(), "dispatch switch in %s misses %s; every MsgType must be decided on every role", fd.Name.Name, name)
					}
				}
				return true
			})
			if switches == 0 {
				report(fd.Pos(), "//arbd:dispatch function %s has no switch over MsgType", fd.Name.Name)
			}
		}
	}
}

// pinTable extracts {constName: pinnedValue} from the first composite
// literal assigned to an identifier named "pinned" in the test files, the
// shape TestMsgTypeValuesPinned uses: {MsgX, <int>, "name"} rows.
func pinTable(testFiles []*ast.File) (map[string]int64, map[string]token.Pos) {
	for _, f := range testFiles {
		var pins map[string]int64
		var poss map[string]token.Pos
		ast.Inspect(f, func(n ast.Node) bool {
			if pins != nil {
				return false
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			id, ok := as.Lhs[0].(*ast.Ident)
			if !ok || id.Name != "pinned" {
				return true
			}
			cl, ok := as.Rhs[0].(*ast.CompositeLit)
			if !ok {
				return true
			}
			pins = make(map[string]int64)
			poss = make(map[string]token.Pos)
			for _, elt := range cl.Elts {
				row, ok := elt.(*ast.CompositeLit)
				if !ok || len(row.Elts) < 2 {
					continue
				}
				name := ""
				switch e := row.Elts[0].(type) {
				case *ast.Ident:
					name = e.Name
				case *ast.SelectorExpr:
					name = e.Sel.Name
				}
				lit, ok := row.Elts[1].(*ast.BasicLit)
				if name == "" || !ok || lit.Kind != token.INT {
					continue
				}
				v, err := strconv.ParseInt(lit.Value, 0, 64)
				if err != nil {
					continue
				}
				pins[name] = v
				poss[name] = row.Pos()
			}
			return false
		})
		if pins != nil {
			return pins, poss
		}
	}
	return nil, nil
}
