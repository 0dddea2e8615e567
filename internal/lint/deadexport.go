package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// analyzeDeadexport reports every exported func, method, type and
// package-level var declared under internal/ that no non-test file of the
// program references. prog is the whole program — the module and every
// nested module loaded by import path — because an identifier only a
// benchmark names is still called. A use inside the identifier's own
// declaration (recursion, a type's own methods) does not count, and a use
// from internal/repro/... counts only for what is declared there: paper
// reproduction does not keep serving code alive.
//
// Exempt: constants and struct fields (neither is reported), methods on
// unexported types, methods some interface in the program asks for, and
// methods of the types the module's root package re-exports as aliases
// (public API). A fake that tests in other packages need carries
// //arbd:test-api <reason> on its declaration line or the line above.
func analyzeDeadexport(fset *token.FileSet, prog []*pkgInfo, module string) []Finding {
	type candidate struct {
		kind      string
		name      string
		pos       token.Pos
		own       []posSpan
		reproOnly bool // used from internal/repro, which does not count
	}
	cands := make(map[types.Object]*candidate)
	var methods []*types.Func
	reexported := aliasTargets(prog, module)
	for _, p := range prog {
		if !strings.HasPrefix(p.importPath, module+"/internal/") {
			continue
		}
		for _, file := range p.files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := p.info.Defs[d.Name].(*types.Func)
					if !ok || !d.Name.IsExported() {
						continue
					}
					c := &candidate{kind: "func", name: d.Name.Name, pos: d.Name.Pos(), own: []posSpan{{d.Pos(), d.End()}}}
					if d.Recv != nil {
						recv := recvNamed(fn)
						if recv == nil || !recv.Obj().Exported() || reexported[recv.Obj()] {
							continue
						}
						c.kind, c.name = "method", recv.Obj().Name()+"."+d.Name.Name
						methods = append(methods, fn)
					}
					cands[fn] = c
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if obj := p.info.Defs[s.Name]; obj != nil && s.Name.IsExported() {
								cands[obj] = &candidate{kind: "type", name: s.Name.Name, pos: s.Name.Pos(), own: []posSpan{{s.Pos(), s.End()}}}
							}
						case *ast.ValueSpec:
							if d.Tok != token.VAR {
								continue
							}
							for _, id := range s.Names {
								if obj := p.info.Defs[id]; obj != nil && id.IsExported() {
									cands[obj] = &candidate{kind: "var", name: id.Name, pos: id.Pos(), own: []posSpan{{s.Pos(), s.End()}}}
								}
							}
						}
					}
				}
			}
		}
	}
	// A type's own methods do not keep it alive.
	for _, fn := range methods {
		if c := cands[recvNamed(fn).Obj()]; c != nil {
			c.own = append(c.own, cands[fn].own[0])
		}
	}
	ifaces := programInterfaces(prog)
	for _, fn := range methods {
		if satisfiesInterface(recvNamed(fn), fn.Name(), ifaces) {
			delete(cands, fn)
		}
	}

	for _, p := range prog {
		fromRepro := inRepro(p.importPath, module)
		for id, obj := range p.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			c := cands[obj]
			switch {
			case c == nil || within(c.own, id.Pos()):
			case fromRepro && !inRepro(obj.Pkg().Path(), module):
				c.reproOnly = true
			default:
				delete(cands, obj)
			}
		}
	}

	var out []Finding
	for _, c := range cands {
		msg := fmt.Sprintf("exported %s %s has no caller outside tests; delete it, unexport it, or mark it //arbd:test-api <reason>",
			c.kind, c.name)
		if c.reproOnly {
			msg = fmt.Sprintf("exported %s %s has no caller outside tests and internal/repro; move it under internal/repro or delete it",
				c.kind, c.name)
		}
		out = append(out, Finding{
			Pos:      fset.Position(c.pos),
			Analyzer: "deadexport",
			Message:  msg,
		})
	}
	return out
}

// recvNamed returns the named type a method is declared on.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// aliasTargets returns the type names the module's root package re-exports
// through type aliases.
func aliasTargets(prog []*pkgInfo, module string) map[*types.TypeName]bool {
	out := make(map[*types.TypeName]bool)
	for _, p := range prog {
		if p.importPath != module || p.pkg == nil {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				out[named.Obj()] = true
			}
		}
	}
	return out
}

// programInterfaces collects the non-empty interfaces a method could be
// called through: every interface type the program's non-test code writes
// down, every interface the packages it imports declare, and error.
func programInterfaces(prog []*pkgInfo) []*types.Interface {
	seen := make(map[types.Type]bool)
	var out []*types.Interface
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || iface.NumMethods() == 0 || seen[t] {
			return
		}
		seen[t] = true
		out = append(out, iface)
	}
	add(types.Universe.Lookup("error").Type())
	for _, p := range prog {
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
		if p.pkg == nil {
			continue
		}
		for _, imp := range p.pkg.Imports() {
			scope := imp.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
					add(tn.Type())
				}
			}
		}
	}
	return out
}

// satisfiesInterface reports whether *T (whose method set holds T's too)
// implements an interface that declares a method with the given name.
func satisfiesInterface(t *types.Named, method string, ifaces []*types.Interface) bool {
	if t.TypeParams().Len() > 0 {
		return false // Implements is unspecified on an uninstantiated type
	}
	for _, iface := range ifaces {
		m, _, _ := types.LookupFieldOrMethod(iface, false, nil, method)
		if m != nil && types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}
