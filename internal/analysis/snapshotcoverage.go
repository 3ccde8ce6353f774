package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// RuleSnapshotCoverage is the snapshot-coverage rule name.
const RuleSnapshotCoverage = "snapshot-coverage"

// SnapshotCoverage guards the warmup-fork copies: for every struct type T
// that implements CopyFrom(*T), each of its exported fields — and each
// unexported field mutated anywhere on the simulation path (directly or
// through call-graph-reachable helpers) — must be referenced somewhere in
// the files that define T's CopyFrom method (its copy files). Adding a
// mutable field to a forked component without copying it would otherwise
// silently produce forks that diverge from a straight-through simulation;
// intentionally-uncopied fields (wiring, derived handles, scratch) are
// suppressed in place with //brlint:allow snapshot-coverage.
func SnapshotCoverage() *Analyzer {
	return &Analyzer{
		Name: RuleSnapshotCoverage,
		Doc:  "fields of CopyFrom-implementing structs mutated on the sim path must be referenced by their copy",
		Run:  runSnapshotCoverage,
	}
}

func runSnapshotCoverage(prog *Program) []Diagnostic {
	mutated := simPathMutatedFields(prog)
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		if !pathContainsElem(pkg.Path, "internal") {
			continue
		}
		diags = append(diags, snapshotCoveragePkg(prog, pkg, mutated)...)
	}
	return diags
}

// simPathMutatedFields collects every struct field assigned, incremented or
// address-taken inside a function on (or call-graph-reachable from) the
// simulation path. These are the fields whose values a warmup run can
// change before a fork copies it.
func simPathMutatedFields(prog *Program) map[*types.Var]bool {
	g := prog.CallGraph()
	reach := g.Reachable(simPathRoots(g))
	mutated := make(map[*types.Var]bool)
	record := func(pkg *Package, expr ast.Expr) {
		// Peel index/deref/paren layers: x.F[i] = v and *x.F = v both mutate
		// state held through field F.
		for {
			switch e := expr.(type) {
			case *ast.IndexExpr:
				expr = e.X
			case *ast.StarExpr:
				expr = e.X
			case *ast.ParenExpr:
				expr = e.X
			default:
				sel, ok := expr.(*ast.SelectorExpr)
				if !ok {
					return
				}
				selection, ok := pkg.Info.Selections[sel]
				if !ok || selection.Kind() != types.FieldVal {
					return
				}
				if f, ok := selection.Obj().(*types.Var); ok {
					mutated[f] = true
				}
				return
			}
		}
	}
	for _, n := range g.Nodes {
		if _, ok := reach[n]; !ok {
			continue
		}
		node := n
		n.InspectOwn(func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					record(node.Pkg, lhs)
				}
			case *ast.IncDecStmt:
				record(node.Pkg, x.X)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					record(node.Pkg, x.X)
				}
			}
			return true
		})
	}
	return mutated
}

func snapshotCoveragePkg(prog *Program, pkg *Package, mutated map[*types.Var]bool) []Diagnostic {
	// copyFiles maps each CopyFrom-implementing named type to the files
	// holding its CopyFrom method.
	copyFiles := make(map[*types.Named][]*ast.File)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			if fd.Name.Name != "CopyFrom" {
				continue
			}
			named := receiverNamed(pkg, fd)
			if named == nil || !copiesFromSelf(pkg, fd, named) {
				continue
			}
			files := copyFiles[named]
			seen := false
			for _, f := range files {
				if f == file {
					seen = true
					break
				}
			}
			if !seen {
				copyFiles[named] = append(files, file)
			}
		}
	}

	var diags []Diagnostic
	// Deterministic order: walk the package scope, not the map.
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		files, ok := copyFiles[named]
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		referenced := fieldsReferenced(pkg, named, files)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if referenced[f.Name()] {
				continue
			}
			switch {
			case f.Exported():
				diags = append(diags, Diagnostic{
					Pos:  prog.Position(f.Pos()),
					Rule: RuleSnapshotCoverage,
					Message: fmt.Sprintf("%s.%s implements CopyFrom but its exported field %s is never referenced by the copy; copy it or suppress with //brlint:allow %s",
						pkg.Types.Name(), named.Obj().Name(), f.Name(), RuleSnapshotCoverage),
				})
			case mutated[f]:
				diags = append(diags, Diagnostic{
					Pos:  prog.Position(f.Pos()),
					Rule: RuleSnapshotCoverage,
					Message: fmt.Sprintf("%s.%s implements CopyFrom but its field %s, mutated on the sim path, is never referenced by the copy; copy it or suppress with //brlint:allow %s",
						pkg.Types.Name(), named.Obj().Name(), f.Name(), RuleSnapshotCoverage),
				})
			}
		}
	}
	return diags
}

// receiverNamed resolves a method declaration's receiver to its named type.
func receiverNamed(pkg *Package, fd *ast.FuncDecl) *types.Named {
	if len(fd.Recv.List) != 1 {
		return nil
	}
	tv, ok := pkg.Info.Types[fd.Recv.List[0].Type]
	if !ok {
		return nil
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// copiesFromSelf reports whether a CopyFrom method has the fork-copy shape:
// exactly one parameter, a pointer to the receiver's own type.
func copiesFromSelf(pkg *Package, fd *ast.FuncDecl, named *types.Named) bool {
	obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	if sig.Params().Len() != 1 {
		return false
	}
	ptr, ok := sig.Params().At(0).Type().(*types.Pointer)
	return ok && types.Identical(ptr.Elem(), named)
}

// fieldsReferenced collects every field of named selected anywhere in the
// given files (the copy files: helper functions beside the method count as
// copy coverage).
func fieldsReferenced(pkg *Package, named *types.Named, files []*ast.File) map[string]bool {
	referenced := make(map[string]bool)
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection, ok := pkg.Info.Selections[sel]
			if !ok || selection.Kind() != types.FieldVal {
				return true
			}
			recv := selection.Recv()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			if types.Identical(recv, named) {
				referenced[sel.Sel.Name] = true
			}
			return true
		})
	}
	return referenced
}
