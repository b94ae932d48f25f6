package ampom

import (
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// writeOnlyAllowlist names internal struct fields that production code
// writes but never reads and that stay on purpose, keyed
// "importpath.Type.field", each with its reason.
var writeOnlyAllowlist = map[string]string{}

// TestNoWriteOnlyState keeps write-only state from growing back: every
// struct field declared by a package under internal/ must be read by some
// non-test Go file in the repo, perfbench included. A write is the
// left-hand side of an assignment, the operand of ++ or --, or a
// composite-literal key; every other use of the field is a read.
//
// Two rules exempt the exported fields of an exported type, because code
// outside the repo reads them: the type is reachable through exported
// fields from a type the root ampom package exports (the facade), or it
// is reachable from a struct with a json tag (the wire formats). Fields
// that are unexported, or belong to an unexported type, are always checked.
func TestNoWriteOnlyState(t *testing.T) {
	fields := scanRepo(t).fields
	for key := range writeOnlyAllowlist {
		if f, ok := fields[key]; !ok {
			t.Errorf("allowlist entry %s names no checked internal field", key)
		} else if f.used {
			t.Errorf("allowlist entry %s is read by production code; drop it", key)
		}
	}
	var unread []string
	for key, f := range fields {
		if _, ok := writeOnlyAllowlist[key]; !f.used && !ok {
			unread = append(unread, f.pos+": "+key)
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("field is never read by production code (delete it and its writes): %s", u)
	}
}

// TestNoTestSwitches keeps test-only switches out of production code: a
// package-level variable declared under internal/ with a boolean, numeric
// or string type must be assigned by some non-test Go file in the repo.
// One that only its initialiser sets is a constant, or a knob only tests
// turn. Taking the variable's address counts as an assignment.
func TestNoTestSwitches(t *testing.T) {
	var unset []string
	for key, v := range scanRepo(t).vars {
		if !v.used {
			unset = append(unset, v.pos+": "+key)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("package variable is never assigned by production code (make it a constant, or move the switch into a test): %s", u)
	}
}

// scanRepo type-checks every non-test Go file once, walking from the repo
// root, for both guards.
func scanRepo(t *testing.T) *stateScan {
	t.Helper()
	s, err := repoScan()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var repoScan = sync.OnceValues(func() (*stateScan, error) {
	s := &stateScan{fset: token.NewFileSet(), files: map[string][]*ast.File{}}
	if err := filepath.WalkDir(".", s.visit); err != nil {
		return nil, err
	}
	if len(s.files) == 0 {
		return nil, errors.New("no Go files found: is the test running at the repo root?")
	}
	return s, s.check()
})

// stateScan type-checks the repo's non-test Go files, keyed by import
// path, and classifies every use of an internal struct field and of an
// internal package-level variable of basic type.
type stateScan struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	std   types.Importer
	info  *types.Info

	// fields and vars are the checked declarations, keyed
	// "importpath.Type.field" and "importpath.name". A field is used when
	// production code reads it, a variable when production code assigns it.
	fields, vars map[string]*declUse
	// methods are the checked exported methods, keyed
	// "importpath.Type.Method"; one is used when production code outside
	// its own body selects it.
	methods map[string]*declUse
}

// declUse is one checked declaration: its key, where it is declared, and
// whether production code uses it.
type declUse struct {
	key, pos string
	used     bool
}

func (s *stateScan) visit(p string, d fs.DirEntry, err error) error {
	if err != nil {
		return err
	}
	name := d.Name()
	if d.IsDir() {
		if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		return nil
	}
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return nil
	}
	f, err := parser.ParseFile(s.fset, p, nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	// The perfbench module replaces ampom with the repo root, so every
	// directory's import path is the module path plus its slash path.
	pkg := path.Join("ampom", filepath.ToSlash(filepath.Dir(p)))
	s.files[pkg] = append(s.files[pkg], f)
	return nil
}

// Import type-checks a repo package from its parsed files on first use
// and hands every other import to the standard library source importer.
func (s *stateScan) Import(p string) (*types.Package, error) {
	if pkg, ok := s.pkgs[p]; ok {
		return pkg, nil
	}
	files, ok := s.files[p]
	if !ok {
		return s.std.Import(p)
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(p, s.fset, files, s.info)
	if err != nil {
		return nil, err
	}
	s.pkgs[p] = pkg
	return pkg, nil
}

// check type-checks every package and fills in the checked fields and
// variables.
func (s *stateScan) check() error {
	s.pkgs = map[string]*types.Package{}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	s.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	paths := make([]string, 0, len(s.files))
	for p := range s.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := s.Import(p); err != nil {
			return err
		}
	}

	roots := s.facadeRoots()
	facade := reachableTypes(roots)
	exempt := reachableTypes(append(roots, s.jsonRoots()...))
	fields := map[*types.Var]*declUse{}
	vars := map[*types.Var]*declUse{}
	writes := map[ast.Expr]bool{}
	for _, p := range paths {
		for _, f := range s.files[p] {
			if strings.HasPrefix(p, "ampom/internal/") {
				s.declaredFields(p, f, exempt, fields)
				s.declaredVars(p, f, vars)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, l := range x.Lhs {
						writes[ast.Unparen(l)] = true
					}
				case *ast.IncDecStmt:
					writes[ast.Unparen(x.X)] = true
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						s.markVar(vars, ast.Unparen(x.X))
					}
				}
				return true
			})
		}
	}
	for w := range writes {
		s.markVar(vars, w)
	}
	for sel, selection := range s.info.Selections {
		if selection.Kind() != types.FieldVal || writes[sel] {
			continue
		}
		if u, ok := fields[selection.Obj().(*types.Var).Origin()]; ok {
			u.used = true
		}
	}

	s.fields, s.vars = byKey(fields), byKey(vars)
	s.methods = s.checkMethods(paths, facade)
	return nil
}

// markVar marks the checked variable that e names, bare or qualified, as
// assigned.
func (s *stateScan) markVar(vars map[*types.Var]*declUse, e ast.Expr) {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		e = sel.Sel
	}
	if id, ok := e.(*ast.Ident); ok {
		if v, ok := s.info.Uses[id].(*types.Var); ok && vars[v] != nil {
			vars[v].used = true
		}
	}
}

func byKey(m map[*types.Var]*declUse) map[string]*declUse {
	out := make(map[string]*declUse, len(m))
	for _, u := range m {
		out[u.key] = u
	}
	return out
}

// reachableTypes returns the named types reachable through exported
// fields from roots.
func reachableTypes(roots []types.Type) map[*types.Named]bool {
	seen := map[*types.Named]bool{}
	var reach func(t types.Type)
	reach = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			if seen[t.Origin()] {
				return
			}
			seen[t.Origin()] = true
			reach(t.Underlying())
		case *types.Pointer:
			reach(t.Elem())
		case *types.Slice:
			reach(t.Elem())
		case *types.Array:
			reach(t.Elem())
		case *types.Map:
			reach(t.Key())
			reach(t.Elem())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if t.Field(i).Exported() {
					reach(t.Field(i).Type())
				}
			}
		}
	}
	for _, t := range roots {
		reach(t)
	}
	return seen
}

// facadeRoots returns the types the root package exports: code outside
// the repo reaches the exported fields and methods of every type
// reachable from them.
func (s *stateScan) facadeRoots() []types.Type {
	var roots []types.Type
	root := s.pkgs["ampom"].Scope()
	for _, name := range root.Names() {
		if tn, ok := root.Lookup(name).(*types.TypeName); ok && tn.Exported() {
			roots = append(roots, tn.Type())
		}
	}
	return roots
}

// jsonRoots returns the structs with a json tag, named or not: code
// outside the repo reads the exported fields of every type reachable from
// the wire formats.
func (s *stateScan) jsonRoots() []types.Type {
	var roots []types.Type
	for _, obj := range s.info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && hasJSONTag(tn.Type().Underlying()) {
			roots = append(roots, tn.Type())
		}
	}
	for e, tv := range s.info.Types {
		if _, ok := e.(*ast.StructType); ok && hasJSONTag(tv.Type) {
			roots = append(roots, tv.Type)
		}
	}
	return roots
}

// hasJSONTag reports whether t is a struct with a json-tagged field.
func hasJSONTag(t types.Type) bool {
	st, ok := t.(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
			return true
		}
	}
	return false
}

// declaredFields records the named fields of every struct type f declares,
// leaving out the exported fields of exempt exported types. Embedded
// fields are left out too: they are reached through the names they
// promote.
func (s *stateScan) declaredFields(pkg string, f *ast.File, exempt map[*types.Named]bool, fields map[*types.Var]*declUse) {
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		named, _ := types.Unalias(s.info.Defs[ts.Name].Type()).(*types.Named)
		skipExported := ts.Name.IsExported() && named != nil && exempt[named]
		ast.Inspect(ts.Type, func(n ast.Node) bool {
			field, ok := n.(*ast.Field)
			if !ok {
				return true
			}
			for _, id := range field.Names {
				v, ok := s.info.Defs[id].(*types.Var)
				if !ok || !v.IsField() || (v.Exported() && skipExported) {
					continue
				}
				fields[v] = &declUse{
					key: pkg + "." + ts.Name.Name + "." + id.Name,
					pos: s.fset.Position(id.Pos()).String(),
				}
			}
			return true
		})
		return false
	})
}

// declaredVars records the package-level variables f declares whose type
// is boolean, numeric or string.
func (s *stateScan) declaredVars(pkg string, f *ast.File, vars map[*types.Var]*declUse) {
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			for _, id := range spec.(*ast.ValueSpec).Names {
				v, ok := s.info.Defs[id].(*types.Var)
				if !ok {
					continue
				}
				b, ok := v.Type().Underlying().(*types.Basic)
				if !ok || b.Info()&(types.IsBoolean|types.IsNumeric|types.IsString) == 0 {
					continue
				}
				vars[v] = &declUse{
					key: pkg + "." + id.Name,
					pos: s.fset.Position(id.Pos()).String(),
				}
			}
		}
	}
}
